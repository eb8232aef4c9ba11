"""Dense complex linear algebra for small operators.

Everything here works on plain ``numpy`` complex arrays. Matrices are kept
dense; the package targets total dimensions well below ~64, where LAPACK's
dense routines are both the fastest and the most robust option.
"""

import functools

import numpy as np

from .errors import DimensionMismatch


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite, 2-D complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m.real).all() or not np.isfinite(m.imag).all():
        raise ValueError("matrix entries must be finite")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(a).T


def trace_norm(a) -> float:
    """Sum of singular values (Schatten-1 norm)."""
    return float(np.linalg.svd(as_matrix(a), compute_uv=False).sum())


def hermitian_trace_norm(h):
    """Trace norm of a Hermitian matrix via its eigenvalues (fast path).

    A stack ``(k, n, n)`` gives the ``k`` trace norms from one stacked
    ``eigvalsh``; a single matrix gives a float.
    """
    norms = np.add.reduce(np.abs(np.linalg.eigvalsh(h)), -1)
    return float(norms) if norms.ndim == 0 else norms


def commutator_trace_norm(x, rho):
    """``||[x, rho]||_1`` for Hermitian ``x`` and ``rho``.

    The commutator of two Hermitian matrices is skew-Hermitian, so ``i[x, rho]``
    is Hermitian and the trace norm reduces to a sum of real eigenvalue moduli.
    A stack of ``x`` gives one norm per operator, as ``hermitian_trace_norm``.
    """
    return hermitian_trace_norm(1j * (x @ rho - rho @ x))


@functools.cache
def _identity(d: int) -> np.ndarray:
    """Read-only real ``d x d`` identity, built once per ``d``."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def embed_local(ops, dims, side: str = "A") -> np.ndarray:
    """Full operators ``X_k (x) I_B`` (``side="A"``) or ``I_A (x) X_k``
    (``side="B"``) for a stack ``ops`` of local operators ``(k, d, d)``.

    ``dims`` is ``(da, db)`` with the composite index ``i = i_a * db + i_b``;
    the result has shape ``(k, da*db, da*db)``. Entries are the same products
    ``np.kron`` forms, taken by broadcasting over the whole stack.
    """
    da, db = int(dims[0]), int(dims[1])
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    ops = np.asarray(ops)
    d = da if side == "A" else db
    if ops.ndim != 3 or ops.shape[1:] != (d, d):
        raise DimensionMismatch(
            f"operator stack shape {ops.shape} incompatible with side {side} "
            f"of dims ({da}, {db})"
        )
    # out[k, a, b, a', b'] = ops[k, a, a'] * I[b, b'] or I[a, a'] * ops[k, b, b'];
    # the operand order is np.kron's, so signed zeros come out the same
    if side == "A":
        out = ops[:, :, None, :, None] * _identity(db)[:, None, :]
    else:
        out = _identity(da)[:, None, :, None] * ops[:, None, :, None, :]
    return out.reshape(ops.shape[0], da * db, da * db)


def partial_trace(a, dims, keep: str = "A") -> np.ndarray:
    """Trace out one tensor factor of a ``(da*db) x (da*db)`` matrix.

    ``dims`` is ``(da, db)`` with the composite index convention
    ``i = i_a * db + i_b``; ``keep`` selects the surviving subsystem.
    """
    da, db = int(dims[0]), int(dims[1])
    m = as_matrix(a)
    if m.shape != (da * db, da * db):
        raise DimensionMismatch(
            f"matrix shape {m.shape} incompatible with dims ({da}, {db})"
        )
    r = m.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("ibjb->ij", r)
    if keep == "B":
        return np.einsum("aiaj->ij", r)
    raise ValueError("keep must be 'A' or 'B'")


def projectors(basis: np.ndarray) -> np.ndarray:
    """Stack ``(d, d, d)`` of the rank-1 projectors onto the columns of ``basis``."""
    cols = basis.T
    return cols[:, :, None] * np.conj(cols)[:, None, :]


def binary_measurement(rho: np.ndarray, projs: np.ndarray) -> np.ndarray:
    """States ``P rho P + Q rho Q`` with ``Q = I - P`` after the nonselective
    binary measurements ``{P, Q}``, one for each projector ``P`` of the stack
    ``projs`` ``(k, n, n)``; both sandwiches are taken in one stacked product."""
    k, n, _ = projs.shape
    pq = np.concatenate((projs, _identity(n) - projs))
    sandwiched = pq @ rho @ pq
    return sandwiched[:k] + sandwiched[k:]
