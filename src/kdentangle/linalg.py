"""Dense complex linear algebra for small operators.

Everything here works on plain ``numpy`` complex arrays. Matrices are kept
dense; the package targets total dimensions well below ~64, where LAPACK's
dense routines are both the fastest and the most robust option.
"""

import functools

import numpy as np

from .errors import DimensionMismatch

# the one entry appended to a flattened matrix that block padding points at
_ZERO = np.zeros(1)
_ZERO.setflags(write=False)


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


def commutator_trace_norm(rho, basis, dims, side, subsets) -> np.ndarray:
    """``||[P_S (x) I, rho]||_1`` for each local outcome subset ``S`` of
    ``subsets`` (a tuple of index tuples), with ``P_S`` the projector onto
    the columns ``S`` of the ``side`` basis ``basis``; ``(k,)`` out.

    For a projector ``P`` and ``Q = 1 - P`` the commutator is
    ``P rho Q - Q rho P``, block off-diagonal, so for Hermitian ``rho`` its
    trace norm is ``2 ||P rho Q||_1``. ``rho`` is rotated once into the
    product frame of ``basis``, where each ``P_S (x) I`` is a coordinate
    projector, and every block ``<S| rho |S^c>`` (shorter side first,
    zero-padded to one shape, which adds only zero singular values) goes
    through one stacked SVD. The block form assumes ``rho = rho^dag``: for a
    near-Hermitian ``rho`` it reads the ``<S| rho |S^c>`` blocks alone.

    The rotation takes ``rho - I / N``, which no commutator sees: its
    roundoff then scales with what is left, so the maximally mixed state
    gets exact zeros, as the full commutator gives, and a search on it sees
    a flat objective rather than roundoff.
    """
    u = embed_local(basis[None], dims, side)[0]
    rotated = dagger(u).dot(rho - _maximally_mixed(rho.shape[0])).dot(u)
    padded = np.concatenate((rotated, _ZERO), axis=None)
    blocks = padded[_block_plan(int(dims[0]), int(dims[1]), side, subsets)]
    return 2.0 * np.add.reduce(np.linalg.svd(blocks, compute_uv=False), -1)


@functools.cache
def _block_plan(da: int, db: int, side: str, subsets) -> np.ndarray:
    """Read-only ``(k, r, c)`` flat indices into the ``(da*db) x (da*db)``
    matrix ``m`` flattened with ``_ZERO`` appended, that lay out each block
    ``m[<S|, |S^c>]`` with its shorter side first; the padding points at the
    appended zero. Built once per ``(da, db, side, subsets)``."""
    n = da * db
    local = np.arange(n).reshape(da, db)
    if side == "B":
        local = local.T
    flats = []
    for s in subsets:
        inside = np.zeros(local.shape[0], dtype=bool)
        inside[list(s)] = True
        rows, cols = local[inside].ravel(), local[~inside].ravel()
        flat = rows[:, None] * n + cols[None, :]
        flats.append(flat.T if rows.size > cols.size else flat)
    shape = (max(f.shape[0] for f in flats), max(f.shape[1] for f in flats))
    plan = np.full((len(flats),) + shape, n * n)
    for k, flat in enumerate(flats):
        plan[k, :flat.shape[0], :flat.shape[1]] = flat
    plan.setflags(write=False)
    return plan


@functools.cache
def _maximally_mixed(n: int) -> np.ndarray:
    """Read-only ``I / n``, built once per ``n``."""
    mixed = np.eye(n) / n
    mixed.setflags(write=False)
    return mixed


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
