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


def commutator_trace_norm(state, basis, dims, subsets) -> np.ndarray:
    """``||[P_S (x) I_B, rho]||_1`` for each local outcome subset ``S`` of
    ``subsets`` (a tuple of index tuples), with ``P_S`` the projector onto
    the columns ``S`` of the subsystem-A basis ``basis``; ``(k,)`` out. A
    search over subsystem B runs on the state with its subsystems swapped.
    ``state`` is the ``N x N`` matrix ``rho``, or a length-``N`` ket ``psi``
    for the rank-one ``rho = psi psi^dag``.

    For a projector ``P`` and ``Q = 1 - P`` the commutator is
    ``P rho Q - Q rho P``, block off-diagonal, so for Hermitian ``rho`` its
    trace norm is ``2 ||P rho Q||_1``.

    A ket is rotated once, as a ``dA x dB`` amplitude matrix, by ``basis^dag``
    into the product frame; ``w`` are its squared row norms. There
    ``P rho Q = (P psi)(Q psi)^dag`` has rank one, so each norm is
    ``2 ||P psi|| ||Q psi||``, the two factors summed from the rows inside
    and outside ``S`` (not one as ``|psi|^2`` less the other): a product
    state whose rows lie on one side scores an exact 0.

    A matrix is rotated once into the product frame of ``basis``, where each
    ``P_S (x) I_B`` is a coordinate projector, and every block
    ``<S| rho |S^c>`` (shorter side first, zero-padded to one shape, which
    adds only zero singular values) goes through one stacked SVD. The block
    form assumes ``rho = rho^dag``: for a near-Hermitian ``rho`` it reads the
    ``<S| rho |S^c>`` blocks alone. The rotation takes ``rho - I / N``,
    which no commutator sees: its roundoff then scales with what is left, so
    the maximally mixed state gets exact zeros, as the full commutator
    gives, and a search on it sees a flat objective rather than roundoff.
    """
    if state.ndim == 1:
        da, db = int(dims[0]), int(dims[1])
        rotated = dagger(basis).dot(state.reshape(da, db))
        w = np.add.reduce((rotated.conj() * rotated).real, -1)
        sides = np.sqrt(_membership(da, subsets).dot(w))
        return 2.0 * sides[:len(subsets)] * sides[len(subsets):]
    u = embed_local(basis[None], dims)[0]
    rotated = dagger(u).dot(state - _maximally_mixed(state.shape[0])).dot(u)
    padded = np.concatenate((rotated, _ZERO), axis=None)
    blocks = padded[_block_plan(int(dims[0]), int(dims[1]), subsets)]
    return 2.0 * np.add.reduce(np.linalg.svd(blocks, compute_uv=False), -1)


@functools.cache
def _membership(da: int, subsets) -> np.ndarray:
    """Read-only ``(2k, da)`` 0/1 rows: row ``j`` marks the subsystem-A
    outcomes in ``subsets[j]``, row ``k + j`` those outside it. Built once
    per ``(da, subsets)``."""
    inside = np.zeros((len(subsets), da))
    for j, s in enumerate(subsets):
        inside[j, list(s)] = 1.0
    both = np.concatenate((inside, 1.0 - inside))
    both.setflags(write=False)
    return both


@functools.cache
def _block_plan(da: int, db: int, subsets) -> np.ndarray:
    """Read-only ``(k, r, c)`` flat indices into the ``(da*db) x (da*db)``
    matrix ``m`` flattened with ``_ZERO`` appended, that lay out each block
    ``m[<S|, |S^c>]``, ``S`` a set of subsystem-A outcomes, with its shorter
    side first; the padding points at the appended zero. Built once per
    ``(da, db, subsets)``."""
    n = da * db
    local = np.arange(n).reshape(da, db)
    flats = []
    for s in subsets:
        inside = np.zeros(da, dtype=bool)
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


def embed_local(ops, dims) -> np.ndarray:
    """Full operators ``X_k (x) I_B`` for a stack ``ops`` of subsystem-A
    operators ``(k, da, da)``.

    ``dims`` is ``(da, db)`` with the composite index ``i = i_a * db + i_b``;
    the result has shape ``(k, da*db, da*db)``. Entries are the same products
    ``np.kron`` forms, taken by broadcasting over the whole stack.
    """
    da, db = int(dims[0]), int(dims[1])
    ops = np.asarray(ops)
    if ops.ndim != 3 or ops.shape[1:] != (da, da):
        raise DimensionMismatch(
            f"operator stack shape {ops.shape} incompatible with subsystem A "
            f"of dims ({da}, {db})"
        )
    # out[k, a, b, a', b'] = ops[k, a, a'] * I[b, b']; the operand order is
    # np.kron's, so signed zeros come out the same
    out = ops[:, :, None, :, None] * _identity(db)[:, None, :]
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
