"""Kirkwood-Dirac quasiprobability tables over a basis pair, nonreality
functionals, and state reconstruction from a complete table.

The table value at cell ``(x, y)`` is ``<y| P_x rho |y>`` where ``P_x`` is the
projector onto the x-th first-basis vector. For the bipartite forms the first
basis is either a local basis of subsystem A (marginal form, projectors
``P_x (x) I_B``) or a full product basis of both subsystems (full form).
"""

import csv
import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadSpec, BasisPairSingular
from .states import BipartiteDims, DensityOperator, require_basis

MARGINAL_TOL = 1e-10
RECONSTRUCT_CUTOFF = 1e-8

FORM_FULL = "full"
FORM_MARGINAL = "marginal"


@dataclass(frozen=True)
class KDDistribution:
    """Complex table indexed ``(x, y)`` plus the defining bases.

    ``first_basis`` holds the local A basis for the marginal form and the full
    product basis for the full form; ``second_basis`` is always a basis of the
    composite space.
    """

    values: np.ndarray
    first_basis: np.ndarray
    second_basis: np.ndarray
    form: str
    dims: BipartiteDims


def born_probabilities(rho_mat: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Born probabilities of the rank-1 PVM given by basis columns."""
    return np.einsum("iy,ij,jy->y", np.conj(basis), rho_mat, basis).real


def _check_table(values: np.ndarray, p_first: np.ndarray, p_second: np.ndarray):
    dev_first = np.abs(values.sum(axis=1) - p_first).max()
    dev_second = np.abs(values.sum(axis=0) - p_second).max()
    if dev_first > MARGINAL_TOL or dev_second > MARGINAL_TOL:
        raise BadSpec(
            f"table marginals deviate from Born probabilities by "
            f"{max(dev_first, dev_second):.3e}"
        )


def kd_marginal(rho: DensityOperator, basis_a, basis_y) -> KDDistribution:
    """Table ``values[x, y] = <y| (P_x (x) I_B) rho |y>`` over a local A basis
    and a composite second basis."""
    dims = rho.dims
    a = require_basis(basis_a, dims.da)
    y = require_basis(basis_y, dims.total)
    projs = linalg.embed_local(linalg.projectors(a), dims.as_tuple())
    values = np.einsum("iy,xij,jy->xy", np.conj(y), projs, rho.matrix @ y)
    p_first = np.trace(projs @ rho.matrix, axis1=1, axis2=2).real
    _check_table(values, p_first, born_probabilities(rho.matrix, y))
    return KDDistribution(values, a, y, FORM_MARGINAL, dims)


def kd_full(rho: DensityOperator, basis_a, basis_b, basis_y) -> KDDistribution:
    """Table over the full product first basis ``{|x_a, x_b>}`` and a composite
    second basis."""
    dims = rho.dims
    a = require_basis(basis_a, dims.da)
    b = require_basis(basis_b, dims.db)
    y = require_basis(basis_y, dims.total)
    cols = np.kron(a, b)                             # column x = x_a * db + x_b
    ovl = linalg.dagger(y) @ cols                    # ovl[y, x] = <y|x>
    xr = linalg.dagger(cols) @ rho.matrix @ y        # xr[x, y] = <x| rho |y>
    values = ovl.T * xr
    p_first = np.einsum("ix,ij,jx->x", np.conj(cols), rho.matrix, cols).real
    _check_table(values, p_first, born_probabilities(rho.matrix, y))
    return KDDistribution(values, cols, y, FORM_FULL, dims)


def nonreality(dist: KDDistribution) -> float:
    """l1 mass of the imaginary parts of the table."""
    return float(np.abs(dist.values.imag).sum())


def max_nonreality(rho: DensityOperator, basis_a) -> float:
    """Largest nonreality achievable by any second basis, summed over the
    first-basis outcomes.

    For each first-basis projector the supremum over second bases equals half
    the trace norm of its commutator with the state, attained at the eigenbasis
    of ``i [P_x (x) I_B, rho]``; no numeric search is involved. That norm is
    twice the trace norm of the off-diagonal block ``<x| rho |x^c>`` in the
    product frame of the basis, so the value is the sum of the singular
    values of the ``dA`` blocks, all taken from one stacked SVD.
    """
    dims = rho.dims
    a = require_basis(basis_a, dims.da)
    return _max_nonreality_mat(rho.matrix, dims.as_tuple(), a)


@functools.cache
def _singletons(d: int) -> tuple:
    """The one-outcome subsets ``((0,), ..., (d - 1,))``, built once per ``d``."""
    return tuple((x,) for x in range(d))


def _max_nonreality_mat(rho_mat: np.ndarray, dims, basis_a: np.ndarray,
                        side: str = "A") -> float:
    norms = linalg.commutator_trace_norm(rho_mat, basis_a, dims, side,
                                         _singletons(basis_a.shape[0]))
    return float(np.add.reduce(norms)) / 2.0


def optimal_second_basis(rho_mat: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Second basis attaining the per-projector nonreality supremum: the
    eigenbasis of the Hermitian matrix ``i [proj, rho]``. A stack of
    projectors gives one basis per projector."""
    h = 1j * (proj @ rho_mat - rho_mat @ proj)
    _, vecs = np.linalg.eigh(h)
    return vecs


def reconstruct_state(dist: KDDistribution) -> np.ndarray:
    """Invert a full-form table back into the density matrix.

    Each cell divides by the overlap ``<y|x>``; a pair with overlap magnitude
    at or below ``RECONSTRUCT_CUTOFF`` makes the inversion ill-posed and raises
    ``BasisPairSingular`` naming the offending pair.
    """
    if dist.form != FORM_FULL:
        raise BadSpec("reconstruction requires the full-form table")
    x_cols = dist.first_basis
    y_cols = dist.second_basis
    ovl = linalg.dagger(y_cols) @ x_cols  # ovl[y, x] = <y|x>
    mags = np.abs(ovl)
    if mags.min() <= RECONSTRUCT_CUTOFF:
        y_bad, x_bad = np.unravel_index(np.argmin(mags), mags.shape)
        raise BasisPairSingular(
            f"overlap |<y={y_bad}|x={x_bad}>| = {mags[y_bad, x_bad]:.3e} "
            f"at or below cutoff {RECONSTRUCT_CUTOFF:g}"
        )
    weights = dist.values / ovl.T
    return x_cols @ weights @ linalg.dagger(y_cols)


def kd_to_csv(dist: KDDistribution, fh) -> None:
    """Write the table as ``x, y, re, im`` rows in x-major order."""
    writer = csv.writer(fh)
    writer.writerow(["x", "y", "re", "im"])
    nx, ny = dist.values.shape
    for x in range(nx):
        for y in range(ny):
            v = dist.values[x, y]
            writer.writerow([x, y, f"{v.real:.12g}", f"{v.imag:.12g}"])
