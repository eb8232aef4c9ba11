"""Entanglement monotone built on optimized quasiprobability nonreality:
closed form for pure states, convex-roof extension for mixed states,
uncertainty-style lower/upper bounds, and the measurement-disturbance form.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadSpec, DimensionMismatch, DomainError, NotPSD, OptimizerFailed
from .kd import _max_nonreality_mat
from .optimize import ConvexRoofResult, OptimizerConfig, minimize_convex_roof, minimize_over_bases
from .states import (
    BipartiteDims,
    BipartitePureState,
    DensityOperator,
    as_state_matrix,
    require_basis,
    schmidt,
)

EIG_FLOOR = -1e-10
SNAP = 1e-15
# Largest local dimension the asymmetry bound enumerates: one evaluation stacks
# 2**(d-1) - 1 sign patterns, 511 at the cap (~29 MB per stack at N = 60).
PATTERN_CAP = 10


def _entropy_from_eigenvalues(lam: np.ndarray) -> np.ndarray:
    """``sum_j sqrt(lam_j (1 - lam_j))`` over the last axis, with boundary
    snapping: the square root amplifies boundary roundoff (eps -> sqrt(eps)),
    so eigenvalues within ``SNAP`` of 0 or 1 are treated as sitting on the
    boundary."""
    lam = np.clip(lam, 0.0, 1.0)
    lam[lam < SNAP] = 0.0
    lam[lam > 1.0 - SNAP] = 1.0
    return np.sqrt(lam * (1.0 - lam)).sum(axis=-1)


def nonreality_entropy(rho_local) -> float:
    """``sum_j sqrt(lambda_j - lambda_j^2)`` over the eigenvalues of a
    subsystem density matrix.

    Vanishes exactly on pure states and is maximal on the maximally mixed
    state, where it equals ``sqrt(d - 1)``.
    """
    m = as_state_matrix(rho_local)
    lam = np.linalg.eigvalsh((m + linalg.dagger(m)) / 2)
    if lam[0] < EIG_FLOOR:
        raise NotPSD(f"eigenvalue {lam[0]:.3e} below {EIG_FLOOR:g}")
    return float(_entropy_from_eigenvalues(lam))


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def entropy_from_concurrence(c: float) -> float:
    """Entropy of entanglement of a two-qubit pure state with concurrence ``c``."""
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise DomainError(f"concurrence {c!r} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    return binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


@dataclass(frozen=True)
class PureEntanglementReport:
    value: float
    normalized: float
    schmidt_rank: int
    concurrence: float
    entropy_of_entanglement: float | None


def pure_entanglement(state: BipartitePureState) -> PureEntanglementReport:
    """Closed-form entanglement of a pure bipartite state.

    The value is the nonreality entropy of either marginal; the normalized
    value divides by ``sqrt(d - 1)`` with ``d`` the Schmidt rank, and the
    concurrence uses the same ``d`` in its prefactor (zero for product states).
    """
    sd = schmidt(state)
    lam = np.clip(sd.coefficients**2, 0.0, 1.0)
    value = float(_entropy_from_eigenvalues(lam))
    d = sd.rank
    if d >= 2:
        normalized = float(value / np.sqrt(d - 1))
        purity = float((lam**2).sum())
        conc = float(np.sqrt(max(d / (d - 1) * (1.0 - purity), 0.0)))
        conc = min(conc, 1.0)
    else:
        normalized = 0.0
        conc = 0.0
    ent = None
    if state.dims.da == 2 and state.dims.db == 2:
        ent = entropy_from_concurrence(conc)
    return PureEntanglementReport(value, normalized, d, conc, ent)


# ---------------------------------------------------------------------------
# measurement disturbance
# ---------------------------------------------------------------------------

def measurement_disturbance(state: BipartitePureState, basis_a) -> float:
    """Total trace distance between the state and its post-measurement states
    under the nonselective binary measurements ``{P_x (x) I, 1 - P_x (x) I}``."""
    dims = state.dims
    a = require_basis(basis_a, dims.da)
    psi_outer = state.outer()
    projs = linalg.embed_local(linalg.projectors(a), dims.as_tuple())
    q = np.eye(dims.total) - projs
    after = projs @ psi_outer @ projs + q @ psi_outer @ q
    return float(linalg.hermitian_trace_norm(psi_outer - after).sum()) / 2.0


def marginal_disturbance(state: BipartitePureState, basis_a) -> float:
    """Same disturbance sum evaluated on the A marginal alone; never exceeds
    the composite-state disturbance (trace distance contracts under partial
    trace)."""
    dims = state.dims
    a = require_basis(basis_a, dims.da)
    rho_a = state.density().marginal("A")
    projs = linalg.projectors(a)
    q = np.eye(dims.da) - projs
    after = projs @ rho_a @ projs + q @ rho_a @ q
    return float(linalg.hermitian_trace_norm(rho_a - after).sum()) / 2.0


# ---------------------------------------------------------------------------
# trace-norm asymmetry lower bound
# ---------------------------------------------------------------------------

def _sign_patterns(d: int) -> np.ndarray:
    """Vertices of the eigenvalue hypercube with the first sign fixed and the
    trivial all-equal vertex dropped (its commutator vanishes), one per row."""
    tails = list(itertools.product((1.0, -1.0), repeat=d - 1))[1:]
    return np.array([(1.0,) + tail for tail in tails])


def _pattern_dim(dims: BipartiteDims, side: str) -> int:
    """Dimension of the searched side; ``BadSpec`` above ``PATTERN_CAP``."""
    d = dims.da if side == "A" else dims.db
    if d > PATTERN_CAP:
        raise BadSpec(
            f"side {side} dimension {d} above the sign-pattern cap {PATTERN_CAP} "
            f"({2 ** (d - 1) - 1} patterns per evaluation)"
        )
    return d


def _pattern_sup(rho_mat: np.ndarray, dims, basis: np.ndarray, side: str) -> float:
    """Exact supremum over unit-operator-norm Hermitian generators with the
    given eigenbasis: the objective is convex on the eigenvalue hypercube, so
    the supremum sits at a sign-pattern vertex. Every vertex is evaluated in
    one stack."""
    x_ops = (basis * _sign_patterns(basis.shape[0])[:, None, :]) @ linalg.dagger(basis)
    full = linalg.embed_local(x_ops, dims, side)
    return float(linalg.commutator_trace_norm(full, rho_mat).max()) / 2.0


def asymmetry_lower_bound(rho: DensityOperator, side: str = "A",
                          config: OptimizerConfig | None = None):
    """Extremal trace-norm asymmetry of the state relative to local Hermitian
    generators: inner supremum exact by sign-pattern enumeration, outer
    infimum over local bases by seeded multistart search, warm started at the
    marginal eigenbasis as ``np.linalg.eigh`` returns it.

    Returns ``(value, basis, diagnostics)``.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    config = config or OptimizerConfig(restarts=8, max_iters=600)
    dims = rho.dims.as_tuple()
    _pattern_dim(rho.dims, side)
    objective = lambda basis: _pattern_sup(rho.matrix, dims, basis, side)
    warm = np.linalg.eigh(rho.marginal(side))[1]
    basis, value, diag = minimize_over_bases(objective, warm, config)
    return value, basis, diag


def certified_lower(rho: DensityOperator) -> float:
    """Certified floor of the convex roof,
    ``max(0, (||rho^{T_A}||_1 - 1) / sqrt(m (m - 1)))`` with
    ``m = min(dA, dB)``, from one ``eigvalsh`` of the partial transpose.

    For a pure state ``sum_j sqrt(lam_j (1 - lam_j)) >= sqrt(1 - Tr rho_A^2)``,
    which is the concurrence over ``sqrt(2)``; the concurrence of a mixed
    state is at least ``sqrt(2 / (m (m - 1)))`` times its negativity
    ``||rho^{T_A}||_1 - 1`` (Chen, Albeverio & Fei, PRL 95, 040504 (2005)),
    and both sides are convex roofs."""
    da, db = rho.dims.as_tuple()
    pt = rho.matrix.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, -1)
    m = min(da, db)
    return max(0.0, (linalg.hermitian_trace_norm(pt) - 1.0) / np.sqrt(m * (m - 1)))


@dataclass(frozen=True)
class BoundsReport:
    """The asymmetry values ``lower``/``lower_swapped`` are reported but are
    no floor of the convex roof; ``certified_lower`` is."""

    lower: float
    upper: float
    lower_swapped: float
    upper_swapped: float
    certified_lower: float

    @property
    def best_lower(self) -> float:
        return max(self.lower, self.lower_swapped)

    @property
    def best_upper(self) -> float:
        return min(self.upper, self.upper_swapped)


def bounds_report(rho: DensityOperator, config: OptimizerConfig | None = None) -> BoundsReport:
    """Both-sided lower (extremal asymmetry) and upper (marginal nonreality
    entropy) bounds, the tighter pair being the max/min across the two sides,
    and the certified floor of the convex roof."""
    for side in ("A", "B"):
        _pattern_dim(rho.dims, side)
    lower, _, _ = asymmetry_lower_bound(rho, "A", config)
    lower_b, _, _ = asymmetry_lower_bound(rho, "B", config)
    upper = nonreality_entropy(rho.marginal("A"))
    upper_b = nonreality_entropy(rho.marginal("B"))
    report = BoundsReport(lower, upper, lower_b, upper_b, certified_lower(rho))
    if report.best_lower > report.best_upper + 1e-6:
        raise OptimizerFailed(
            f"lower bound {report.best_lower!r} exceeds upper bound "
            f"{report.best_upper!r} beyond slack"
        )
    # for a pure state the side-A upper bound is the closed form
    if rho.purity() >= 1.0 - 1e-10:
        if report.best_lower > upper + 1e-6 or upper > report.best_upper + 1e-6:
            raise OptimizerFailed(
                f"pure-state value {upper!r} escapes bounds "
                f"[{report.best_lower!r}, {report.best_upper!r}]"
            )
    return report


# ---------------------------------------------------------------------------
# numeric outer minimization and the convex roof
# ---------------------------------------------------------------------------

def minimized_nonreality(rho: DensityOperator, config: OptimizerConfig | None = None,
                         side: str = "A"):
    """Numerically minimize the analytic per-basis nonreality supremum over
    local bases. For pure states this reproduces the closed form, which the
    warm start attains: the marginal eigenbasis as ``np.linalg.eigh`` returns
    it (no column phase or order changes a projector).

    Returns ``(value, basis, diagnostics)``.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    config = config or OptimizerConfig(restarts=4, max_iters=400)
    dims = rho.dims.as_tuple()
    objective = lambda basis: _max_nonreality_mat(rho.matrix, dims, basis, side)
    warm = np.linalg.eigh(rho.marginal(side))[1]
    basis, value, diag = minimize_over_bases(objective, warm, config)
    return value, basis, diag


def _marginal_entropy_functional(dims: BipartiteDims):
    """Weighted pure-state value of a ``(k, N)`` stack of unnormalized rows,
    ``(k,)`` out: ``|psi|^2 E(psi / |psi|)`` for each row ``psi``, exactly 0
    for a zero row. The value is homogeneous of degree 2, so a convex-roof
    objective is the plain sum over the rows ``sqrt(p_k) psi_k``.

    With a 2-dimensional side the value is ``2 sqrt(D)``, where
    ``D = det(rho_2)`` of the unnormalized marginal; for a unit vector
    ``D = lam (1 - lam)`` with ``lam`` the smaller marginal eigenvalue.
    Cauchy-Binet gives ``D`` as the sum of the squared moduli of the 2x2
    minors of the amplitude matrix, so nothing cancels; each minor is summed
    twice, once from each side of the antisymmetric matrix
    ``r0 r1^T - r1 r0^T``, and halved. ``D`` is snapped to 0 below
    ``SNAP |psi|^4``, the eigenvalue snap rescaled. Larger marginals take the
    squared singular values ``w`` of the amplitude matrix from one stacked
    SVD, zero those below ``SNAP |psi|^2`` and sum
    ``sqrt(w_j (sum(w) - w_j))``, so a product row, left with one nonzero
    ``w``, gives exactly 0."""
    da, db = dims.da, dims.db

    def functional(rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=complex)
        norm2 = np.einsum("ij,ij->i", np.conj(rows), rows).real
        m = rows.reshape(-1, da, db)
        if db == 2:
            m = m.transpose(0, 2, 1)
        if m.shape[1] != 2:
            w = np.linalg.svd(m, compute_uv=False) ** 2
            w[w < SNAP * norm2[:, None]] = 0.0
            return np.sqrt(w * (w.sum(axis=-1, keepdims=True) - w)).sum(axis=-1)
        outer = m[:, 0, :, None] * m[:, 1, None, :]
        minors = np.ascontiguousarray(outer - outer.transpose(0, 2, 1))
        minors = minors.reshape(len(m), -1).view(float)
        det = 0.5 * (minors * minors).sum(axis=-1)
        return np.where(det < SNAP * norm2**2, 0.0, 2.0 * np.sqrt(det))

    return functional


def roof_normalization(dims: BipartiteDims) -> float:
    """Normalization constant ``sqrt(d_min - 1)`` for the convex-roof value."""
    return float(np.sqrt(min(dims.da, dims.db) - 1))


def mixed_entanglement(rho: DensityOperator, config: OptimizerConfig | None = None,
                       terms: int | None = None) -> ConvexRoofResult:
    """Convex-roof extension of the pure-state value to a mixed state.

    The roof objective sums ``_marginal_entropy_functional`` over the
    unnormalized decomposition rows. The search result is rejected
    (``OptimizerFailed``) if it exceeds the marginal nonreality entropy of
    either side, or falls below ``certified_lower``, beyond
    ``max(config.tol, 1e-6)`` slack. A correct decomposition average can do
    neither: the eigendecomposition start already sits at or below that
    concave envelope, and no decomposition goes below the certified floor.

    The extremal-asymmetry quantity is *not* enforced as a floor here: it can
    sit strictly above the convex roof (e.g. separable states with no locally
    commuting basis), so it is reported by ``bounds_report`` but not used to
    reject results.
    """
    config = config or OptimizerConfig()
    roof = minimize_convex_roof(
        rho, _marginal_entropy_functional(rho.dims), config, terms
    )
    upper = min(
        nonreality_entropy(rho.marginal("A")),
        nonreality_entropy(rho.marginal("B")),
    )
    slack = max(config.tol, 1e-6)
    if roof.value > upper + slack:
        raise OptimizerFailed(
            f"convex-roof value {roof.value!r} exceeds the marginal-entropy "
            f"bound {upper!r} beyond slack {slack:g}"
        )
    floor = certified_lower(rho)
    if roof.value < floor - slack:
        raise OptimizerFailed(
            f"convex-roof value {roof.value!r} is below the certified floor "
            f"{floor!r} beyond slack {slack:g}"
        )
    return roof


def wootters_concurrence(rho) -> float:
    """Two-qubit mixed-state concurrence via the spin-flip spectrum."""
    m = as_state_matrix(rho)
    if m.shape != (4, 4):
        raise DimensionMismatch(f"two-qubit matrix required, got {m.shape}")
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    flip = np.kron(sy, sy)
    ev = np.linalg.eigvals(m @ flip @ np.conj(m) @ flip)
    roots = np.sqrt(np.clip(np.sort(ev.real)[::-1], 0.0, None))
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))
