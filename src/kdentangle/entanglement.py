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
# Largest local dimension the asymmetry bound enumerates: one evaluation stacks
# 2**(d-1) - 1 sign patterns, 511 at the cap (~29 MB per stack at N = 60).
PATTERN_CAP = 10


def _entropy_from_eigenvalues(lam: np.ndarray) -> float:
    """``sum_j sqrt(lam_j (1 - lam_j))`` with boundary snapping: the square
    root amplifies boundary roundoff (eps -> sqrt(eps)), so eigenvalues within
    machine noise of 0 or 1 are treated as sitting on the boundary."""
    lam = np.clip(lam, 0.0, 1.0)
    snap = 1e-15
    lam[lam < snap] = 0.0
    lam[lam > 1.0 - snap] = 1.0
    return float(np.sqrt(lam * (1.0 - lam)).sum())


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
    return _entropy_from_eigenvalues(lam)


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
    value = _entropy_from_eigenvalues(lam.copy())
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
    infimum over local bases by seeded multistart search.

    Returns ``(value, basis, diagnostics)``.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    config = config or OptimizerConfig(restarts=8, max_iters=600)
    dims = rho.dims.as_tuple()
    d = _pattern_dim(rho.dims, side)
    objective = lambda basis: _pattern_sup(rho.matrix, dims, basis, side)
    warm = linalg.hermitian_eig(rho.marginal(side)).eigenvectors
    basis, value, diag = minimize_over_bases(objective, d, config, warm_starts=[warm])
    return value, basis, diag


@dataclass(frozen=True)
class BoundsReport:
    lower: float
    upper: float
    lower_swapped: float
    upper_swapped: float

    @property
    def best_lower(self) -> float:
        return max(self.lower, self.lower_swapped)

    @property
    def best_upper(self) -> float:
        return min(self.upper, self.upper_swapped)


def bounds_report(rho: DensityOperator, config: OptimizerConfig | None = None) -> BoundsReport:
    """Both-sided lower (extremal asymmetry) and upper (marginal nonreality
    entropy) bounds; the tighter pair is the max/min across the two sides."""
    for side in ("A", "B"):
        _pattern_dim(rho.dims, side)
    lower, _, _ = asymmetry_lower_bound(rho, "A", config)
    lower_b, _, _ = asymmetry_lower_bound(rho, "B", config)
    upper = nonreality_entropy(rho.marginal("A"))
    upper_b = nonreality_entropy(rho.marginal("B"))
    report = BoundsReport(lower, upper, lower_b, upper_b)
    if report.best_lower > report.best_upper + 1e-6:
        raise OptimizerFailed(
            f"lower bound {report.best_lower!r} exceeds upper bound "
            f"{report.best_upper!r} beyond slack"
        )
    if rho.purity() >= 1.0 - 1e-10:
        closed = nonreality_entropy(rho.marginal("A"))
        if report.best_lower > closed + 1e-6 or closed > report.best_upper + 1e-6:
            raise OptimizerFailed(
                f"pure-state value {closed!r} escapes bounds "
                f"[{report.best_lower!r}, {report.best_upper!r}]"
            )
    return report


# ---------------------------------------------------------------------------
# numeric outer minimization and the convex roof
# ---------------------------------------------------------------------------

def minimized_nonreality(rho: DensityOperator, config: OptimizerConfig | None = None,
                         side: str = "A"):
    """Numerically minimize the analytic per-basis nonreality supremum over
    local bases. For pure states this reproduces the closed form; the marginal
    eigenbasis is always included as a warm start.

    Returns ``(value, basis, diagnostics)``.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    config = config or OptimizerConfig(restarts=4, max_iters=400)
    dims = rho.dims.as_tuple()
    d = dims[0] if side == "A" else dims[1]
    objective = lambda basis: _max_nonreality_mat(rho.matrix, dims, basis, side)
    warm = linalg.hermitian_eig(rho.marginal(side)).eigenvectors
    basis, value, diag = minimize_over_bases(objective, d, config, warm_starts=[warm])
    return value, basis, diag


def _marginal_entropy_functional(dims: BipartiteDims):
    da, db = dims.da, dims.db

    def functional(amps: np.ndarray) -> float:
        m = amps.reshape(da, db)
        return _entropy_from_eigenvalues(np.linalg.eigvalsh(m @ np.conj(m).T))

    return functional


def roof_normalization(dims: BipartiteDims) -> float:
    """Normalization constant ``sqrt(d_min - 1)`` for the convex-roof value."""
    return float(np.sqrt(min(dims.da, dims.db) - 1))


def mixed_entanglement(rho: DensityOperator, config: OptimizerConfig | None = None,
                       terms: int | None = None) -> ConvexRoofResult:
    """Convex-roof extension of the pure-state value to a mixed state.

    The search result is rejected (``OptimizerFailed``) if it exceeds the
    marginal nonreality entropy of either side beyond ``max(config.tol, 1e-6)``
    slack; a correct decomposition average can never do that, since the
    eigendecomposition start already sits at or below that concave envelope.

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
