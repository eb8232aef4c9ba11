"""Search over orthonormal bases and over pure-state decomposition isometries.

One seeded multistart driver of derivative-free simplex descent serves both
searches. It runs over an angle parametrization of the unitary group:
``n(n-1)/2`` two-index rotations (rotation angle plus relative phase each)
followed by ``n`` diagonal phases, ``n^2`` real parameters in total. Zero
angles materialize the identity. The convex roof searches the ``n(n-1)``
rotation angles alone: a phase on a decomposition vector changes no term.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from . import linalg
from .errors import BadParamCount, BadSpec, OptimizerFailed
from .states import BipartitePureState, DensityOperator

RANK_TOL = 1e-12
TERM_WEIGHT_FLOOR = 1e-12
ROOF_CAP = 16
SIMPLEX_SCALE = 0.3


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_iters: int = 2000
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise BadSpec(f"restarts must be >= 1, got {self.restarts}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise BadSpec(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class SearchDiagnostics:
    restarts: int
    best_start: str
    iterations: int
    converged: bool


def angle_count(dim: int) -> int:
    return dim * dim


def unitary_from_angles(angles, dim: int) -> np.ndarray:
    """Materialize the angle vector as a unitary matrix."""
    a = np.asarray(angles, dtype=float).reshape(-1)
    if a.size != angle_count(dim):
        raise BadParamCount(
            f"expected {angle_count(dim)} angles for dim {dim}, got {a.size}"
        )
    u = np.eye(dim, dtype=complex)
    k = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            th, ph = a[2 * k], a[2 * k + 1]
            c, s = np.cos(th), np.sin(th) * np.exp(1j * ph)
            gi, gj = u[i, :].copy(), u[j, :].copy()
            u[i, :] = c * gi - np.conj(s) * gj
            u[j, :] = s * gi + c * gj
            k += 1
    u *= np.exp(1j * a[2 * k:])[:, None]
    return u


def _multistart(starts, config: OptimizerConfig):
    """Seeded multistart simplex descent.

    ``starts`` is an ordered list of ``(label, objective, x0)``. The seeded
    uniform restarts ``restart{i}``, drawn from ``[config.seed, i]``, follow
    it and use the first start's objective. Each start point competes with its
    own descent result, so the value never exceeds the objective at any start
    point. Ties in the best value break toward the lexicographically smallest
    angle vector. Returns ``(angles, value, diagnostics)``; the winning start
    is ``diagnostics.best_start``.
    """
    _, first_objective, first_x0 = starts[0]
    starts = list(starts)
    for i in range(config.restarts):
        rng = np.random.default_rng([config.seed, i])
        starts.append(
            (f"restart{i}", first_objective, rng.uniform(-np.pi, np.pi, first_x0.size))
        )
    best = None
    iterations = 0
    converged = False
    for label, objective, x0 in starts:
        simplex = np.tile(x0, (x0.size + 1, 1))
        simplex[1:, :] += np.eye(x0.size) * SIMPLEX_SCALE
        res = _scipy_minimize(
            objective, x0, method="Nelder-Mead",
            options=dict(maxiter=config.max_iters, xatol=1e-7, fatol=1e-9,
                         adaptive=True, initial_simplex=simplex),
        )
        iterations += int(res.nit)
        converged = converged or bool(res.success)
        for val, vec in ((float(res.fun), np.asarray(res.x)), (float(objective(x0)), x0)):
            key = (val, tuple(vec))
            if best is None or key < best[0]:
                best = (key, vec, label)
    (best_val, _), best_x, best_label = best
    return best_x, best_val, SearchDiagnostics(config.restarts, best_label, iterations, converged)


def minimize_over_bases(objective, dim: int, config: OptimizerConfig | None = None,
                        warm_starts=()):
    """Minimize ``objective(basis)`` over orthonormal bases of dimension ``dim``.

    ``warm_starts`` are unitary matrices used as additional start points; each
    start searches angles relative to its own reference unitary, so zero angles
    reproduce the warm start exactly. Returns ``(basis, value, diagnostics)``.

    The result never exceeds the objective at the identity basis or at any
    start point, and is bit-reproducible for a fixed config.
    """
    config = config or OptimizerConfig()
    refs = {"identity": np.eye(dim, dtype=complex)}
    for w_idx, w in enumerate(warm_starts):
        refs[f"warm{w_idx}"] = np.asarray(w, dtype=complex)
    starts = [
        (label,
         lambda a, ref=ref: objective(ref @ unitary_from_angles(a, dim)),
         np.zeros(angle_count(dim)))
        for label, ref in refs.items()
    ]
    best_x, best_val, diag = _multistart(starts, config)
    # the seeded restarts search relative to the identity
    ref = refs.get(diag.best_start, refs["identity"])
    return ref @ unitary_from_angles(best_x, dim), best_val, diag


@dataclass(frozen=True)
class ConvexRoofResult:
    """Minimal decomposition average found, with the achieving decomposition
    and the decomposition size searched."""

    value: float
    probabilities: np.ndarray
    pure_states: list
    diagnostics: SearchDiagnostics
    terms: int


def _decomposition(angles, weighted_vecs, terms: int, rank: int):
    """Decomposition vectors ``psi_tilde[:, k] = sum_j W[k, j] sqrt(q_j) e_j``
    for the isometry given by the first ``rank`` columns of the angle unitary.

    ``angles`` holds the ``terms * (terms - 1)`` rotation angles; the
    ``terms`` diagonal phases are zero, since a phase on a decomposition
    vector changes no term of the average."""
    full = np.concatenate([angles, np.zeros(terms)])
    w = unitary_from_angles(full, terms)[:, :rank]
    return weighted_vecs @ w.T


def minimize_convex_roof(rho: DensityOperator, pure_functional,
                         config: OptimizerConfig | None = None,
                         terms: int | None = None) -> ConvexRoofResult:
    """Minimize the decomposition average of a pure-state functional.

    ``pure_functional`` maps a ``(k, N)`` stack of unit-norm amplitude vectors
    to their ``(k,)`` real values; each evaluation makes one call with every
    term above ``TERM_WEIGHT_FLOOR``. Decompositions of size ``terms`` are
    parametrized through isometries applied to the square-root eigenvectors,
    which reaches every decomposition of that size. Zero angles reproduce the
    eigendecomposition, so the result never exceeds its average.

    The default size is ``min(2 * rank, ROOF_CAP)``: the simplex search runs
    over the ``terms * (terms - 1)`` rotation angles, which stops converging
    within the iteration budget well before the ``rank**2`` purification bound
    is reached, so larger decompositions must be requested explicitly, up to
    ``ROOF_CAP``.
    """
    config = config or OptimizerConfig()
    q, evecs = np.linalg.eigh(rho.matrix)
    keep = q > RANK_TOL
    q, evecs = q[keep], evecs[:, keep]
    rank = int(q.size)
    k_terms = int(terms) if terms is not None else min(2 * rank, ROOF_CAP)
    if k_terms < rank:
        raise BadSpec(f"terms {k_terms} below state rank {rank}")
    if k_terms > ROOF_CAP:
        raise BadSpec(f"terms {k_terms} above the cap {ROOF_CAP}")
    weighted = evecs * np.sqrt(q)[None, :]

    def objective(angles):
        psi = _decomposition(angles, weighted, k_terms, rank)
        p = np.einsum("ik,ik->k", psi.conj(), psi).real
        kept = p >= TERM_WEIGHT_FLOOR
        p = p[kept]
        return float(p @ pure_functional(psi[:, kept].T / np.sqrt(p)[:, None]))

    best_x, best_val, diag = _multistart(
        [("identity", objective, np.zeros(k_terms * (k_terms - 1)))], config
    )

    psi = _decomposition(best_x, weighted, k_terms, rank)
    probs, pure_states = [], []
    dims = rho.dims
    reassembled = np.zeros_like(rho.matrix)
    for k in range(k_terms):
        col = psi[:, k]
        p = float(np.vdot(col, col).real)
        reassembled = reassembled + np.outer(col, np.conj(col))
        if p < TERM_WEIGHT_FLOOR:
            continue
        probs.append(p)
        pure_states.append(BipartitePureState(dims, col / np.linalg.norm(col)))
    probs = np.asarray(probs)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise OptimizerFailed(f"decomposition weights sum to {probs.sum()!r}")
    if linalg.trace_norm(reassembled - rho.matrix) > 1e-8:
        raise OptimizerFailed("decomposition does not reassemble the input state")
    return ConvexRoofResult(best_val, probs, pure_states, diag, k_terms)
