"""Search over orthonormal bases and over pure-state decomposition isometries.

One seeded multistart driver of derivative-free simplex descent serves both
searches. It runs over an angle parametrization of unitaries up to column
phases: one two-index rotation (rotation angle plus relative phase) per index
pair, ``n(n-1)`` real parameters in total. There are no diagonal phases: a
phase on a basis vector changes no projector, and a phase on a decomposition
vector changes no term. The rotations are grouped into rounds of disjoint
pairs, each round one matrix. Zero angles materialize the identity.

The convex-roof objective is the plain sum of a weighted pure-state
functional over the unnormalized decomposition rows ``sqrt(p_k) psi_k``, so it
needs no weights, normalization or mask. A state of rank 1 has only one
decomposition and is not searched.
"""

import functools
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
    return dim * (dim - 1)


@functools.cache
def _rotation_plan(dim: int):
    """Rounds of disjoint index pairs covering every pair once (circle method:
    ``dim - 1`` rounds for even ``dim``, ``dim`` for odd), with the read-only
    identity-filled ``(rounds, dim, dim)`` base and the flat indices of each
    pair's ``c, c, -conj(s), s`` entries. Angle pairs follow the round order."""
    n = dim + dim % 2
    rounds = []
    for r in range(n - 1):
        pairs = [(r, n - 1)] + [((r + k) % (n - 1), (r - k) % (n - 1))
                                for k in range(1, n // 2)]
        rounds.append([(min(p), max(p)) for p in pairs if max(p) < dim])
    base = np.tile(np.eye(dim, dtype=complex), (len(rounds), 1, 1))
    r, i, j = np.array([(k, i, j) for k, pairs in enumerate(rounds) for i, j in pairs]).T
    flat = np.concatenate([np.ravel_multi_index(entry, base.shape)
                           for entry in ((r, i, i), (r, j, j), (r, i, j), (r, j, i))])
    base.setflags(write=False)
    flat.setflags(write=False)
    return rounds, base, flat


def unitary_from_angles(angles, dim: int) -> np.ndarray:
    """Materialize the angle vector as a unitary matrix: the product of the
    rounds of two-index rotations, the first round applied first."""
    a = np.asarray(angles, dtype=float).reshape(-1)
    if a.size != angle_count(dim):
        raise BadParamCount(
            f"expected {angle_count(dim)} angles for dim {dim}, got {a.size}"
        )
    _, base, flat = _rotation_plan(dim)
    c = np.cos(a[0::2])
    s = np.sin(a[0::2]) * np.exp(1j * a[1::2])
    g = base.copy()
    g.flat[flat] = np.concatenate([c, c, -np.conj(s), s])
    u = g[0]
    for rotation in g[1:]:
        u = rotation @ u
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


def minimize_over_bases(objective, warm, config: OptimizerConfig | None = None):
    """Minimize ``objective(basis)`` over orthonormal bases of the dimension
    of the unitary ``warm``.

    The starts are ``identity``, ``warm`` (angles relative to ``warm``, so
    zero angles reproduce it exactly), then the seeded restarts relative to
    the identity. Returns ``(basis, value, diagnostics)``.

    The result never exceeds the objective at the identity basis or at
    ``warm``, and is bit-reproducible for a fixed config and ``warm``.
    """
    config = config or OptimizerConfig()
    warm = np.asarray(warm, dtype=complex)
    dim = warm.shape[0]
    x0 = np.zeros(angle_count(dim))
    starts = [
        ("identity", lambda a: objective(unitary_from_angles(a, dim)), x0),
        ("warm", lambda a: objective(warm @ unitary_from_angles(a, dim)), x0),
    ]
    best_x, best_val, diag = _multistart(starts, config)
    u = unitary_from_angles(best_x, dim)
    return (warm @ u if diag.best_start == "warm" else u), best_val, diag


@dataclass(frozen=True)
class ConvexRoofResult:
    """Minimal decomposition average found, with the achieving decomposition
    and the decomposition size searched."""

    value: float
    probabilities: np.ndarray
    pure_states: list
    diagnostics: SearchDiagnostics
    terms: int


def minimize_convex_roof(rho: DensityOperator, weighted_functional,
                         config: OptimizerConfig | None = None,
                         terms: int | None = None) -> ConvexRoofResult:
    """Minimize the decomposition average of a pure-state functional.

    ``weighted_functional`` maps a ``(k, N)`` stack of unnormalized amplitude
    rows ``psi`` to their ``(k,)`` real values ``|psi|^2 E(psi / |psi|)``,
    with exactly 0 for a zero row. Written with the rows
    ``sqrt(p_k) psi_k``, the decomposition average ``sum_k p_k E(psi_k)`` is
    then the plain sum of one call's values, with no weights and no
    normalization. Decompositions of size ``terms`` are the rows of
    ``W @ rows``, where ``W`` is the first ``rank`` columns of an angle
    unitary and ``rows`` are the eigenvectors scaled by the square roots of
    their eigenvalues; this reaches every decomposition of that size. Zero
    angles reproduce the eigendecomposition, so the result never exceeds its
    average.

    A state of rank 1 has no other decomposition, so it is not searched: the
    value is the objective at zero angles, with 0 iterations, ``best_start``
    ``identity`` and ``converged`` true.

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
    rows = (evecs * np.sqrt(q)).T

    def objective(angles):
        return float(weighted_functional(
            unitary_from_angles(angles, k_terms)[:, :rank] @ rows).sum())

    x0 = np.zeros(angle_count(k_terms))
    if rank == 1:
        best_x, best_val = x0, objective(x0)
        diag = SearchDiagnostics(config.restarts, "identity", 0, True)
    else:
        best_x, best_val, diag = _multistart([("identity", objective, x0)], config)

    psi = unitary_from_angles(best_x, k_terms)[:, :rank] @ rows
    p = (psi.real**2 + psi.imag**2).sum(axis=1)
    kept = p >= TERM_WEIGHT_FLOOR
    probs = p[kept]
    pure_states = [BipartitePureState(rho.dims, row / np.linalg.norm(row))
                   for row in psi[kept]]
    if abs(probs.sum() - 1.0) > 1e-9:
        raise OptimizerFailed(f"decomposition weights sum to {probs.sum()!r}")
    if linalg.trace_norm(psi.T @ psi.conj() - rho.matrix) > 1e-8:
        raise OptimizerFailed("decomposition does not reassemble the input state")
    return ConvexRoofResult(best_val, probs, pure_states, diag, k_terms)
