"""Seeded multistart search over unitaries.

``_multistart`` minimizes a cost of a unitary from named reference starts and
seeded restarts. ``minimize_over_bases`` is the search over local bases; the
convex roof (``entanglement.mixed_entanglement``) hands the driver its own
cost of a decomposition unitary. Only the driver sees angles: it runs
derivative-free simplex descent over an angle parametrization of unitaries
up to column phases, one two-index rotation (rotation angle plus relative
phase) per index pair, ``n(n-1)`` real parameters in total. There are no
diagonal phases: a phase on a basis vector changes no projector, and a phase
on a decomposition vector changes no term. The rotations are grouped into
rounds of disjoint pairs, each round one matrix. Zero angles materialize the
identity, so a start begins at its reference.

The descent is an in-house adaptive Nelder-Mead written with numpy alone. It
reproduces scipy 1.17.1's ``minimize(method="Nelder-Mead", adaptive=True)``
iterate for iterate, so the package needs no scipy, and its import does not
pay for ``scipy.optimize``. Each descent remembers the values of its last
``2(n+1)`` evaluated points: once the simplex has collapsed, reflections and
shrinks land exactly on vertices it has already evaluated, and a sampled
objective would redraw the same records there. Costs must therefore be
deterministic functions of the unitary.
"""

import functools
import itertools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import BadParamCount, BadSpec

SIMPLEX_SCALE = 0.3
XATOL = 1e-7
FATOL = 1e-9
RESTART_CAP = 1024


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_iters: int = 2000
    seed: int = 0
    tol: ClassVar[float] = 1e-6  # fixed slack by which a result may pass an analytic bound

    def __post_init__(self):
        if not 1 <= self.restarts <= RESTART_CAP:
            raise BadSpec(f"restarts must be in [1, {RESTART_CAP}], got {self.restarts}")
        if self.seed < 0:
            raise BadSpec(f"seed must be >= 0, got {self.seed}")
        if self.max_iters < 1:
            raise BadSpec(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class SearchDiagnostics:
    """What one search did: ``restarts`` repeats ``config.restarts`` (kept
    while the benchmark's result digest reads it), ``best_start`` names the
    winning start and ``iterations`` sums the simplex iterations of all
    starts. ``converged`` means some start stopped on tolerance before the
    iteration cap, not that the optimum was found: a search whose answer is
    exact to roundoff can read ``False``."""

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
    r, i, j = np.array([(k, i, j) for k, pairs in enumerate(rounds) for i, j in pairs],
                       dtype=int).reshape(-1, 3).T
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
    theta = a[0::2]
    c, s = np.cos(theta), np.sin(theta) * np.exp(1j * a[1::2])
    g = base.copy()
    g.put(flat, np.concatenate((c, c, -s.conj(), s)))
    u = g[0]
    for rotation in g[1:]:  # .dot runs the zgemm of @ without the gufunc dispatch
        u = rotation.dot(u)
    return u


@dataclass(frozen=True)
class SimplexResult:
    """One simplex descent: the best vertex ``x`` and its value ``fun``, the
    iteration and evaluation counts, and whether the tolerances stopped it
    before the iteration cap."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


def _memoized(fun, size):
    """``fun`` behind a first-in, first-out memo of its values at the last
    ``size`` distinct points, keyed by the points' bytes. A point still held
    takes its stored value; a new point evicts the oldest one when the memo
    is full. Hits do not refresh a point's age."""
    memo = {}

    def evaluate(x):
        key = x.tobytes()
        if key not in memo:
            if len(memo) >= size:
                del memo[next(iter(memo))]
            memo[key] = fun(x)
        return memo[key]

    return evaluate


def _scipy_minimize(fun, x0, max_iters) -> SimplexResult:
    """Adaptive Nelder-Mead (Gao & Han, Comput. Optim. Appl. 51, 259 (2012))
    from ``x0`` and its ``SIMPLEX_SCALE`` steps along each axis.

    The steps are those of scipy 1.17.1's ``_minimize_neldermead`` with
    ``adaptive=True``, that initial simplex, ``maxiter=max_iters``,
    ``xatol=XATOL``, ``fatol=FATOL`` and no evaluation limit. Every arithmetic
    operation is scipy's, on the same operands in the same order, and the
    re-sorts are the same default ``argsort``, so tied vertices keep scipy's
    order; every iterate and the returned ``x``, ``fun``, ``nit``, ``nfev``
    and ``success`` equal scipy's bit for bit. The code itself differs: it
    calls ndarray methods rather than module-level wrappers, and tests the
    spread of the sorted values first, as ``fsim[-1] - fsim[0]``: rounding is
    monotone, so that is scipy's ``max|fsim[0] - fsim[1:]|``, and a nan
    (sorted last) or an inf fails both. As there, ``nit`` starts at 1
    and a run that reaches ``max_iters`` reports no success. ``fun`` must not
    modify its argument.

    Trial points are looked up by their bytes in a memo of the last
    ``2(n+1)`` evaluated points (``_memoized``), and ``fun`` runs only on
    a point not held there, so ``fun`` must be deterministic. ``nfev`` stays
    scipy's count of trial points, repeats included; the real calls of
    ``fun`` can be fewer. The memo holds at most ``2(n+1)`` keys of ``8n``
    bytes each, about 2 KB per key for a 16 x 16 unitary.

    The name is the hook that the benchmark tracer (``bench/tracer.py``) and
    the tests patch to see each start; it stays until a benchmark change
    renames it.
    """
    n = x0.size
    chi = 1 + 2 / n
    psi = 0.75 - 1 / (2 * n)
    sigma = 1 - 1 / n
    fun = _memoized(fun, 2 * (n + 1))
    sim = np.tile(x0, (n + 1, 1))
    sim[1:, :] += np.eye(n) * SIMPLEX_SCALE
    fsim = np.array([fun(x) for x in sim], dtype=float)
    nfev = n + 1
    for _ in range(2):  # scipy sorts the first simplex twice
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
    nit = 1
    while nit < max_iters:
        if (fsim[-1] - fsim[0] <= FATOL
                and abs(sim[1:] - sim[0]).max() <= XATOL):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = fun(xr)
        nfev += 1
        shrink = False
        if fxr < fsim[0]:
            xe = (1 + chi) * xbar - chi * sim[-1]
            fxe = fun(xe)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = (1 + psi) * xbar - psi * sim[-1]
            fxc = fun(xc)
            nfev += 1
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = (1 - psi) * xbar + psi * sim[-1]
            fxcc = fun(xcc)
            nfev += 1
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
            fsim[1:] = [fun(x) for x in sim[1:]]
            nfev += n
        nit += 1
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
    return SimplexResult(sim[0], float(fsim.min()), nit, nfev, nit < max_iters)


def _multistart(cost, dim: int, references, config: OptimizerConfig,
                floor: float = -np.inf):
    """Seeded multistart simplex descent of ``cost``, a float function of a
    ``dim x dim`` unitary. ``references`` maps each named start's label, in
    order, to its reference unitary (``None`` for the identity); the start
    descends from zero angles on ``cost(ref @ U(a))``. The restarts
    ``restart{i}``, drawn uniformly from ``[config.seed, i]`` when their
    descent begins, follow with no reference. Each start point competes with
    its descent result, so the value never exceeds the cost at any start
    point; ties break toward the lexicographically smallest angle vector.
    ``floor`` is a certified lower bound on the cost: when the first start
    point costs within ``config.tol`` of it, that point is the answer and no
    descent runs (0 iterations, converged). Each start point is scored once,
    before its descent, so the skip costs no evaluation.
    Returns ``(value, unitary, diagnostics)``, the unitary the one scored.
    """
    def rotated(ref, angles):
        u = unitary_from_angles(angles, dim)
        return u if ref is None else ref.dot(u)

    zero = np.zeros(angle_count(dim))
    restarts = (
        (f"restart{i}", None,
         np.random.default_rng([config.seed, i]).uniform(-np.pi, np.pi, zero.size))
        for i in range(config.restarts)
    )
    named = ((label, ref, zero) for label, ref in references.items())
    best = None
    iterations = 0
    converged = False
    for label, ref, x0 in itertools.chain(named, restarts):
        def objective(a, ref=ref):
            return cost(rotated(ref, a))
        start_value = float(objective(x0))
        if best is None and start_value <= floor + config.tol:
            return start_value, rotated(ref, x0), SearchDiagnostics(
                config.restarts, label, 0, True)
        res = _scipy_minimize(objective, x0, max_iters=config.max_iters)
        iterations += int(res.nit)
        converged = converged or bool(res.success)
        for val, vec in ((float(res.fun), np.asarray(res.x)), (start_value, x0)):
            key = (val, tuple(vec))
            if best is None or key < best[0]:
                best = (key, vec, label, ref)
    (value, _), angles, label, ref = best
    diag = SearchDiagnostics(config.restarts, label, iterations, converged)
    return value, rotated(ref, angles), diag


def minimize_over_bases(marginal, objective, config: OptimizerConfig):
    """Minimize ``objective(basis)`` over orthonormal bases of the subsystem
    whose density matrix is ``marginal``.

    The starts are ``identity``, ``warm`` (rotations of the eigenbasis of
    ``marginal`` as ``np.linalg.eigh`` returns it), then the seeded restarts.
    A warm basis equal to the identity bit for bit, as ``eigh`` returns for a
    maximally mixed marginal, would repeat the identity start's descent, so
    that search has no ``warm`` start; a tie goes to the earlier start, so
    the result is the same. Returns ``(value, basis, diagnostics)``.

    The result never exceeds the objective at the identity basis or at the
    warm basis, and is bit-reproducible for a fixed marginal, objective and
    config.
    """
    warm = np.linalg.eigh(marginal)[1]
    references = {"identity": None}
    if warm.tobytes() != np.eye(len(warm), dtype=warm.dtype).tobytes():
        references["warm"] = warm
    return _multistart(objective, len(warm), references, config)
