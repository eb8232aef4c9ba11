"""Self-contained verification suites behind the ``verify`` CLI command.

Each suite checks one analytic statement against an independent route
(direct enumeration, probability formulas, a known two-qubit oracle, or
finite-sample statistics) and returns only what it measured: ``(passed,
max_dev, detail)``, ``max_dev`` the largest observed deviation. ``run_suite``
is the one way into a suite; it names, sizes and times every suite.
Default sizes match the package acceptance battery.
"""

import inspect
import time
from dataclasses import dataclass, replace

import numpy as np

from . import kd, linalg, weakvalue
from .entanglement import (
    ROOF_SEARCH,
    asymmetry_lower_bound,
    marginal_disturbance,
    measurement_disturbance,
    minimized_nonreality,
    mixed_entanglement,
    nonreality_entropy,
    pure_entanglement,
    roof_normalization,
    wootters_concurrence,
)
from .optimize import OptimizerConfig
from .states import (
    BipartiteDims,
    BipartitePureState,
    DensityOperator,
    bell_state,
    haar_pure,
    haar_unitary,
    random_mixed,
    werner_state,
)

DEFAULT_DIMS = (BipartiteDims(2, 2), BipartiteDims(2, 3), BipartiteDims(3, 3))


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_dev: float
    detail: str
    seconds: float


def _dims_list(dims: BipartiteDims | None) -> list[BipartiteDims]:
    return list(DEFAULT_DIMS) if dims is None else [dims]


def suite_lemma1(seed: int = 0, count: int = 50) -> tuple[bool, float, str]:
    """Trace norm as the largest basis sum of absolute diagonal elements,
    attained at the eigenbasis of a normal operator."""
    rng = np.random.default_rng([seed, 31])
    eig_dev = 0.0
    excess = 0.0
    for k in range(count):
        dim = int(rng.integers(2, 7))
        u = haar_unitary(dim, rng)
        d = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        op = (u * d) @ linalg.dagger(u)
        tn = linalg.trace_norm(op)
        eig_sum = float(np.abs(np.einsum("iy,ij,jy->y", np.conj(u), op, u)).sum())
        eig_dev = max(eig_dev, abs(eig_sum - tn))
        for _ in range(200 // count + 1):
            v = haar_unitary(dim, rng)
            s = float(np.abs(np.einsum("iy,ij,jy->y", np.conj(v), op, v)).sum())
            excess = max(excess, s - tn)
    passed = eig_dev <= 1e-10 and excess <= 1e-9
    return (passed, max(eig_dev, excess),
            f"eigenbasis dev {eig_dev:.3e}, random-basis excess {excess:.3e}")


def suite_prop1(seed: int = 0, count: int = 50, dims=None) -> tuple[bool, float, str]:
    """Per-basis supremum route equals the probability route on pure states,
    random second bases never beat it, and the commutator eigenbasis attains it."""
    rng = np.random.default_rng([seed, 32])
    dims_list = _dims_list(dims)
    dev = 0.0
    excess = 0.0
    attain_dev = 0.0
    bound_dev = 0.0
    for k in range(count):
        d = dims_list[k % len(dims_list)]
        state = haar_pure(d, rng)
        rho = state.density()
        basis_a = haar_unitary(d.da, rng)
        analytic = kd.max_nonreality(rho, basis_a)
        probs = np.einsum(
            "ix,ij,jx->x", np.conj(basis_a), rho.marginal("A"), basis_a
        ).real
        prob_route = float(np.sqrt(np.clip(probs - probs**2, 0.0, None)).sum())
        dev = max(dev, abs(analytic - prob_route))
        report = pure_entanglement(state)
        if report.schmidt_rank >= 2:
            bound_dev = max(
                bound_dev, report.value - np.sqrt(report.schmidt_rank - 1)
            )
        for _ in range(4):
            basis_y = haar_unitary(d.total, rng)
            dist = kd.kd_marginal(rho, basis_a, basis_y)
            excess = max(excess, kd.nonreality(dist) - analytic)
        attained = 0.0
        projs = linalg.embed_local(linalg.projectors(basis_a), d.as_tuple())
        for x, basis_y in enumerate(kd.optimal_second_basis(rho.matrix, projs)):
            dist = kd.kd_marginal(rho, basis_a, basis_y)
            attained += float(np.abs(dist.values.imag[x]).sum())
        attain_dev = max(attain_dev, abs(attained - analytic))
    passed = dev <= 1e-9 and excess <= 1e-9 and attain_dev <= 1e-6 and bound_dev <= 1e-9
    return (passed, max(dev, excess, attain_dev, bound_dev),
            f"route dev {dev:.3e}, random excess {excess:.3e}, "
            f"attainment dev {attain_dev:.3e}")


def suite_prop2(seed: int = 0, count: int = 100, dims=None) -> tuple[bool, float, str]:
    """Numeric basis minimization lands on the closed form for pure states."""
    dims_list = _dims_list(dims)
    config = OptimizerConfig(restarts=2, max_iters=300, seed=seed)
    dev = 0.0
    for d in dims_list:
        rng = np.random.default_rng([seed, 33, d.da, d.db])
        for _ in range(count):
            state = haar_pure(d, rng)
            closed = nonreality_entropy(state.density().marginal("A"))
            numeric, _, _ = minimized_nonreality(state.density(), config)
            dev = max(dev, abs(numeric - closed))
    return (dev <= 1e-4, dev,
            f"max |numeric - closed| = {dev:.3e} over "
            f"{count * len(dims_list)} states")


def suite_prop3(seed: int = 0, count: int = 30, dims=None) -> tuple[bool, float, str]:
    """Extremal-asymmetry lower bound never exceeds the pure-state value and
    is tight at maximal entanglement."""
    rng = np.random.default_rng([seed, 34])
    dims_list = _dims_list(dims)
    config = OptimizerConfig(restarts=6, max_iters=500, seed=seed)
    gap = 0.0
    for k in range(count):
        d = dims_list[k % len(dims_list)]
        state = haar_pure(d, rng)
        value = pure_entanglement(state).value
        lower, _, _ = asymmetry_lower_bound(state.density(), "A", config)
        gap = max(gap, lower - value)
    bell = bell_state()
    lower_bell, _, _ = asymmetry_lower_bound(bell.density(), "A", config)
    tight_dev = abs(lower_bell - 1.0)
    passed = gap <= 1e-6 and tight_dev <= 1e-6
    return (passed, max(gap, tight_dev),
            f"max (lower - value) = {gap:.3e}, "
            f"maximal-state tightness dev {tight_dev:.3e}")


def suite_prop4(seed: int = 0, count: int = 50, dims=None) -> tuple[bool, float, str]:
    """Disturbance route equals the analytic supremum route; the subsystem
    disturbance never exceeds it."""
    rng = np.random.default_rng([seed, 35])
    dims_list = _dims_list(dims)
    dev = 0.0
    excess = 0.0
    for k in range(count):
        d = dims_list[k % len(dims_list)]
        state = haar_pure(d, rng)
        basis_a = haar_unitary(d.da, rng)
        disturb = measurement_disturbance(state, basis_a)
        analytic = kd.max_nonreality(state.density(), basis_a)
        dev = max(dev, abs(disturb - analytic))
        excess = max(excess, marginal_disturbance(state, basis_a) - disturb)
    passed = dev <= 1e-9 and excess <= 1e-9
    return (passed, max(dev, excess),
            f"identity dev {dev:.3e}, subsystem excess {excess:.3e}")


def suite_prop5(seed: int = 0, count: int = 100) -> tuple[bool, float, str]:
    """Convex-roof value sits inside the strengthened lower/upper sandwich on
    random rank-2 mixed states."""
    families = [BipartiteDims(2, 2), BipartiteDims(2, 3)]
    config = OptimizerConfig(restarts=8, max_iters=800, seed=seed)
    bound_config = OptimizerConfig(restarts=6, max_iters=400, seed=seed)
    low_gap = 0.0
    high_gap = 0.0
    for k in range(count):
        d = families[k % len(families)]
        rho = random_mixed(d, 2, np.random.default_rng([seed, 36, k]))
        roof = mixed_entanglement(rho, config)
        lower_a, _, _ = asymmetry_lower_bound(rho, "A", bound_config)
        lower_b, _, _ = asymmetry_lower_bound(rho, "B", bound_config)
        upper_a = nonreality_entropy(rho.marginal("A"))
        upper_b = nonreality_entropy(rho.marginal("B"))
        low_gap = max(low_gap, max(lower_a, lower_b) - roof.value)
        high_gap = max(high_gap, roof.value - min(upper_a, upper_b))
    passed = low_gap <= 1e-6 and high_gap <= 1e-6
    return (passed, max(low_gap, high_gap),
            f"lower violation {low_gap:.3e}, upper violation "
            f"{high_gap:.3e} over {count} states")


def suite_concurrence(seed: int = 0, count: int = 100) -> tuple[bool, float, str]:
    """Two-qubit equalities: normalized value = concurrence = 2 sqrt(l1 l2),
    with ``l1, l2`` the eigenvalues of the A marginal."""
    rng = np.random.default_rng([seed, 37])
    d = BipartiteDims(2, 2)
    dev = 0.0
    for _ in range(count):
        state = haar_pure(d, rng)
        report = pure_entanglement(state)
        lam = np.linalg.eigvalsh(state.density().marginal("A"))
        lam = np.clip(lam, 0.0, 1.0)
        direct = 2.0 * np.sqrt(lam[0] * lam[1])
        dev = max(dev, abs(report.normalized - direct))
        dev = max(dev, abs(report.concurrence - direct))
    return (dev <= 1e-9, dev,
            f"max two-qubit equality dev {dev:.3e}")


def suite_roof(seed: int = 0) -> tuple[bool, float, str]:
    """Normalized convex roof matches the two-qubit spin-flip oracle on the
    isotropic mixture family."""
    p_values = (0.2, 0.4, 0.5, 0.6, 0.8, 1.0)
    config = replace(ROOF_SEARCH, seed=seed)
    dev = 0.0
    for p in p_values:
        rho = werner_state(p)
        roof = mixed_entanglement(rho, config, terms=4)
        oracle = wootters_concurrence(rho)
        dev = max(dev, abs(roof.value / roof_normalization(rho.dims) - oracle))
    return (dev <= 2e-3, dev,
            f"max |roof - oracle| = {dev:.3e} over p in {p_values}")


def suite_weak(seed: int = 0) -> tuple[bool, float, str]:
    """Sampled pipeline lands within the binomial band of the closed form and
    the cell-estimator RMSE scales as c / sqrt(shots) with c <= 4."""
    d = BipartiteDims(2, 2)
    lam_state = BipartitePureState(
        d, np.array([np.sqrt(3) / 2, 0, 0, 0.5], dtype=complex)
    )
    cases = [
        ("bell", bell_state(), 1.0),
        ("product", BipartitePureState(d, np.eye(4, dtype=complex)[:, 0]), 0.0),
        ("lam", lam_state, np.sqrt(3) / 2),
    ]
    shots = 10**6
    rmse_seeds = 100
    band = 5.0 * 4 / np.sqrt(shots)
    config = replace(weakvalue.SAMPLED_SEARCH, seed=seed)
    dev = 0.0
    for name, state, reference in cases:
        value, _, _ = weakvalue.sampled_entanglement(state, shots, config)
        dev = max(dev, abs(value - reference))
    # RMSE scaling of the single-cell estimator on a nonreal cell
    psi = np.array([1.0, 1j], dtype=complex) / np.sqrt(2)
    rho_cell = np.kron(np.outer(psi, psi.conj()), np.diag([1.0, 0.0])).astype(complex)
    rho_cell = DensityOperator(d, rho_cell)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    basis_a = np.eye(2, dtype=complex)
    basis_y = linalg.embed_local(h[None], (2, 2))[0]
    exact = kd.kd_marginal(rho_cell, basis_a, basis_y).values.imag[0, 0]
    c_fit = 0.0
    for n in (10**3, 10**4, 10**5):
        sq = 0.0
        for s in range(rmse_seeds):
            est = weakvalue.estimate_kd_imag(
                rho_cell, basis_a, basis_y, 0, 0, n, seed * 10007 + s
            )
            sq += (est.value.imag - exact) ** 2
        c_fit = max(c_fit, np.sqrt(sq / rmse_seeds) * np.sqrt(n))
    passed = dev <= band and c_fit <= 4.0
    return (passed, dev,
            f"max |estimate - closed| = {dev:.3e} (band {band:.3e}), "
            f"RMSE coefficient {c_fit:.3f} (cap 4)")


SUITES = {
    "lemma1": suite_lemma1,
    "prop1": suite_prop1,
    "prop2": suite_prop2,
    "prop3": suite_prop3,
    "prop4": suite_prop4,
    "prop5": suite_prop5,
    "concurrence": suite_concurrence,
    "roof": suite_roof,
    "weak": suite_weak,
}

# the options each suite takes beside ``seed``, read from its signature
SUITE_OPTIONS = {
    name: {"count", "dims"} & set(inspect.signature(fn).parameters)
    for name, fn in SUITES.items()
}


def run_suite(name: str, seed: int = 0, dims=None, count: int | None = None) -> SuiteResult:
    given = {"dims": dims, "count": count}
    options = {k: given[k] for k in SUITE_OPTIONS[name] if given[k] is not None}
    t0 = time.time()
    passed, max_dev, detail = SUITES[name](seed=seed, **options)
    return SuiteResult(name, bool(passed), float(max_dev), detail, time.time() - t0)
