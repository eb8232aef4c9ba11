import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

import kdentangle as ke
from kdentangle import entanglement, kd, linalg, optimize, weakvalue
from kdentangle.entanglement import ROOF_CAP
from kdentangle.errors import BadParamCount, BadSpec
from kdentangle.optimize import angle_count
from kdentangle.states import as_density


def test_optimize_imports_only_errors_from_the_package():
    # the driver knows unitaries, not states: the roof and the bases bring
    # their own costs, so nothing of the package but its errors is imported
    tree = ast.parse(Path(optimize.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from . import x, or from .x import y
                imported.update([node.module] if node.module else
                                [alias.name for alias in node.names])
            elif node.module.split(".")[0] == "kdentangle":
                imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names
                            if alias.name.split(".")[0] == "kdentangle")
    assert imported == {"errors"}


def test_side_is_chosen_only_at_the_asymmetry_entry():
    # which subsystem a search runs on is decided once: a side-B search is the
    # side-A search of the swapped state, so no layer below takes a side
    allowed = {("entanglement", "asymmetry_lower_bound"), ("entanglement", "_pattern_dim")}
    found = set()
    for module in (linalg, kd, optimize, entanglement):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                         args.vararg, args.kwarg) if a is not None]
                if "side" in names:
                    found.add((module.__name__.rsplit(".", 1)[1],
                               getattr(node, "name", "<lambda>")))
    assert found == allowed


def test_materialize_identity():
    assert np.abs(ke.unitary_from_angles(np.zeros(angle_count(3)), 3) - np.eye(3)).max() < 1e-14


def test_materialize_single_rotation():
    angles = np.zeros(angle_count(2))
    angles[0] = np.pi / 2
    u = ke.unitary_from_angles(angles, 2)
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
    # the first column rotates fully onto the second axis
    assert abs(abs(u[1, 0]) - 1.0) < 1e-12


def test_materialize_random_unitary():
    rng = np.random.default_rng(60)
    for dim in (2, 3, 4):
        u = ke.unitary_from_angles(rng.uniform(-np.pi, np.pi, angle_count(dim)), dim)
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-10


def test_materialize_dimension_one():
    # one empty round of rotations: no angles, and the 1x1 identity
    assert np.array_equal(ke.unitary_from_angles(np.zeros(0), 1), [[1]])


def matmul_chain_unitary(angles, dim):
    """Reference: the rotation product with flat-index assignment and ``@``."""
    a = np.asarray(angles, dtype=float).reshape(-1)
    _, base, flat = optimize._rotation_plan(dim)
    c = np.cos(a[0::2])
    s = np.sin(a[0::2]) * np.exp(1j * a[1::2])
    g = base.copy()
    g.flat[flat] = np.concatenate([c, c, -np.conj(s), s])
    u = g[0]
    for rotation in g[1:]:
        u = rotation @ u
    return u


def test_rotation_product_equals_the_matmul_chain_bit_for_bit():
    rng = np.random.default_rng(64)
    for dim in range(1, 17):
        n = angle_count(dim)
        cases = [np.zeros(n), np.full(n, np.pi), np.full(n, -np.pi),
                 rng.choice([-np.pi, 0.0, np.pi], n)]
        cases += [rng.uniform(-np.pi, np.pi, n) for _ in range(20)]
        cases += [rng.uniform(-1e3, 1e3, n) for _ in range(20)]
        for angles in cases:
            ours = ke.unitary_from_angles(angles, dim)
            assert np.array_equal(ours.view(float), matmul_chain_unitary(angles, dim).view(float))


def test_param_count_validation():
    # the d**2 length of a parametrization with diagonal phases is rejected too
    for size, dim in ((8, 3), (9, 3), (5, 2), (4, 2)):
        with pytest.raises(BadParamCount):
            ke.unitary_from_angles(np.zeros(size), dim)


def test_rotation_plan_rounds():
    # every index pair is rotated in exactly one round, and the pairs of a
    # round are disjoint, so each round is one matrix
    for dim in range(2, 9):
        rounds, base, _ = optimize._rotation_plan(dim)
        assert len(rounds) == (dim - 1 if dim % 2 == 0 else dim)
        assert base.shape == (len(rounds), dim, dim)
        pairs = [pair for pairs in rounds for pair in pairs]
        assert sorted(pairs) == [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        for pairs in rounds:
            used = [index for pair in pairs for index in pair]
            assert len(used) == len(set(used))


def test_materialize_matches_pairwise_rotations():
    # reference: one row rotation per index pair, in the plan's order
    rng = np.random.default_rng(62)
    for dim in (2, 3, 4, 5):
        angles = rng.uniform(-np.pi, np.pi, angle_count(dim))
        rounds, _, _ = optimize._rotation_plan(dim)
        ref = np.eye(dim, dtype=complex)
        for k, (i, j) in enumerate(pair for pairs in rounds for pair in pairs):
            c = np.cos(angles[2 * k])
            s = np.sin(angles[2 * k]) * np.exp(1j * angles[2 * k + 1])
            ref[[i, j]] = [c * ref[i] - np.conj(s) * ref[j], s * ref[i] + c * ref[j]]
        assert np.abs(ke.unitary_from_angles(angles, dim) - ref).max() < 1e-14


def test_angles_reach_every_projector_direction():
    # the finite-difference Jacobian from the angles to the stacked column
    # projectors has full rank: no angle is a direction the projectors miss
    rng = np.random.default_rng(61)

    def projector_stack(angles, dim):
        p = linalg.projectors(ke.unitary_from_angles(angles, dim))
        return np.concatenate([p.real.ravel(), p.imag.ravel()])

    h = 1e-6
    for dim in (2, 3, 4):
        for _ in range(3):
            x = rng.uniform(-np.pi, np.pi, angle_count(dim))
            jac = np.column_stack([
                (projector_stack(x + h * e, dim) - projector_stack(x - h * e, dim)) / (2 * h)
                for e in np.eye(x.size)
            ])
            assert np.linalg.matrix_rank(jac, tol=1e-6) == angle_count(dim)


def test_config_validation():
    for restarts in (0, optimize.RESTART_CAP + 1):
        with pytest.raises(BadSpec):
            ke.OptimizerConfig(restarts=restarts)
    ke.OptimizerConfig(restarts=optimize.RESTART_CAP)
    for max_iters in (0, -1):
        with pytest.raises(BadSpec):
            ke.OptimizerConfig(max_iters=max_iters)


def objective_for(rho):
    from kdentangle.kd import _max_nonreality_mat

    dims = rho.dims.as_tuple()
    return lambda basis: _max_nonreality_mat(rho.matrix, dims, basis)


def test_minimize_over_bases_bell():
    # the marginal is maximally mixed, so the objective is flat at 1
    rho = ke.bell_state().density()
    cfg = ke.OptimizerConfig(restarts=3, max_iters=200, seed=0)
    value, _, _ = ke.minimize_over_bases(rho.marginal("A"), objective_for(rho), cfg)
    assert abs(value - 1.0) < 1e-4


def test_minimize_over_bases_product():
    rho = ke.product_state().density()
    cfg = ke.OptimizerConfig(restarts=4, max_iters=300, seed=0)
    value, _, _ = ke.minimize_over_bases(rho.marginal("A"), objective_for(rho), cfg)
    assert value < 1e-6


def test_minimize_over_bases_warm_start_attains():
    amps = np.array([np.sqrt(0.75), 0, 0, 0.5], dtype=complex)
    rho = ke.BipartitePureState(ke.BipartiteDims(2, 2), amps).density()
    cfg = ke.OptimizerConfig(restarts=2, max_iters=200, seed=0)
    obj = objective_for(rho)
    value, _, _ = ke.minimize_over_bases(rho.marginal("A"), obj, cfg)
    assert abs(value - np.sqrt(3) / 2) < 1e-4
    # never worse than the identity basis or the warm start
    eigvecs = np.linalg.eigh(rho.marginal("A"))[1]
    assert value <= obj(np.eye(2, dtype=complex)) + 1e-12
    assert value <= obj(eigvecs) + 1e-12
    # column phases and order change no projector, so any of them attains
    rng = np.random.default_rng(63)
    phased = eigvecs * np.exp(1j * rng.uniform(-np.pi, np.pi, 2))
    for basis in (phased, eigvecs[:, ::-1]):
        assert abs(obj(basis) - obj(eigvecs)) < 1e-12


def test_restart_monotonicity_nested_seeds():
    rho = ke.random_mixed(ke.BipartiteDims(2, 2), 2, 3)
    obj = objective_for(rho)
    few = ke.OptimizerConfig(restarts=8, max_iters=120, seed=4)
    many = ke.OptimizerConfig(restarts=32, max_iters=120, seed=4)
    v_few, _, _ = ke.minimize_over_bases(rho.marginal("A"), obj, few)
    v_many, _, _ = ke.minimize_over_bases(rho.marginal("A"), obj, many)
    assert v_many <= v_few + 1e-15


def test_seeded_determinism():
    rho = ke.random_mixed(ke.BipartiteDims(2, 3), 2, 5)
    obj = objective_for(rho)
    cfg = ke.OptimizerConfig(restarts=4, max_iters=150, seed=11)
    v1, b1, d1 = ke.minimize_over_bases(rho.marginal("A"), obj, cfg)
    v2, b2, d2 = ke.minimize_over_bases(rho.marginal("A"), obj, cfg)
    assert v1 == v2
    assert d1 == d2
    assert np.array_equal(b1, b2)


def test_search_returns_the_basis_it_scored():
    # the winning start's reference is mapped back onto its rotation: the
    # returned basis scores the returned value, whichever start won
    winners = set()
    cfg = ke.OptimizerConfig(restarts=4, max_iters=150, seed=0)
    for seed in range(6):
        rho = ke.random_mixed(ke.BipartiteDims(2, 3), 2, seed)
        obj = objective_for(rho)
        value, basis, diag = ke.minimize_over_bases(rho.marginal("A"), obj, cfg)
        assert obj(basis) == value
        winners.add(diag.best_start)
    assert {"identity", "warm"} <= winners
    assert any(label.startswith("restart") for label in winners)


def recorded_starts(monkeypatch):
    """Every simplex descent run from now on, in order."""
    ours = optimize._scipy_minimize
    runs = []

    def record(fun, x0, max_iters):
        runs.append(ours(fun, x0, max_iters))
        return runs[-1]

    monkeypatch.setattr(optimize, "_scipy_minimize", record)
    return runs


def package_searches(spec):
    """(marginal, objective) of the package's basis searches on a builtin:
    the asymmetry search on each side, the nonreality search and, on a pure
    state, the weak-value search."""
    state = ke.make_state(spec)
    rho = as_density(state)
    dims = rho.dims.as_tuple()
    swapped = entanglement._swapped_matrix(rho)
    searches = [
        (rho.marginal("A"), lambda b: entanglement._pattern_sup(rho.matrix, dims, b)),
        (rho.marginal("B"), lambda b: entanglement._pattern_sup(swapped, dims[::-1], b)),
        (rho.marginal("A"), objective_for(rho)),
    ]
    if state is not rho:
        searches.append((rho.marginal("A"), lambda b: weakvalue.sampled_max_nonreality(
            rho.matrix, dims, b, 1000, 0)))
    return searches


@pytest.mark.parametrize("spec", ["werner:0.0", "werner:0.5", "bell",
                                  "isotropic:3:0.7", "max-entangled:3"])
def test_identity_warm_basis_is_not_searched_twice(spec, monkeypatch):
    # a maximally mixed marginal makes eigh return the identity: the search
    # drops the warm start, and the parent's start list, kept here as the
    # reference, shows that its descent repeated the identity's bit for bit
    runs = recorded_starts(monkeypatch)
    cfg = ke.OptimizerConfig(restarts=1, max_iters=200, seed=2)
    for marginal, obj in package_searches(spec):
        warm = np.linalg.eigh(marginal)[1]
        references = {"identity": None, "warm": warm}
        del runs[:]
        ref_value, ref_basis, ref_diag = optimize._multistart(obj, len(warm), references, cfg)
        identity, dropped, _ = runs
        assert dropped.fun == identity.fun
        assert dropped.x.tobytes() == identity.x.tobytes()
        assert (dropped.nit, dropped.nfev) == (identity.nit, identity.nfev)
        del runs[:]
        value, basis, diag = ke.minimize_over_bases(marginal, obj, cfg)
        assert len(runs) == 2
        assert value == ref_value
        assert basis.tobytes() == ref_basis.tobytes()
        assert diag.best_start == ref_diag.best_start != "warm"
        assert diag.iterations == ref_diag.iterations - dropped.nit


def test_warm_start_kept_for_a_marginal_with_its_own_eigenbasis(monkeypatch):
    runs = recorded_starts(monkeypatch)
    cfg = ke.OptimizerConfig(restarts=1, max_iters=100, seed=0)
    for dims, seed in (((2, 2), 8), ((2, 3), 9), ((3, 3), 10)):
        rho = ke.random_mixed(ke.BipartiteDims(*dims), 2, seed)
        del runs[:]
        ke.minimize_over_bases(rho.marginal("A"), objective_for(rho), cfg)
        assert len(runs) == 3


# the package's basis searches, each as its caller runs it; all pass the floor 0
ZERO_FLOOR_CALLERS = {
    "asymmetry-A": lambda state, cfg: entanglement.asymmetry_lower_bound(
        as_density(state), "A", cfg),
    "asymmetry-B": lambda state, cfg: entanglement.asymmetry_lower_bound(
        as_density(state), "B", cfg),
    "nonreality": lambda state, cfg: entanglement.minimized_nonreality(as_density(state), cfg),
    "sampled": lambda state, cfg: weakvalue.sampled_entanglement(state, 1000, cfg),
}


def searched_in_full(monkeypatch):
    """Run the callers' basis searches with the floor ``-inf``, as
    ``_multistart(..., floor=-inf)``; returns the floors the callers passed."""
    floors = []

    def full(marginal, objective, config, floor=-np.inf):
        floors.append(floor)
        return optimize.minimize_over_bases(marginal, objective, config)

    for module in (entanglement, weakvalue):
        monkeypatch.setattr(module, "minimize_over_bases", full)
    return floors


def zero_valued_state(spec):
    """A builtin, or ``qubit-mixed:dB``: ``rho_A (x) I/dB`` with a random qubit
    state ``rho_A``, which commutes with ``P (x) I`` for ``P`` a projector of
    its eigenbasis and with every ``I (x) P``."""
    if not spec.startswith("qubit-mixed:"):
        return ke.make_state(spec)
    db = int(spec.split(":")[1])
    rng = np.random.default_rng(40 + db)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho_a = g @ g.conj().T
    rho_a /= np.trace(rho_a).real
    return ke.DensityOperator(ke.BipartiteDims(2, db), np.kron(rho_a, np.eye(db) / db))


@pytest.mark.parametrize("caller, spec, start", [
    ("asymmetry-A", "qubit-mixed:2", "warm"), ("asymmetry-B", "qubit-mixed:2", "identity"),
    ("asymmetry-A", "qubit-mixed:3", "warm"), ("asymmetry-B", "qubit-mixed:3", "identity"),
    ("asymmetry-A", "werner:0.0", "identity"), ("asymmetry-B", "product", "identity"),
    ("nonreality", "product", "identity"), ("sampled", "product", "identity"),
])
def test_zero_valued_search_runs_no_descent(caller, spec, start, monkeypatch):
    # every objective is >= 0, so a named start point scoring within tol of 0
    # is a certified minimum: it is returned with no descent, within tol of
    # what the full search finds. On qubit-mixed the identity basis of side A
    # scores above 0, and its warm basis, the eigenbasis of rho_A, is returned
    cfg = ke.OptimizerConfig(restarts=2, max_iters=300, seed=1)
    search = ZERO_FLOOR_CALLERS[caller]
    state = zero_valued_state(spec)
    with monkeypatch.context() as full:
        searched_in_full(full)
        full_value, _, full_diag = search(state, cfg)
    assert full_diag.iterations > 0

    def no_descent(*args, **kwargs):
        raise AssertionError("a descent ran")

    monkeypatch.setattr(optimize, "_scipy_minimize", no_descent)
    value, _, diag = search(state, cfg)
    assert diag == ke.SearchDiagnostics(cfg.restarts, start, 0, True)
    assert 0.0 <= value <= cfg.tol
    assert abs(value - full_value) <= cfg.tol


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_zero_floor_leaves_positive_searches_unchanged(dims, monkeypatch):
    # no start point of an entangled or rank-2 mixed state scores near 0, so
    # the floor 0 every caller passes moves no value, basis or diagnostics
    cfg = ke.OptimizerConfig(restarts=1, max_iters=60, seed=3)
    d = ke.BipartiteDims(*dims)
    for state in (ke.haar_pure(d, 70), ke.haar_pure(d, 71),
                  ke.random_mixed(d, 2, 80), ke.random_mixed(d, 2, 81)):
        for caller, search in ZERO_FLOOR_CALLERS.items():
            if caller == "sampled" and not isinstance(state, ke.BipartitePureState):
                continue
            with monkeypatch.context() as full:
                floors = searched_in_full(full)
                ref_value, ref_basis, ref_diag = search(state, cfg)
            assert floors == [0.0]
            value, basis, diag = search(state, cfg)
            assert value == ref_value and diag == ref_diag
            assert basis.tobytes() == ref_basis.tobytes()
            assert diag.iterations > 0


def test_minimize_over_bases_descends_by_default(monkeypatch):
    # the default floor -inf certifies nothing, so a direct caller's search
    # descends from every start even where a start point scores 0
    rho = ke.product_state().density()
    obj = objective_for(rho)
    assert obj(np.eye(2, dtype=complex)) == 0.0
    runs = recorded_starts(monkeypatch)
    cfg = ke.OptimizerConfig(restarts=1, max_iters=100)
    value, _, diag = ke.minimize_over_bases(rho.marginal("A"), obj, cfg)
    assert len(runs) == 3 and diag.iterations > 0 and value == 0.0
    del runs[:]
    value, _, diag = ke.minimize_over_bases(rho.marginal("A"), obj, cfg, floor=0.0)
    assert runs == [] and value == 0.0
    assert diag == ke.SearchDiagnostics(1, "identity", 0, True)


def _reject_bad_side(search, state, monkeypatch):
    def no_start(*args, **kwargs):
        raise AssertionError("a start ran")

    monkeypatch.setattr(optimize, "_scipy_minimize", no_start)
    rho = state.density()
    with pytest.raises(ValueError, match="'A' or 'B'"):
        search(rho, side="C")


@pytest.mark.parametrize("search", [ke.asymmetry_lower_bound])
def test_bad_side_rejected_before_any_start(search, monkeypatch):
    _reject_bad_side(search, ke.bell_state(), monkeypatch)


@pytest.mark.parametrize("search", [ke.asymmetry_lower_bound])
def test_bad_side_rejected_before_sign_pattern_cap(search, monkeypatch):
    # side B above the sign-pattern cap: the side is checked before the cap
    _reject_bad_side(search, ke.product_state(ke.BipartiteDims(2, 11)), monkeypatch)


def test_convex_roof_rank_one(monkeypatch):
    # a rank-one state has one decomposition, itself, so no search runs
    def no_search(*args, **kwargs):
        raise AssertionError("rank-one roof searched")

    monkeypatch.setattr(optimize, "_scipy_minimize", no_search)
    cfg = ke.OptimizerConfig(restarts=5, max_iters=150, seed=0)
    for dims, seed in ((ke.BipartiteDims(2, 2), 21), (ke.BipartiteDims(2, 3), 22)):
        state = ke.haar_pure(dims, seed)
        for terms in (None, 4):
            roof = ke.mixed_entanglement(state.density(), cfg, terms)
            assert abs(roof.value - ke.pure_entanglement(state).value) < 1e-12
            assert roof.probabilities.shape == (1,)
            assert abs(roof.probabilities[0] - 1.0) < 1e-12
            overlap = np.vdot(roof.pure_states[0].amplitudes, state.amplitudes)
            assert abs(abs(overlap) - 1.0) < 1e-12
            assert roof.diagnostics == ke.SearchDiagnostics(5, "identity", 0, True)
            assert roof.terms == (terms or 2)


def test_convex_roof_separable_mixture():
    dims = ke.BipartiteDims(2, 2)
    rho = ke.DensityOperator(dims, np.diag([0.5, 0, 0, 0.5]).astype(complex))
    roof = ke.mixed_entanglement(
        rho, ke.OptimizerConfig(restarts=6, max_iters=600, seed=0),
    )
    assert roof.value < 1e-6


def test_convex_roof_werner():
    rho = ke.werner_state(0.8)
    roof = ke.mixed_entanglement(
        rho, ke.OptimizerConfig(restarts=16, max_iters=2000, seed=0), terms=4,
    )
    assert abs(roof.value - 0.70) < 2e-3


def test_convex_roof_validates_terms():
    rho = ke.werner_state(0.5)  # rank 4
    with pytest.raises(BadSpec):
        ke.mixed_entanglement(
            rho, ke.OptimizerConfig(restarts=1, max_iters=50, seed=0), terms=2,
        )
    with pytest.raises(BadSpec):
        ke.mixed_entanglement(
            rho, ke.OptimizerConfig(restarts=1, max_iters=50, seed=0), terms=ROOF_CAP + 1,
        )


def test_convex_roof_decomposition_consistency():
    rho = ke.random_mixed(ke.BipartiteDims(2, 2), 2, 9)
    roof = ke.mixed_entanglement(
        rho, ke.OptimizerConfig(restarts=4, max_iters=400, seed=2),
    )
    assert abs(roof.probabilities.sum() - 1.0) < 1e-9
    assert all(p >= 0 for p in roof.probabilities)
    rebuilt = sum(p * s.outer() for p, s in zip(roof.probabilities, roof.pure_states))
    assert ke.trace_norm(rebuilt - rho.matrix) < 1e-8
    assert all(abs(np.linalg.norm(s.amplitudes) - 1) < 1e-10 for s in roof.pure_states)


def test_convex_roof_searches_rotation_angles_only(monkeypatch):
    # a phase on a row of the decomposition unitary only rephases one
    # decomposition vector, so the roof searches the 12 rotation angles of a
    # 4-term decomposition and the objective equals the phase-shifted average
    rho = ke.werner_state(0.6)
    functional = entanglement._marginal_entropy_functional(rho.dims)
    seen = []
    real = optimize._scipy_minimize

    def recording(fun, x0, **kwargs):
        seen.append((fun, x0.size))
        return real(fun, x0, **kwargs)

    monkeypatch.setattr(optimize, "_scipy_minimize", recording)
    ke.mixed_entanglement(rho, ke.OptimizerConfig(restarts=1, max_iters=20), terms=4)
    assert [size for _, size in seen] == [4 * 3, 4 * 3]
    objective = seen[0][0]
    q, evecs = np.linalg.eigh(rho.matrix)
    weighted = evecs * np.sqrt(q)
    rng = np.random.default_rng(7)
    for _ in range(100):
        angles = rng.uniform(-np.pi, np.pi, 4 * 3)
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
        psi = weighted @ (phases[:, None] * ke.unitary_from_angles(angles, 4)).T
        p = (np.abs(psi) ** 2).sum(axis=0)
        shifted = p @ functional((psi / np.sqrt(p)).T)
        assert abs(objective(angles) - shifted) <= 1e-15


def scipy_reference(fun, x0, max_iters):
    """scipy's adaptive Nelder-Mead from the simplex the package builds."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    simplex = np.tile(x0, (x0.size + 1, 1))
    simplex[1:, :] += np.eye(x0.size) * optimize.SIMPLEX_SCALE
    return scipy_optimize.minimize(
        fun, x0, method="Nelder-Mead",
        options=dict(maxiter=max_iters, xatol=optimize.XATOL, fatol=optimize.FATOL,
                     adaptive=True, initial_simplex=simplex),
    )


def assert_matches_scipy(minimize, fun, x0, max_iters):
    ours = minimize(fun, x0, max_iters=max_iters)
    ref = scipy_reference(fun, x0, max_iters)
    assert np.array_equal(ours.x, ref.x)
    assert (ours.fun, ours.nit, ours.nfev, ours.success) == (
        ref.fun, ref.nit, ref.nfev, ref.success)
    return ours


def test_nelder_mead_matches_scipy_on_package_searches(monkeypatch):
    pytest.importorskip("scipy.optimize")
    ours = optimize._scipy_minimize
    runs = []

    def both(fun, x0, max_iters):
        runs.append(assert_matches_scipy(ours, fun, x0, max_iters))
        return runs[-1]

    monkeypatch.setattr(optimize, "_scipy_minimize", both)
    cfg = ke.OptimizerConfig(restarts=1, max_iters=1500, seed=3)
    for p in (0.2, 0.6):
        entanglement.mixed_entanglement(ke.werner_state(p), cfg, terms=4)
    entanglement.mixed_entanglement(ke.random_mixed(ke.BipartiteDims(2, 3), 2, 5), cfg)
    short = ke.OptimizerConfig(restarts=1, max_iters=300, seed=3)
    entanglement.minimized_nonreality(ke.haar_pure(ke.BipartiteDims(3, 3), 4).density(), short)
    entanglement.asymmetry_lower_bound(
        ke.random_mixed(ke.BipartiteDims(2, 3), 2, 6), "B", short)
    weakvalue.sampled_entanglement(ke.bell_state(), 10**4, short)
    # two starts per roof, three per basis search, except the Bell weak-value
    # search: its maximally mixed marginal makes eigh return the identity, so
    # it has no warm start
    assert len(runs) == 2 * 3 + 3 * 3 - 1
    assert any(run.success for run in runs) and not all(run.success for run in runs)


def test_nelder_mead_matches_scipy_through_shrink_steps():
    # near the minimum the constant swamps x.x, so contractions stop
    # improving and the simplex shrinks: some iteration takes more than the
    # two evaluations of a reflection and an expansion or contraction
    x0 = np.array([1.0, 1.0])
    res = assert_matches_scipy(optimize._scipy_minimize,
                               lambda x: float(1e6 + x @ x), x0, 2000)
    assert res.success
    assert res.nfev > x0.size + 1 + 2 * (res.nit - 1)


def test_nelder_mead_matches_scipy_on_tied_vertex_values():
    # a staircase objective: many vertices share a value, so the order in
    # which the re-sorts leave tied vertices steers the descent. A stable sort
    # changes the 5-angle descent, and reversing the ties the 3-angle one
    def stairs(x):
        return float(np.floor(4 * x @ x))

    for x0, max_iters, counts in ((np.ones(3), 500, (56, 219)),
                                  (np.array([0.3, -1.2, 0.8, 2.0, -0.5]), 800, (95, 529))):
        res = assert_matches_scipy(optimize._scipy_minimize, stairs, x0, max_iters)
        assert (res.nit, res.nfev) == counts


def test_nelder_mead_matches_scipy_at_the_iteration_cap():
    scales = np.diag([1.0, 4.0, 25.0])
    x0 = np.array([1.0, -2.0, 0.5])
    for max_iters in (1, 2, 20):
        res = assert_matches_scipy(optimize._scipy_minimize,
                                   lambda x: float(x @ scales @ x), x0, max_iters)
        assert res.nit == max_iters and not res.success
        if max_iters == 1:
            # the first iteration is the initial simplex alone
            assert res.nfev == x0.size + 1


def noisy_bowl(x):
    """A smooth bowl plus a deterministic 1e-3 jitter hashed from the bytes of
    ``x``: as with sampled statistics, the jitter keeps vertex values apart
    after the simplex has collapsed, so the descent goes on and reflections
    and shrinks land on vertices evaluated before."""
    jitter = int.from_bytes(hashlib.blake2b(x.tobytes(), digest_size=8).digest(), "little")
    return float(x @ x + 1e-3 * jitter / 2**64)


def counting(fun):
    calls = []

    def counted(x):
        calls.append(x.tobytes())
        return fun(x)

    return counted, calls


def fifo_calls(points, size):
    """Reference: the points a first-in, first-out memo of ``size`` points
    passes on to the objective, in order."""
    held, calls = [], []
    for point in points:
        if point not in held:
            if len(held) == size:
                held.pop(0)
            held.append(point)
            calls.append(point)
    return calls


def test_nelder_mead_matches_scipy_on_a_noisy_objective():
    # scipy evaluates every trial point, so its calls are the sequence the
    # memo sees. The iterates must match scipy's, and the real calls must be
    # those a memo of exactly 2(n+1) points passes on. On two angles a memo
    # one point smaller or larger passes on another sequence; on three,
    # repeats come back within 2(n+1) points, so only a smaller memo does
    for x0, sizes in ((np.array([1.0, -0.5]), (-1, 1)), (np.array([0.3, 2.0, -1.0]), (-1,))):
        fun, calls = counting(noisy_bowl)
        ours = optimize._scipy_minimize(fun, x0, max_iters=300)
        ref_fun, trial_points = counting(noisy_bowl)
        ref = scipy_reference(ref_fun, x0, 300)
        assert np.array_equal(ours.x, ref.x)
        assert (ours.fun, ours.nit, ours.nfev, ours.success) == (
            ref.fun, ref.nit, ref.nfev, ref.success)
        assert len(trial_points) == ours.nfev
        size = 2 * (x0.size + 1)
        assert calls == fifo_calls(trial_points, size)
        for step in sizes:
            assert calls != fifo_calls(trial_points, size + step)
        # repeats were served, and evicted points were evaluated again
        assert len(set(calls)) < len(calls) < ours.nfev


def walled_kink(beyond):
    """``|x|_1``, whose value spread at a collapsed simplex is about its
    vertex spread, so the value test decides; ``beyond`` past the wall
    ``x_0 = 0`` through the minimum."""
    return lambda x: float(np.abs(x).sum()) if x[0] <= 0.0 else beyond


def test_nelder_mead_matches_scipy_where_the_value_spread_is_not_finite_or_zero():
    # the value test reads the sorted ends, fsim[-1] - fsim[0]; scipy reads
    # max|fsim[0] - fsim[1:]|. They must agree with an inf or a nan among
    # the vertices, and on a constant, where the spread is 0 from the start
    # and the vertex test alone stops the descent
    for beyond, x0 in ((np.inf, np.array([-0.5, 0.3, 0.2])), (np.nan, np.array([-0.5, 0.3]))):
        fun, calls = counting(walled_kink(beyond))
        res = assert_matches_scipy(optimize._scipy_minimize, fun, x0, 2000)
        assert res.success and 0.0 < res.fun < 1e-7
        assert any(np.frombuffer(x)[0] > 0.0 for x in calls)
    res = assert_matches_scipy(optimize._scipy_minimize, lambda x: 1.0,
                               np.array([0.3, -1.2, 0.8]), 2000)
    assert res.success and res.fun == 1.0 and res.nit > 1
