import numpy as np
import pytest

import kdentangle as ke
from kdentangle import entanglement, linalg, optimize
from kdentangle.errors import BadParamCount, BadSpec
from kdentangle.optimize import ROOF_CAP, angle_count


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
    with pytest.raises(BadSpec):
        ke.OptimizerConfig(restarts=0)
    for tol in (0.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(BadSpec):
            ke.OptimizerConfig(tol=tol)


def objective_for(rho):
    from kdentangle.kd import _max_nonreality_mat

    dims = rho.dims.as_tuple()
    return lambda basis: _max_nonreality_mat(rho.matrix, dims, basis)


def warm_basis(rho):
    return np.linalg.eigh(rho.marginal("A"))[1]


def test_minimize_over_bases_bell():
    # the marginal is maximally mixed, so the objective is flat at 1
    rho = ke.bell_state().density()
    cfg = ke.OptimizerConfig(restarts=3, max_iters=200, seed=0)
    _, value, _ = ke.minimize_over_bases(objective_for(rho), warm_basis(rho), cfg)
    assert abs(value - 1.0) < 1e-4


def test_minimize_over_bases_product():
    rho = ke.basis_ket(ke.BipartiteDims(2, 2), 0, 0).density()
    cfg = ke.OptimizerConfig(restarts=4, max_iters=300, seed=0)
    _, value, _ = ke.minimize_over_bases(objective_for(rho), warm_basis(rho), cfg)
    assert value < 1e-6


def test_minimize_over_bases_warm_start_attains():
    amps = np.array([np.sqrt(0.75), 0, 0, 0.5], dtype=complex)
    rho = ke.BipartitePureState(ke.BipartiteDims(2, 2), amps).density()
    cfg = ke.OptimizerConfig(restarts=2, max_iters=200, seed=0)
    obj = objective_for(rho)
    # column phases and order change no projector, so any of them attains
    rng = np.random.default_rng(63)
    eigvecs = warm_basis(rho)
    phased = eigvecs * np.exp(1j * rng.uniform(-np.pi, np.pi, 2))
    for warm in (eigvecs, phased, eigvecs[:, ::-1]):
        _, value, _ = ke.minimize_over_bases(obj, warm, cfg)
        assert abs(value - np.sqrt(3) / 2) < 1e-4
        # never worse than the identity basis or the warm start
        assert value <= obj(np.eye(2, dtype=complex)) + 1e-12
        assert value <= obj(warm) + 1e-12


def test_restart_monotonicity_nested_seeds():
    rho = ke.random_mixed(ke.BipartiteDims(2, 2), 2, 3)
    obj = objective_for(rho)
    few = ke.OptimizerConfig(restarts=8, max_iters=120, seed=4)
    many = ke.OptimizerConfig(restarts=32, max_iters=120, seed=4)
    _, v_few, _ = ke.minimize_over_bases(obj, warm_basis(rho), few)
    _, v_many, _ = ke.minimize_over_bases(obj, warm_basis(rho), many)
    assert v_many <= v_few + 1e-15


def test_seeded_determinism():
    rho = ke.random_mixed(ke.BipartiteDims(2, 3), 2, 5)
    obj = objective_for(rho)
    cfg = ke.OptimizerConfig(restarts=4, max_iters=150, seed=11)
    b1, v1, d1 = ke.minimize_over_bases(obj, warm_basis(rho), cfg)
    b2, v2, d2 = ke.minimize_over_bases(obj, warm_basis(rho), cfg)
    assert v1 == v2
    assert d1 == d2
    assert np.array_equal(b1, b2)


def marginal_entropy(dims):
    """Weighted functional: ``(k, N)`` unnormalized rows to the ``(k,)``
    values ``|psi|^2 E(psi / |psi|) = sum_j sqrt(lam_j (|psi|^2 - lam_j))``,
    with ``lam_j`` the eigenvalues of the unnormalized marginal."""
    def f(rows):
        m = rows.reshape(-1, dims.da, dims.db)
        norm2 = (np.abs(rows) ** 2).sum(axis=-1)[:, None]
        lam = np.clip(np.linalg.eigvalsh(m @ m.conj().transpose(0, 2, 1)), 0, norm2)
        return np.sqrt(lam * (norm2 - lam)).sum(axis=-1)

    return f


def test_convex_roof_rank_one(monkeypatch):
    # a rank-one state has one decomposition, itself, so no search runs
    def no_search(*args, **kwargs):
        raise AssertionError("rank-one roof searched")

    monkeypatch.setattr(optimize, "_scipy_minimize", no_search)
    cfg = ke.OptimizerConfig(restarts=5, max_iters=150, seed=0)
    for dims, seed in ((ke.BipartiteDims(2, 2), 21), (ke.BipartiteDims(2, 3), 22)):
        state = ke.haar_pure(dims, seed)
        for terms in (None, 4):
            roof = ke.minimize_convex_roof(state.density(), marginal_entropy(dims), cfg, terms)
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
    roof = ke.minimize_convex_roof(
        rho, marginal_entropy(dims),
        ke.OptimizerConfig(restarts=6, max_iters=600, seed=0),
    )
    assert roof.value < 1e-6


def test_convex_roof_werner():
    rho = ke.werner_state(0.8)
    roof = ke.minimize_convex_roof(
        rho, marginal_entropy(rho.dims),
        ke.OptimizerConfig(restarts=16, max_iters=2000, seed=0), terms=4,
    )
    assert abs(roof.value - 0.70) < 2e-3


def test_convex_roof_validates_terms():
    rho = ke.werner_state(0.5)  # rank 4
    with pytest.raises(BadSpec):
        ke.minimize_convex_roof(
            rho, marginal_entropy(rho.dims),
            ke.OptimizerConfig(restarts=1, max_iters=50, seed=0), terms=2,
        )
    with pytest.raises(BadSpec):
        ke.minimize_convex_roof(
            rho, marginal_entropy(rho.dims),
            ke.OptimizerConfig(restarts=1, max_iters=50, seed=0), terms=ROOF_CAP + 1,
        )


def test_convex_roof_decomposition_consistency():
    rho = ke.random_mixed(ke.BipartiteDims(2, 2), 2, 9)
    roof = ke.minimize_convex_roof(
        rho, marginal_entropy(rho.dims),
        ke.OptimizerConfig(restarts=4, max_iters=400, seed=2),
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
    ke.minimize_convex_roof(rho, functional,
                            ke.OptimizerConfig(restarts=1, max_iters=20), terms=4)
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
