import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdentangle as ke
from kdentangle import entanglement, linalg, optimize
from kdentangle.errors import DimensionMismatch, NotPSD, OptimizerFailed
from kdentangle.states import as_density
from samplers import random_product_pure

EYE2 = np.eye(2, dtype=complex)


def lam_state(l1=0.75):
    amps = np.array([np.sqrt(l1), 0, 0, np.sqrt(1 - l1)], dtype=complex)
    return ke.BipartitePureState(ke.BipartiteDims(2, 2), amps)


def wootters_oracle(rho_mat):
    """Independent spin-flip concurrence, written out in the test."""
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    ev = np.linalg.eigvals(rho_mat @ yy @ rho_mat.conj() @ yy)
    roots = np.sqrt(np.clip(np.sort(ev.real)[::-1], 0, None))
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def test_nonreality_entropy_values():
    pure = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert ke.nonreality_entropy(pure) < 1e-12
    assert abs(ke.nonreality_entropy(np.eye(2) / 2) - 1.0) < 1e-12
    assert abs(ke.nonreality_entropy(np.eye(3) / 3) - np.sqrt(2)) < 1e-12
    direct = 2 * np.sqrt(3.0 / 16.0)
    assert abs(ke.nonreality_entropy(np.diag([0.75, 0.25])) - direct) < 1e-12
    assert abs(direct - np.sqrt(3) / 2) < 1e-12
    with pytest.raises(NotPSD):
        ke.nonreality_entropy(np.diag([1.2, -0.2]))


def test_pure_entanglement_examples():
    rep = ke.pure_entanglement(ke.bell_state())
    assert abs(rep.value - 1.0) < 1e-12
    assert abs(rep.normalized - 1.0) < 1e-12
    assert abs(rep.concurrence - 1.0) < 1e-12
    assert rep.schmidt_rank == 2

    rep = ke.pure_entanglement(ke.product_state(ke.BipartiteDims(2, 3)))
    assert rep.value < 1e-12
    assert rep.concurrence == 0.0
    assert rep.schmidt_rank == 1

    rep = ke.pure_entanglement(lam_state())
    assert abs(rep.value - np.sqrt(3) / 2) < 1e-12
    assert abs(rep.normalized - np.sqrt(3) / 2) < 1e-12
    assert abs(rep.concurrence - 2 * np.sqrt(0.75 * 0.25)) < 1e-12

    me3 = ke.pure_entanglement(ke.max_entangled(3))
    assert abs(me3.value - np.sqrt(2)) < 1e-12
    assert abs(me3.normalized - 1.0) < 1e-12


def haar_rank_state(dims, rank, seed):
    """A Haar state of ``dA x rank`` carried into ``dims`` by a Haar isometry
    on B: its amplitude matrix has rank ``rank``."""
    m = ke.haar_pure(ke.BipartiteDims(dims.da, rank), seed).matrix()
    return ke.BipartitePureState(dims, (m @ ke.haar_unitary(dims.db, seed)[:rank]).ravel())


def rank_deficient_states():
    """The Bell state embedded in 3x3, then Haar rank-2 and rank-3 states in
    3x3, 4x4 and 3x5, all but the full-rank ones below min(dA, dB)."""
    bell = np.zeros((3, 3), dtype=complex)
    bell[0, 0] = bell[1, 1] = 1 / np.sqrt(2)
    yield ke.BipartitePureState(ke.BipartiteDims(3, 3), bell.ravel())
    for da, db in ((3, 3), (4, 4), (3, 5)):
        for rank in (2, 3):
            for seed in range(5):
                yield haar_rank_state(ke.BipartiteDims(da, db), rank, seed)


def test_normalized_value_at_most_concurrence():
    # the paper's bound by the concurrence: with Schmidt rank r <= m =
    # min(dA, dB), Cauchy-Schwarz gives sum sqrt(l (1 - l)) <= sqrt(r (1 - sum
    # l^2)) <= sqrt(m (1 - sum l^2)), so the normalized value never exceeds
    # the concurrence (equality on two qubits is
    # test_two_qubit_normalized_equals_concurrence)
    for d in range(2, 6):
        for db in (d, d + 1):
            for seed in range(20):
                rep = ke.pure_entanglement(ke.haar_pure(ke.BipartiteDims(d, db), 1000 * d + seed))
                assert rep.schmidt_rank == d
                assert rep.normalized <= rep.concurrence + 1e-12
    for state in rank_deficient_states():
        rep = ke.pure_entanglement(state)
        assert rep.normalized <= rep.concurrence + 1e-12


def test_pure_normalized_is_the_roof_of_its_density():
    # one normalization, sqrt(min(dA, dB) - 1), whatever the Schmidt rank
    for state in rank_deficient_states():
        pure = ke.pure_entanglement(state)
        roof = ke.mixed_entanglement(state.density())
        assert pure.schmidt_rank in (2, 3)
        assert abs(pure.normalized - roof.value / ke.roof_normalization(state.dims)) <= 1e-12


def test_product_states_read_exactly_zero():
    # the top Schmidt weight of a product state can round more than SNAP
    # below 1 (seed 226 in 2x2): every field still reads 0, as the roof does
    for da, db in ((2, 2), (2, 3), (3, 3), (4, 5), (3, 7)):
        for seed in range(300):
            state = random_product_pure(ke.BipartiteDims(da, db), seed)
            rep = ke.pure_entanglement(state)
            assert (rep.value, rep.normalized, rep.concurrence) == (0.0, 0.0, 0.0)
            assert ke.nonreality_entropy(state.density().marginal("A")) == 0.0


def test_disturbance_examples():
    assert abs(ke.measurement_disturbance(ke.bell_state(), EYE2) - 1.0) < 1e-12
    prod = ke.product_state()
    assert ke.measurement_disturbance(prod, EYE2) < 1e-12


def test_disturbance_equals_max_nonreality():
    rng = np.random.default_rng(41)
    for k in range(50):
        da, db = ((2, 2), (2, 3), (3, 3))[k % 3]
        state = ke.haar_pure(ke.BipartiteDims(da, db), rng)
        basis_a = ke.haar_unitary(da, rng)
        disturb = ke.measurement_disturbance(state, basis_a)
        analytic = ke.max_nonreality(state.density(), basis_a)
        assert abs(disturb - analytic) < 1e-9
        assert ke.marginal_disturbance(state, basis_a) <= disturb + 1e-9


def test_asymmetry_lower_bound_examples():
    cfg = ke.OptimizerConfig(restarts=4, max_iters=300, seed=1)
    bell = ke.bell_state().density()
    value, _, _ = ke.asymmetry_lower_bound(bell, "A", cfg)
    assert abs(value - 1.0) < 1e-6

    prod = ke.product_state().density()
    value, _, _ = ke.asymmetry_lower_bound(prod, "A", cfg)
    assert value < 1e-6

    lam = lam_state()
    value, _, _ = ke.asymmetry_lower_bound(lam.density(), "A", cfg)
    assert value <= np.sqrt(3) / 2 + 1e-6


def test_bounds_report_examples():
    cfg = ke.OptimizerConfig(restarts=4, max_iters=300, seed=1)
    report = ke.bounds_report(ke.bell_state().density(), cfg)
    assert abs(report.lower - 1.0) < 1e-6
    assert abs(report.upper - 1.0) < 1e-12

    sep = ke.DensityOperator(
        ke.BipartiteDims(2, 2), np.diag([0.5, 0, 0, 0.5]).astype(complex)
    )
    report = ke.bounds_report(sep, cfg)
    assert report.lower < 1e-8
    assert abs(report.upper - 1.0) < 1e-12

    mixed = ke.DensityOperator(ke.BipartiteDims(2, 2), np.eye(4) / 4)
    report = ke.bounds_report(mixed, cfg)
    assert report.lower < 1e-10
    assert report.best_lower <= report.best_upper + 1e-6


def test_minimized_nonreality_matches_closed_form():
    cfg = ke.OptimizerConfig(restarts=2, max_iters=300, seed=3)
    for dims, state in (
        ((2, 2), ke.bell_state()),
        ((2, 2), lam_state()),
        ((3, 3), ke.max_entangled(3)),
    ):
        closed = ke.nonreality_entropy(state.density().marginal("A"))
        numeric, _, _ = ke.minimized_nonreality(state.density(), cfg)
        assert abs(numeric - closed) < 1e-4


def swap_sides(rho):
    """The state with its subsystems exchanged, by an explicit index
    permutation: the reference for every side-B computation."""
    da, db = rho.dims.as_tuple()
    perm = np.arange(da * db).reshape(da, db).T.reshape(-1)
    return ke.DensityOperator(ke.BipartiteDims(db, da), rho.matrix[np.ix_(perm, perm)])


def test_side_b_matches_swapped_state():
    # a side-B search is the side-A search of the swapped state, bit for bit
    rng = np.random.default_rng(45)
    cfg = ke.OptimizerConfig(restarts=2, max_iters=300, seed=3)
    for da, db in ((2, 3), (3, 2), (3, 3)):
        dims = ke.BipartiteDims(da, db)
        for rho in (ke.random_mixed(dims, 2, rng), ke.haar_pure(dims, rng).density()):
            value_b, basis_b, diag_b = ke.asymmetry_lower_bound(rho, "B", cfg)
            value_a, basis_a, diag_a = ke.asymmetry_lower_bound(swap_sides(rho), "A", cfg)
            assert value_b == value_a
            assert basis_b.tobytes() == basis_a.tobytes()
            assert diag_b == diag_a


def counted_starts(monkeypatch):
    """A one-item list counting the simplex descents run from now on."""
    ours = optimize._scipy_minimize
    starts = [0]

    def count(*args, **kwargs):
        starts[0] += 1
        return ours(*args, **kwargs)

    monkeypatch.setattr(optimize, "_scipy_minimize", count)
    return starts


def counted_asymmetry_searches(monkeypatch):
    """A list of the sides ``bounds_report`` runs ``asymmetry_lower_bound``
    on from now on."""
    ours = entanglement.asymmetry_lower_bound
    sides = []

    def count(rho, side="A", *args, **kwargs):
        sides.append(side)
        return ours(rho, side, *args, **kwargs)

    monkeypatch.setattr(entanglement, "asymmetry_lower_bound", count)
    return sides


@pytest.mark.parametrize("spec", ["werner:0.0", "werner:0.5", "bell",
                                  "isotropic:3:0.7", "max-entangled:3"])
def test_bounds_report_searches_a_swap_invariant_state_once(spec, monkeypatch):
    # the swapped matrix and the B marginal equal side A's bit for bit, so the
    # side-B search would repeat the side-A search: the report runs one side's.
    # The search calls are counted, since a search answered by its zero floor
    # (werner:0.0) runs no descent to count
    rho = as_density(ke.make_state(spec))
    cfg = ke.OptimizerConfig(restarts=1, max_iters=200, seed=1)
    starts = counted_starts(monkeypatch)
    lower, _, _ = ke.asymmetry_lower_bound(rho, "A", cfg)
    lower_b, _, _ = ke.asymmetry_lower_bound(rho, "B", cfg)
    one_side = starts[0] // 2
    starts[0] = 0
    searches = counted_asymmetry_searches(monkeypatch)
    report = ke.bounds_report(rho, cfg)
    assert searches == ["A"]
    assert starts[0] == one_side
    assert (report.lower, report.lower_swapped) == (lower, lower_b)
    assert report.best_lower == max(lower, lower_b)


def test_bounds_report_searches_both_sides_of_other_states(monkeypatch):
    cfg = ke.OptimizerConfig(restarts=1, max_iters=100, seed=1)
    starts = counted_starts(monkeypatch)
    searches = counted_asymmetry_searches(monkeypatch)
    for dims, seed in (((2, 2), 11), ((2, 3), 12)):
        rho = ke.random_mixed(ke.BipartiteDims(*dims), 2, seed)
        starts[0] = 0
        searches.clear()
        report = ke.bounds_report(rho, cfg)
        assert searches == ["A", "B"]
        # identity, warm and one restart on each side
        assert starts[0] == 6
        assert report.lower == ke.asymmetry_lower_bound(rho, "A", cfg)[0]
        assert report.lower_swapped == ke.asymmetry_lower_bound(rho, "B", cfg)[0]


@settings(max_examples=40, deadline=None)
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
       ranks=st.tuples(st.integers(1, 3), st.integers(1, 3)), seed=st.integers(0, 2**32 - 1))
def test_bounds_report_of_a_product_state_runs_no_descent(dims, ranks, seed):
    # rho_A (x) rho_B commutes with every projector of either marginal's
    # eigenbasis, so each side's warm basis scores 0 to roundoff, within tol
    # of the asymmetry's floor 0, and neither side descends
    rng = np.random.default_rng(seed)
    factors = []
    for d, rank in zip(dims, ranks):
        g = rng.standard_normal((d, min(rank, d))) + 1j * rng.standard_normal((d, min(rank, d)))
        factors.append(g @ g.conj().T / np.vdot(g, g).real)
    rho = ke.DensityOperator(ke.BipartiteDims(*dims), np.kron(*factors))
    with pytest.MonkeyPatch.context() as patch:
        starts = counted_starts(patch)
        report = ke.bounds_report(rho)
    assert starts[0] == 0
    assert 0.0 <= report.lower <= 1e-12 and 0.0 <= report.lower_swapped <= 1e-12


def test_pattern_sup_is_max_nonreality_on_a_qubit_side():
    # on a 2-dimensional side the one sign pattern is 2 P_0 - I, and
    # P_1 = I - P_0 gives the same commutator norm, so the two objectives agree
    rng = np.random.default_rng(26)
    for db in (2, 3, 4):
        dims = ke.BipartiteDims(2, db)
        for rank in range(1, dims.total + 1):
            rho = ke.random_mixed(dims, rank, rng).matrix
            basis = ke.haar_unitary(2, rng)
            sup = entanglement._pattern_sup(rho, (2, db), basis)
            total = entanglement._max_nonreality_mat(rho, (2, db), basis)
            assert abs(sup - total) <= 1e-12


def test_search_operand_is_the_ket_of_a_rank_one_state_only():
    # the rank rule is mixed_entanglement's: exactly one eigenvalue above
    # RANK_TOL. A rank-one state hands over a ket of its matrix; any other
    # state, a weight just above RANK_TOL included, hands over the matrix
    rng = np.random.default_rng(32)
    dims = ke.BipartiteDims(3, 2)
    psi, phi = (ke.haar_pure(dims, rng).amplitudes for _ in range(2))
    pure = np.outer(psi, psi.conj())
    for weight, rank_one in ((0.0, True), (1e-13, True), (1e-11, False), (0.3, False)):
        mat = (1.0 - weight) * pure + weight * np.outer(phi, phi.conj())
        operand = entanglement._search_operand(mat)
        if rank_one:
            assert operand.shape == (dims.total,)
            assert np.abs(np.outer(operand, operand.conj()) - mat).max() <= 1e-12
        else:
            assert operand is mat
    for rank in (2, 6):
        mat = ke.random_mixed(dims, rank, rng).matrix
        assert entanglement._search_operand(mat) is mat


def test_wootters_concurrence():
    for p in (0.0, 0.3, 0.5, 0.8, 1.0):
        rho = ke.werner_state(p)
        assert abs(ke.wootters_concurrence(rho) - max(0.0, (3 * p - 1) / 2)) < 1e-10
        assert abs(ke.wootters_concurrence(rho) - wootters_oracle(rho.matrix)) < 1e-12
    with pytest.raises(DimensionMismatch):
        ke.wootters_concurrence(np.eye(6) / 6)


def test_wootters_concurrence_exact_on_pure_product_and_rotated_werner_states():
    # pure: 2|a00 a11 - a01 a10|; product: 0; a locally rotated Werner state
    # keeps max(0, (3p - 1)/2). The square roots of the eigenvalues of the
    # non-Hermitian rho rho~ miss the pure values by up to 1.9e-8
    dims = ke.BipartiteDims(2, 2)
    for k in range(200):
        a = ke.haar_pure(dims, k).amplitudes
        exact = 2 * abs(a[0] * a[3] - a[1] * a[2])
        assert abs(ke.wootters_concurrence(ke.haar_pure(dims, k)) - exact) < 1e-13
        assert ke.wootters_concurrence(random_product_pure(dims, k)) < 1e-13
        p = k / 199
        u = np.kron(ke.haar_unitary(2, 2 * k), ke.haar_unitary(2, 2 * k + 1))
        rotated = u @ ke.werner_state(p).matrix @ u.conj().T
        assert abs(ke.wootters_concurrence(rotated) - max(0.0, (3 * p - 1) / 2)) < 1e-13


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pure_value_above_swap_floor(d):
    # E(psi) >= -<psi|F|psi> with F the swap: on antisymmetric states
    # <F> = -1, so their value is at least 1
    dims = ke.BipartiteDims(d, d)
    for seed in range(100):
        a = ke.haar_pure(dims, seed).amplitudes.reshape(d, d)
        anti = a - a.T
        for m in (a, anti / np.linalg.norm(anti)):
            swap = np.vdot(m, m.T).real
            value = ke.pure_entanglement(ke.BipartitePureState(dims, m.ravel())).value
            assert value >= -swap - 1e-12


def antisymmetric_vectors(count, seed):
    """``count`` random orthonormal states on the antisymmetric subspace of
    3x3, as rows of amplitudes."""
    basis = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        v = np.zeros((3, 3), dtype=complex)
        v[i, j], v[j, i] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        basis.append(v.ravel())
    return ke.haar_unitary(3, seed)[:count] @ np.array(basis)


def test_antisymmetric_pure_states_score_one():
    # every antisymmetric 3x3 state has Schmidt coefficients (1/2, 1/2, 0)
    dims = ke.BipartiteDims(3, 3)
    for seed in range(50):
        state = ke.BipartitePureState(dims, antisymmetric_vectors(1, seed)[0])
        assert abs(ke.pure_entanglement(state).value - 1.0) <= 1e-12
        assert abs(ke.certified_lower(state.density()) - 1.0) <= 1e-12


@pytest.mark.parametrize("rank", [2, 3])
def test_antisymmetric_mixed_states_have_roof_one(rank, monkeypatch):
    # the swap floor -Tr(F rho) = 1 meets every decomposition's value 1, so the
    # roof and the certified floor are both exactly 1; the partial-transpose
    # floor alone reads about 0.3. The eigendecomposition already sits on the
    # floor, so even the default budget (33 starts of 2000 iterations) runs no
    # descent
    def no_search(*args, **kwargs):
        raise AssertionError("a roof on its certified floor searched")

    monkeypatch.setattr(optimize, "_scipy_minimize", no_search)
    rng = np.random.default_rng(rank)
    weights = rng.dirichlet(np.ones(rank))
    rows = antisymmetric_vectors(rank, rank)
    rho = ke.DensityOperator(ke.BipartiteDims(3, 3),
                             (rows.T * weights) @ rows.conj())
    roof = ke.mixed_entanglement(rho)
    assert abs(roof.value - 1.0) <= 1e-12
    assert abs(ke.certified_lower(rho) - 1.0) <= 1e-12
    assert roof.diagnostics == ke.SearchDiagnostics(32, "identity", 0, True)
    assert roof.terms == 2 * rank


def test_roofs_above_their_floor_are_searched(monkeypatch):
    # the certified skip needs the eigendecomposition within tol of the floor:
    # neither the mixed Werner states of the roof suite, separable or not, nor
    # the first random rank-2 mixtures of prop5 have that
    searched = []
    search = entanglement._multistart

    def record(cost, dim, references, config, floor):
        searched.append(floor)
        return search(cost, dim, references, config, floor)

    monkeypatch.setattr(entanglement, "_multistart", record)
    cfg = ke.OptimizerConfig(restarts=1, max_iters=20)
    inputs = [ke.werner_state(p) for p in (0.2, 0.4, 0.5, 0.6, 0.8)]
    inputs += [ke.random_mixed(ke.BipartiteDims(2, 2 + k % 2), 2,
                               np.random.default_rng([0, 36, k])) for k in range(6)]
    for rho in inputs:
        del searched[:]
        roof = ke.mixed_entanglement(rho, cfg)
        assert searched == [roof.certified_lower]
        assert roof.diagnostics.iterations > 0


def haar_instrument(d, outcomes, seed):
    """Kraus operators cut from the first ``d`` columns of a Haar unitary:
    ``sum_k K_k^dag K_k = I``."""
    isometry = ke.haar_unitary(outcomes * d, seed)[:, :d]
    return isometry.reshape(outcomes, d, d)


def test_pure_value_falls_on_average_under_local_instruments():
    # Vidal: a concave, unitarily invariant function of the reduced state is
    # a monotone, so no local measurement raises the average value
    seed = 0
    for da in (2, 3, 4):
        for db in (2, 3, 4):
            dims = ke.BipartiteDims(da, db)
            for _ in range(67):
                seed += 1
                m = ke.haar_pure(dims, seed).amplitudes.reshape(da, db)
                before = ke.pure_entanglement(ke.BipartitePureState(dims, m.ravel())).value
                side, outcomes = "AB"[seed % 2], 2 + seed // 2 % 2  # each pair in turn
                kraus = haar_instrument(da if side == "A" else db, outcomes, seed)
                after = 0.0
                for k in kraus:
                    out = k @ m if side == "A" else m @ k.T
                    p = np.vdot(out, out).real
                    state = ke.BipartitePureState(dims, out.ravel() / np.sqrt(p))
                    after += p * ke.pure_entanglement(state).value
                assert after <= before + 1e-12, (dims, side, seed)


def schmidt_report(lam):
    """Pure-state report of the ``d x d`` state with Schmidt weights ``lam``."""
    d = len(lam)
    amps = np.diag(np.sqrt(lam)).astype(complex).ravel()
    return ke.pure_entanglement(ke.BipartitePureState(ke.BipartiteDims(d, d), amps))


def test_pure_value_rises_under_t_transforms():
    # Nielsen: a monotone is Schur-concave in the Schmidt coefficients, so a
    # transfer between two of them toward their mean never lowers the value
    rng = np.random.default_rng(9)
    for d in (2, 3, 4, 5):
        for _ in range(500):
            lam = rng.dirichlet(np.ones(d))
            i, j = rng.choice(d, size=2, replace=False)
            t = rng.uniform()
            moved = lam.copy()
            moved[i] = t * lam[i] + (1 - t) * lam[j]
            moved[j] = (1 - t) * lam[i] + t * lam[j]
            assert (schmidt_report(moved).value
                    >= schmidt_report(lam).value - 1e-12), (lam, i, j, t)


def nielsen_pairs():
    """Schmidt weights ``(psi, phi)`` with ``psi`` majorized by ``phi``, so
    ``psi -> phi`` by LOCC (Nielsen, PRL 83, 436 (1999)): a fixed pair, then
    Haar states at d = 3, 4, 5 with their smallest weight moved onto their
    largest, which lowers the Schmidt rank."""
    yield np.array([0.49, 0.49, 0.02]), np.array([0.5, 0.5, 0.0])
    rng = np.random.default_rng(24)
    for d in (3, 4, 5):
        for _ in range(200):
            lam = ke.schmidt(ke.haar_pure(ke.BipartiteDims(d, d), rng)).coefficients ** 2
            moved = lam.copy()
            moved[0] += moved[-1]
            moved[-1] = 0.0
            yield lam, moved


def test_no_pure_field_rises_along_nielsen_pairs():
    for lam, moved in nielsen_pairs():
        before, after = schmidt_report(lam), schmidt_report(moved)
        assert after.schmidt_rank == before.schmidt_rank - 1
        for field in ("value", "normalized", "concurrence"):
            assert getattr(after, field) <= getattr(before, field) + 1e-12, (field, lam)


def test_mixed_entanglement_pure_input():
    cfg = ke.OptimizerConfig(restarts=4, max_iters=400, seed=5)
    rho = lam_state().density()
    roof = ke.mixed_entanglement(rho, cfg)
    assert abs(roof.value - np.sqrt(3) / 2) < 1e-9
    assert abs(roof.probabilities.sum() - 1.0) < 1e-9


def test_mixed_entanglement_separable_mixture():
    cfg = ke.OptimizerConfig(restarts=6, max_iters=600, seed=5)
    rho = ke.DensityOperator(
        ke.BipartiteDims(2, 2), np.diag([0.5, 0, 0, 0.5]).astype(complex)
    )
    roof = ke.mixed_entanglement(rho, cfg)
    assert roof.value < 1e-6


def test_mixed_entanglement_werner_oracle():
    cfg = ke.OptimizerConfig(restarts=16, max_iters=2000, seed=5)
    rho = ke.werner_state(0.8)
    roof = ke.mixed_entanglement(rho, cfg, terms=4)
    normalized = roof.value / ke.roof_normalization(rho.dims)
    assert abs(normalized - wootters_oracle(rho.matrix)) < 2e-3
    assert abs(normalized - 0.70) < 2e-3


def test_mixed_entanglement_reassembles():
    cfg = ke.OptimizerConfig(restarts=4, max_iters=400, seed=6)
    rho = ke.random_mixed(ke.BipartiteDims(2, 2), 2, 77)
    roof = ke.mixed_entanglement(rho, cfg)
    rebuilt = sum(
        p * s.outer() for p, s in zip(roof.probabilities, roof.pure_states)
    )
    assert ke.trace_norm(rebuilt - rho.matrix) < 1e-8


def test_local_unitary_invariance():
    rng = np.random.default_rng(46)
    for k in range(50):
        da, db = ((2, 2), (2, 3), (3, 3))[k % 3]
        dims = ke.BipartiteDims(da, db)
        state = ke.haar_pure(dims, rng)
        u = np.kron(ke.haar_unitary(da, rng), ke.haar_unitary(db, rng))
        rotated = ke.BipartitePureState(dims, u @ state.amplitudes)
        before = ke.pure_entanglement(state).value
        after = ke.pure_entanglement(rotated).value
        assert abs(before - after) < 1e-6


def test_marginal_exchange_symmetry():
    rng = np.random.default_rng(47)
    for k in range(30):
        da, db = ((2, 2), (2, 3), (3, 3))[k % 3]
        rho = ke.haar_pure(ke.BipartiteDims(da, db), rng).density()
        ea = ke.nonreality_entropy(rho.marginal("A"))
        eb = ke.nonreality_entropy(rho.marginal("B"))
        assert abs(ea - eb) < 1e-9


def test_pure_state_bound_chain():
    rng = np.random.default_rng(48)
    cfg = ke.OptimizerConfig(restarts=4, max_iters=300, seed=7)
    for k in range(12):
        da, db = ((2, 2), (2, 3), (3, 3))[k % 3]
        state = ke.haar_pure(ke.BipartiteDims(da, db), rng)
        rep = ke.pure_entanglement(state)
        lower, _, _ = ke.asymmetry_lower_bound(state.density(), "A", cfg)
        assert lower <= rep.value + 1e-6
        assert rep.value <= np.sqrt(rep.schmidt_rank - 1) + 1e-9
        assert rep.normalized <= rep.concurrence + 1e-9


@pytest.mark.parametrize("db", [2, 3, 4])
def test_asymmetry_is_tight_on_pure_states_with_a_qubit_side(db):
    # on a pure state _pattern_sup reads only the diagonal d of rho_A in the
    # searched basis, 2 sqrt(d0 (1 - d0)) at dA = 2, and d0 ranges over
    # [lam2, lam1] (Schur-Horn), so the extremal asymmetry is 2 sqrt(lam1 lam2),
    # the pure-state value E, on every 2 x n state
    for seed in range(8):
        state = ke.haar_pure(ke.BipartiteDims(2, db), seed)
        lower, _, _ = ke.asymmetry_lower_bound(state.density(), "A",
                                               entanglement.ASYMMETRY_SEARCH)
        assert abs(lower - ke.pure_entanglement(state).value) <= 1e-12


def qutrit_side_asymmetry(state) -> float:
    """Closed form of the extremal asymmetry of a pure 3 x n state. The ``+``
    sets are the singletons up to complement, and ``2 sqrt(t (1 - t))`` is
    symmetric about 1/2, so either every diagonal entry of rho_A in the
    searched basis is at most 1/2, best at the barycentre 1/3, or the
    largest is ``lam_max > 1/2`` (Schur-Horn)."""
    lam_max = float(ke.schmidt(state).coefficients[0] ** 2)
    return min(2 * np.sqrt(2) / 3, 2 * np.sqrt(lam_max * (1 - lam_max)))


@pytest.mark.parametrize("db", [2, 3, 4])
def test_asymmetry_has_a_closed_form_on_pure_states_with_a_qutrit_side(db):
    for seed in range(8):
        state = ke.haar_pure(ke.BipartiteDims(3, db), seed)
        lower, _, _ = ke.asymmetry_lower_bound(state.density(), "A",
                                               entanglement.ASYMMETRY_SEARCH)
        assert abs(lower - qutrit_side_asymmetry(state)) <= 1e-6


def test_two_qubit_normalized_equals_concurrence():
    rng = np.random.default_rng(49)
    for _ in range(50):
        state = ke.haar_pure(ke.BipartiteDims(2, 2), rng)
        rep = ke.pure_entanglement(state)
        assert abs(rep.normalized - rep.concurrence) <= 1e-12


def test_convexity_spot_check():
    # mixtures of two-qubit rank-2 states; four decomposition terms are
    # complete for two qubits, so both sides are tight at optimizer precision
    cfg = ke.OptimizerConfig(restarts=8, max_iters=800, seed=9)
    rng_a = np.random.default_rng([50, 0])
    rng_b = np.random.default_rng([50, 1])
    dims = ke.BipartiteDims(2, 2)
    rho1 = ke.random_mixed(dims, 2, rng_a)
    rho2 = ke.random_mixed(dims, 2, rng_b)
    v1 = ke.mixed_entanglement(rho1, cfg, terms=4).value
    v2 = ke.mixed_entanglement(rho2, cfg, terms=4).value
    for t in (0.25, 0.5, 0.75):
        mix = ke.DensityOperator(dims, t * rho1.matrix + (1 - t) * rho2.matrix)
        v_mix = ke.mixed_entanglement(mix, cfg, terms=4).value
        assert v_mix <= t * v1 + (1 - t) * v2 + 2 * cfg.tol


def test_certified_lower_werner():
    # at m = 2 the negativity floor is the concurrence (3p - 1)/2: the exact roof
    for p in (0.0, 0.2, 1 / 3, 0.4, 0.6, 0.8, 1.0):
        expected = max(0.0, (3 * p - 1) / 2)
        assert abs(ke.certified_lower(ke.werner_state(p)) - expected) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (4, 4), (5, 5)]),
       st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_certified_lower_below_pure_value(dims, seed, spread):
    # Haar states, and states near Phi_m where the fidelity term is tight
    da, db = dims
    m = min(da, db)
    phi = np.zeros((da, db), dtype=complex)
    phi[range(m), range(m)] = 1 / np.sqrt(m)
    z = ke.haar_pure(ke.BipartiteDims(da, db), seed).matrix()
    for amps in (z, phi + spread * z):
        state = ke.BipartitePureState(ke.BipartiteDims(da, db),
                                      (amps / np.linalg.norm(amps)).ravel())
        assert ke.certified_lower(state.density()) <= ke.pure_entanglement(state).value + 1e-12


def test_certified_lower_below_roof_and_upper():
    cfg = ke.OptimizerConfig(restarts=4, max_iters=600, seed=0)
    rng = np.random.default_rng(51)
    for da, db in ((2, 2), (2, 3), (3, 2)):
        rho = ke.random_mixed(ke.BipartiteDims(da, db), 2, rng)
        floor = ke.certified_lower(rho)
        roof = ke.mixed_entanglement(rho, cfg)
        assert floor <= roof.value + 1e-9
        upper = min(ke.nonreality_entropy(rho.marginal(side)) for side in "AB")
        assert floor <= upper + 1e-12


def test_mixed_entanglement_rejects_roof_below_floor(monkeypatch):
    # a functional that scores every term 0 puts an entangled roof below the floor
    monkeypatch.setattr(entanglement, "_marginal_entropy_functional",
                        lambda dims: lambda rows: np.zeros(len(rows)))
    with pytest.raises(OptimizerFailed, match="certified floor"):
        ke.mixed_entanglement(ke.werner_state(0.8),
                              ke.OptimizerConfig(restarts=1, max_iters=50), terms=4)


def unit_rows(z):
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(dims=st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (3, 3),
                             (3, 4), (4, 3)]),
       k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_roof_functional_matches_eigvalsh(dims, k, seed):
    # the weighted functional |psi|^2 E(psi/|psi|) on the 2-dimensional side's
    # closed form and on the singular-value path, against one eigvalsh per
    # vector
    da, db = dims
    functional = entanglement._marginal_entropy_functional(ke.BipartiteDims(da, db))
    rng = np.random.default_rng(seed)
    gauss = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    stack = unit_rows(gauss(k, da * db))
    ref = []
    for amps in stack:
        # the smaller marginal: the larger one has a zero eigenvalue at roundoff
        m = amps.reshape(da, db) if da <= db else amps.reshape(da, db).T
        lam = np.clip(np.linalg.eigvalsh(m @ m.conj().T), 0, 1)
        ref.append(np.sqrt(lam * (1 - lam)).sum())
    values = functional(stack)
    assert values.shape == (k,)
    assert np.abs(values - ref).max() <= 1e-12
    # degree-2 homogeneity, with zero rows interleaved giving exactly 0
    c = rng.lognormal(0.0, 3.0, k) * np.exp(1j * rng.uniform(-np.pi, np.pi, k))
    rows = np.zeros((2 * k, da * db), dtype=complex)
    rows[0::2] = c[:, None] * stack
    scaled = functional(rows)
    expected = np.abs(c) ** 2 * values
    assert (np.abs(scaled[0::2] - expected) <= 1e-12 * expected).all()
    assert np.array_equal(scaled[1::2], np.zeros(k))
    # n products per row of c: an eigvalsh of the marginal leaves about 1 in
    # 3,000 of them above 0 on the singular-value path
    n = 200
    product = (unit_rows(gauss(n * k, da))[:, :, None]
               * unit_rows(gauss(n * k, db))[:, None, :]).reshape(n * k, -1)
    assert np.array_equal(functional(product), np.zeros(n * k))
    assert np.array_equal(functional(np.repeat(c, n)[:, None] * product), np.zeros(n * k))
    # (|a0>|u0> + |a1>|u1>)/sqrt(2) with orthonormal pairs on both sides
    a, u = np.linalg.qr(gauss(da, da))[0], np.linalg.qr(gauss(db, db))[0]
    entangled = (np.outer(a[:, 0], u[:, 0]) + np.outer(a[:, 1], u[:, 1])) / np.sqrt(2)
    assert abs(functional(entangled.reshape(1, -1))[0] - 1.0) <= 1e-14


def where_form_functional(dims):
    """The weighted functional as written with ``np.where`` on the
    2-dimensional side: the reference its masked-assignment form must match
    bit for bit."""
    da, db = dims.da, dims.db

    def functional(rows):
        rows = np.asarray(rows, dtype=complex)
        norm2 = np.einsum("ij,ij->i", np.conj(rows), rows).real
        m = rows.reshape(-1, da, db)
        if db == 2:
            m = m.transpose(0, 2, 1)
        if m.shape[1] != 2:
            w = np.linalg.svd(m, compute_uv=False) ** 2
            w[w < entanglement.SNAP * norm2[:, None]] = 0.0
            return np.sqrt(w * (w.sum(axis=-1, keepdims=True) - w)).sum(axis=-1)
        outer = m[:, 0, :, None] * m[:, 1, None, :]
        minors = np.ascontiguousarray(outer - outer.transpose(0, 2, 1))
        minors = minors.reshape(len(m), -1).view(float)
        det = 0.5 * (minors * minors).sum(axis=-1)
        return np.where(det < entanglement.SNAP * norm2**2, 0.0, 2.0 * np.sqrt(det))

    return functional


@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)])
def test_roof_functional_equals_where_form(da, db):
    dims = ke.BipartiteDims(da, db)
    rng = np.random.default_rng(da * 10 + db)
    gauss = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    product = (gauss(40, da)[:, :, None] * gauss(40, db)[:, None, :]).reshape(40, -1)
    # rows at the snap: the smaller Schmidt weight lam of a unit row is
    # SNAP times a factor in [1/10, 10], so D = lam (1 - lam) and the
    # weight itself sit within a factor of 10 of their thresholds, on both
    # sides; local unitaries and a scale c make the rows generic
    lam = entanglement.SNAP * 10.0 ** rng.uniform(-1.0, 1.0, 40)
    near = np.zeros((40, da, db), dtype=complex)
    near[:, 0, 0], near[:, 1, 1] = np.sqrt(1.0 - lam), np.sqrt(lam)
    ua, ub = np.linalg.qr(gauss(40, da, da))[0], np.linalg.qr(gauss(40, db, db))[0]
    c = rng.lognormal(0.0, 3.0, 40) * np.exp(1j * rng.uniform(-np.pi, np.pi, 40))
    near = (c[:, None, None] * ua @ near @ ub.transpose(0, 2, 1)).reshape(40, -1)
    rows = np.concatenate([gauss(40, da * db), product, near, np.zeros((5, da * db))])
    order = rng.permutation(len(rows))
    values = entanglement._marginal_entropy_functional(dims)(rows[order])
    assert np.array_equal(values, where_form_functional(dims)(rows[order]))
    at_snap = values[np.argsort(order)][80:120]
    assert (at_snap == 0.0).any() and (at_snap > 0.0).any()


def test_cached_constants_are_read_only():
    for d in (2, 3, 5):
        plus = entanglement._plus_sets(d)
        assert plus is entanglement._plus_sets(d)
        plan = linalg._block_plan(d, 2, plus)
        assert plan is linalg._block_plan(d, 2, plus)
        assert not plan.flags.writeable
        eye = linalg._identity(d)
        assert eye is linalg._identity(d)
        assert not eye.flags.writeable
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0


def mub_vectors(d):
    """The ``d (d + 1)`` vectors of ``d + 1`` mutually unbiased bases at odd
    prime ``d``: the computational basis and ``omega^(c k^2 + j k) / sqrt(d)``
    for every ``c, j``."""
    k = np.arange(d)
    omega = np.exp(2j * np.pi / d)
    phased = [omega ** ((c * k * k + j * k) % d) / np.sqrt(d)
              for c in range(d) for j in range(d)]
    return np.concatenate([np.eye(d, dtype=complex), np.array(phased)])


@pytest.mark.parametrize("d, fidelity", [(3, 0.5), (3, 0.7), (5, 0.9)])
def test_isotropic_mub_witness(d, fidelity):
    # sqrt(a) |Phi_d> plus equal-weight products |s>|s*> over the MUB vectors
    # decompose the isotropic state; the product rows score exactly 0, so the
    # decomposition scores a sqrt(d - 1), an upper bound on the roof that the
    # certified floor meets to roundoff: the witness is an optimal decomposition
    a = (d * fidelity - 1) / (d - 1)
    s = mub_vectors(d)
    products = (s[:, :, None] * s.conj()[:, None, :]).reshape(len(s), -1)
    rows = np.concatenate([np.sqrt(a) * ke.max_entangled(d).amplitudes[None, :],
                           np.sqrt((1 - a) / (d * (d + 1))) * products])
    rho = ke.isotropic_state(d, fidelity)
    assert np.abs(rows.T @ rows.conj() - rho.matrix).max() <= 1e-14
    value = entanglement._marginal_entropy_functional(rho.dims)(rows).sum()
    assert abs(value - a * np.sqrt(d - 1)) <= 1e-12
    assert abs(ke.certified_lower(rho) - value) <= 1e-12
