import hashlib

import numpy as np
import pytest

import kdentangle as ke
from kdentangle import linalg, weakvalue
from kdentangle.errors import BadSpec

EYE2 = np.eye(2, dtype=complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def i_state_embedded():
    psi = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    m = np.kron(np.outer(psi, psi.conj()), np.diag([1.0, 0.0]))
    return ke.DensityOperator(ke.BipartiteDims(2, 2), m)


def test_estimate_commuting_cell_is_zero():
    rho = ke.DensityOperator(
        ke.BipartiteDims(2, 2), np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
    )
    shots = 10**4
    est = ke.estimate_kd_imag(rho, EYE2, np.eye(4, dtype=complex), 0, 0, shots, 11)
    assert abs(est.value.imag) <= 4 / np.sqrt(shots)


def test_estimate_i_state_cell():
    rho = i_state_embedded()
    basis_y = np.kron(HAD, EYE2)
    shots = 10**5
    est = ke.estimate_kd_imag(rho, EYE2, basis_y, 0, 0, shots, 13)
    assert abs(est.value.imag - (-0.25)) <= 4 / np.sqrt(shots)
    assert est.std_error_im > 0
    assert est.shots_used == shots


def test_estimate_bell_at_optimal_basis():
    rho = ke.bell_state().density()
    proj = np.kron(np.diag([1.0, 0.0]), np.eye(2))
    basis_y = ke.optimal_second_basis(rho.matrix, proj)
    exact = ke.kd_marginal(rho, EYE2, basis_y).values.imag[0]
    shots = 10**5
    for y in range(4):
        est = ke.estimate_kd_imag(rho, EYE2, basis_y, 0, y, shots, 17)
        assert abs(est.value.imag - exact[y]) <= 4 / np.sqrt(shots)


def test_estimate_mean_within_three_standard_errors():
    rho = i_state_embedded()
    basis_y = np.kron(HAD, EYE2)
    shots = 4000
    n_seeds = 100
    vals, ses = [], []
    for s in range(n_seeds):
        est = ke.estimate_kd_imag(rho, EYE2, basis_y, 0, 0, shots, 1000 + s)
        vals.append(est.value.imag)
        ses.append(est.std_error_im)
    mean_se = np.mean(ses) / np.sqrt(n_seeds)
    assert abs(np.mean(vals) - (-0.25)) <= 3 * mean_se


def test_estimate_rmse_scaling():
    rho = i_state_embedded()
    basis_y = np.kron(HAD, EYE2)
    for shots in (10**3, 10**4):
        sq = 0.0
        n_seeds = 60
        for s in range(n_seeds):
            est = ke.estimate_kd_imag(rho, EYE2, basis_y, 0, 0, shots, 500 + s)
            sq += (est.value.imag + 0.25) ** 2
        assert np.sqrt(sq / n_seeds) * np.sqrt(shots) <= 4.0


def test_sampled_entanglement_bell_quick():
    shots = 10**4
    cfg = ke.OptimizerConfig(restarts=2, max_iters=80, seed=0)
    value, _, _ = ke.sampled_entanglement(ke.bell_state(), shots, cfg)
    assert abs(value - 1.0) <= 5 * 4 / np.sqrt(shots)


@pytest.mark.parametrize("dims, seed", [((2, 2), 0), ((2, 3), 1), ((3, 3), 2)])
def test_sampled_entanglement_value_is_its_basis_value(dims, seed):
    # the objective is a deterministic function of the basis, so the returned
    # basis, evaluated again, gives the returned value exactly
    state = ke.haar_pure(ke.BipartiteDims(*dims), seed)
    cfg = ke.OptimizerConfig(restarts=1, max_iters=40, seed=seed)
    value, basis, _ = ke.sampled_entanglement(state, 2000, cfg)
    again = ke.sampled_max_nonreality(state.outer(), dims, basis, 2000, seed)
    assert again == value


def test_sampled_entanglement_rejects_bad_shots():
    with pytest.raises(BadSpec):
        ke.sampled_entanglement(ke.bell_state(), 0)


def test_shot_records_from_sampled_objective():
    state = ke.bell_state()
    sink = []
    value = ke.sampled_max_nonreality(
        state.outer(), (2, 2), EYE2, 5000, 42, sink=sink
    )
    assert value > 0.9
    # two preparations per first-basis outcome, four outcomes each
    assert len(sink) == 2 * 2 * 4
    per_prep = {}
    for rec in sink:
        per_prep.setdefault(rec.preparation, 0)
        per_prep[rec.preparation] += rec.count
    assert all(total == 5000 for total in per_prep.values())
    # deterministic reevaluation
    again = ke.sampled_max_nonreality(state.outer(), (2, 2), EYE2, 5000, 42)
    assert again == value


# Reference: the per-cell sampling formulas, one (outcome, preparation) cell at
# a time. The stacked pass must reproduce its values and records bit for bit:
# multinomial counts move with the last bits of the probabilities.
def _ref_seed(master, basis, x, prep):
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(int(master)).encode())
    h.update(np.ascontiguousarray(basis).tobytes())
    h.update(int(x).to_bytes(4, "little", signed=False))
    h.update(int(prep).to_bytes(2, "little", signed=False))
    return int.from_bytes(h.digest(), "little")


def _ref_counts(rho_mat, proj, basis_y, shots_pair, master, x, sink=None, tag=""):
    n = proj.shape[0]
    v = np.eye(n, dtype=complex) + (np.exp(-1j * np.pi / 2) - 1.0) * proj
    q = np.eye(n) - proj
    post = proj @ rho_mat @ proj + q @ rho_mat @ q
    preps = (("state", v @ rho_mat @ np.conj(v).T),
             ("measured", v @ post @ np.conj(v).T))
    counts = []
    for prep, ((name, mat), shots) in enumerate(zip(preps, shots_pair)):
        p = np.clip(np.einsum("iy,ij,jy->y", np.conj(basis_y), mat, basis_y).real,
                    0.0, None)
        rng = np.random.default_rng(_ref_seed(master, basis_y, x, prep))
        c = rng.multinomial(shots, p / p.sum())
        counts.append(c)
        if sink is not None:
            for outcome, k in enumerate(c):
                sink.append(ke.ShotRecord(f"x{x}:{name}", tag, outcome, int(k)))
    return counts


def _ref_sampled(rho_mat, dims, basis_a, shots, master, sink):
    projs = linalg.embed_local(linalg.projectors(basis_a), dims)
    total = 0.0
    for x, (proj, basis_y) in enumerate(zip(projs, ke.optimal_second_basis(rho_mat, projs))):
        c1, c2 = _ref_counts(rho_mat, proj, basis_y, (shots, shots), master, x,
                             sink, f"x{x}:optimal")
        total += float(np.abs((c1 / shots - c2 / shots) / 2.0).sum())
    return total


def _ref_estimate(rho, basis_a, basis_y, x, y, shots, seed):
    proj = linalg.embed_local(linalg.projectors(basis_a)[[x]], rho.dims.as_tuple())[0]
    n1 = shots // 2
    n2 = shots - n1
    c1, c2 = _ref_counts(rho.matrix, proj, basis_y, (n1, n2), seed, x)
    f1 = c1[y] / n1
    f2 = c2[y] / n2
    return (f1 - f2) / 2.0, float(0.5 * np.sqrt(f1 * (1 - f1) / n1 + f2 * (1 - f2) / n2))


BIT_CASES = [
    (ke.BipartiteDims(*dims), seed, rank)
    for seed, (dims, rank) in enumerate([((2, 2), 1), ((2, 3), 1), ((3, 2), 1),
                                         ((3, 3), 1), ((2, 3), 2), ((3, 3), 2)])
]


@pytest.mark.parametrize("shots", [1000, 10**6])
@pytest.mark.parametrize("dims,seed,rank", BIT_CASES)
def test_stacked_sampling_matches_per_cell_reference(dims, seed, rank, shots):
    if rank == 1:
        rho = ke.haar_pure(dims, 100 + seed).density()
    else:
        rho = ke.random_mixed(dims, rank, 100 + seed)
    for trial in range(3):
        basis_a = ke.haar_unitary(dims.da, 10 * seed + trial)
        sink, ref_sink = [], []
        value = ke.sampled_max_nonreality(rho.matrix, dims.as_tuple(), basis_a,
                                          shots, trial, sink=sink)
        ref = _ref_sampled(rho.matrix, dims.as_tuple(), basis_a, shots, trial, ref_sink)
        assert value == ref
        assert sink == ref_sink
        basis_y = ke.haar_unitary(dims.total, 10 * seed + trial + 5)
        x, y = trial % dims.da, (seed + trial) % dims.total
        est = ke.estimate_kd_imag(rho, basis_a, basis_y, x, y, shots, seed + trial)
        assert (est.value.imag, est.std_error_im) == _ref_estimate(
            rho, basis_a, basis_y, x, y, shots, seed + trial)


@pytest.mark.parametrize("zero_words", [0, 1, 3, 4])
def test_seed_words_draw_the_stream_of_the_digest_integer(zero_words):
    # the integer seed drops zero high words; the word seed must drop them too
    rng = np.random.default_rng(90 + zero_words)
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    for _ in range(50):
        digest = rng.bytes(16 - 4 * zero_words) + bytes(4 * zero_words)
        words = weakvalue._seed_words(digest)
        assert words.size == max(1, (int.from_bytes(digest, "little").bit_length() + 31) // 32)
        expect = np.random.default_rng(int.from_bytes(digest, "little"))
        assert np.array_equal(np.random.default_rng(words).multinomial(10**6, probs),
                              expect.multinomial(10**6, probs))


def test_shots_beyond_int64_rejected():
    cap = np.iinfo(np.int64).max
    rho = ke.bell_state().density()
    with pytest.raises(BadSpec, match="int64 count cap"):
        ke.sampled_max_nonreality(rho.matrix, (2, 2), EYE2, cap + 1, 0)
    # each preparation takes half the shots
    with pytest.raises(BadSpec, match="int64 count cap"):
        ke.estimate_kd_imag(rho, EYE2, np.eye(4, dtype=complex), 0, 0, 2 * cap + 2, 0)
    sink = []
    ke.sampled_max_nonreality(rho.matrix, (2, 2), EYE2, cap, 0, sink=sink)
    assert sum(r.count for r in sink) == 4 * cap



# x_index -1 ended in OverflowError from the seed hash, y_index -1 silently
# read the last outcome, and y_index N raised IndexError
@pytest.mark.parametrize("x_index, y_index, name", [
    (-1, 0, "x_index"), (2, 0, "x_index"), (0, -1, "y_index"), (0, 4, "y_index"),
])
def test_estimate_kd_imag_rejects_index_out_of_range(x_index, y_index, name):
    rho = ke.bell_state().density()
    with pytest.raises(BadSpec, match=name):
        ke.estimate_kd_imag(rho, EYE2, np.eye(4, dtype=complex), x_index, y_index, 1000, 0)


def test_estimate_kd_imag_accepts_last_indices():
    est = ke.estimate_kd_imag(ke.bell_state().density(), EYE2, np.eye(4, dtype=complex),
                              1, 3, 1000, 0)
    assert est.shots_used == 1000
