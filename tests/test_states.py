import json

import numpy as np
import pytest

import kdentangle as ke
from kdentangle.errors import BadSpec, DimensionMismatch, NotUnitary

DIMS_GRID = [(2, 2), (2, 3), (3, 3), (2, 4)]


def test_dims_validation():
    with pytest.raises(BadSpec):
        ke.BipartiteDims(1, 2)
    with pytest.raises(BadSpec):
        ke.BipartiteDims(9, 8)  # 72 > 64
    d = ke.BipartiteDims(4, 4)
    assert d.total == 16


def test_pure_state_validation():
    dims = ke.BipartiteDims(2, 2)
    with pytest.raises(BadSpec):
        ke.BipartitePureState(dims, np.array([1.0, 0, 0, 1.0]))
    with pytest.raises(DimensionMismatch):
        ke.BipartitePureState(dims, np.array([1.0, 0, 0]))


def test_density_validation():
    dims = ke.BipartiteDims(2, 2)
    with pytest.raises(BadSpec):
        ke.DensityOperator(dims, np.eye(4) / 2)  # trace 2
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(BadSpec):
        ke.DensityOperator(dims, bad)


def test_schmidt_examples():
    sd = ke.schmidt(ke.basis_ket(ke.BipartiteDims(2, 2), 0, 0))
    assert sd.rank == 1
    assert abs(sd.coefficients[0] - 1.0) < 1e-12

    sd = ke.schmidt(ke.bell_state())
    assert sd.rank == 2
    assert np.allclose(sd.coefficients, [1 / np.sqrt(2)] * 2)

    amps = np.array([np.sqrt(3) / 2, 0, 0, 0.5], dtype=complex)
    sd = ke.schmidt(ke.BipartitePureState(ke.BipartiteDims(2, 2), amps))
    assert np.allclose(sd.coefficients, [np.sqrt(3) / 2, 0.5])


def test_schmidt_roundtrip_random():
    for da, db in DIMS_GRID:
        dims = ke.BipartiteDims(da, db)
        rng = np.random.default_rng(100 + 10 * da + db)
        for _ in range(100):
            state = ke.haar_pure(dims, rng)
            sd = ke.schmidt(state)
            rebuilt = sum(c * np.kron(sd.basis_a[:, j], sd.basis_b[:, j])
                          for j, c in enumerate(sd.coefficients))
            assert np.abs(rebuilt - state.amplitudes).max() < 1e-9


def test_schmidt_matches_marginal_spectrum():
    rng = np.random.default_rng(17)
    for da, db in DIMS_GRID:
        dims = ke.BipartiteDims(da, db)
        state = ke.haar_pure(dims, rng)
        sd = ke.schmidt(state)
        lam = np.sort(np.linalg.eigvalsh(state.density().marginal("A")))[::-1]
        lam = lam[: sd.coefficients.size]
        assert np.abs(np.sort(sd.coefficients**2)[::-1] - lam).max() < 1e-9


def test_make_state_builtins():
    bell = ke.make_state("bell")
    assert np.allclose(bell.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    w1 = ke.make_state("werner:1")
    assert np.abs(w1.matrix - ke.bell_state().outer()).max() < 1e-12

    me3 = ke.make_state("max-entangled:3")
    sd = ke.schmidt(me3)
    assert np.allclose(sd.coefficients, [1 / np.sqrt(3)] * 3)

    st1 = ke.make_state("random-pure:5", dims=ke.BipartiteDims(2, 3))
    st2 = ke.make_state("random-pure:5", dims=ke.BipartiteDims(2, 3))
    assert np.array_equal(st1.amplitudes, st2.amplitudes)

    with pytest.raises(BadSpec):
        ke.make_state("nonsense")
    with pytest.raises(BadSpec):
        ke.make_state("werner:1.5")


def test_isotropic_state():
    rng = np.random.default_rng(24)
    for d in (2, 3, 4):
        for fidelity in (0.0, 1 / d, 0.35, 0.7, 1.0):
            rho = ke.isotropic_state(d, fidelity)
            assert rho.dims == ke.BipartiteDims(d, d)
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-12
            u = ke.haar_unitary(d, rng)
            twirl = np.kron(u, u.conj())
            assert np.abs(twirl @ rho.matrix @ twirl.conj().T - rho.matrix).max() < 1e-12
            # the floor is the oracle max(0, (dF - 1)/sqrt(d - 1)) over sqrt(d)
            oracle = max(0.0, (d * fidelity - 1) / np.sqrt(d - 1))
            assert abs(ke.certified_lower(rho) - oracle / np.sqrt(d)) < 1e-12
    for p in (0.0, 0.2, 0.6, 1.0):
        rho = ke.isotropic_state(2, (1 + 3 * p) / 4)
        assert np.abs(rho.matrix - ke.werner_state(p).matrix).max() < 1e-15
    spec = ke.make_state("isotropic:3:0.7")
    assert np.array_equal(spec.matrix, ke.isotropic_state(3, 0.7).matrix)
    for bad in ("isotropic:3:1.5", "isotropic:3:-0.1", "isotropic:3:nan",
                "isotropic:1:0.5", "isotropic:9:0.5", "isotropic:3", "isotropic"):
        with pytest.raises(BadSpec):
            ke.make_state(bad)


def test_apply_local_unitary():
    bell = ke.bell_state()
    same = ke.apply_local_unitary(bell, np.eye(2), np.eye(2))
    assert np.allclose(same.amplitudes, bell.amplitudes)

    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    plus = ke.apply_local_unitary(ke.basis_ket(ke.BipartiteDims(2, 2), 0, 0), h, h)
    assert np.allclose(plus.amplitudes, [0.5, 0.5, 0.5, 0.5])

    rng = np.random.default_rng(23)
    u_a, u_b = ke.haar_unitary(2, rng), ke.haar_unitary(2, rng)
    rotated = ke.apply_local_unitary(bell, u_a, u_b)
    assert np.allclose(
        ke.schmidt(rotated).coefficients, [1 / np.sqrt(2)] * 2, atol=1e-9
    )

    with pytest.raises(NotUnitary):
        ke.apply_local_unitary(bell, np.eye(2) * 2, np.eye(2))
    with pytest.raises(DimensionMismatch):
        ke.apply_local_unitary(bell, np.eye(3), np.eye(2))


def test_random_families():
    dims = ke.BipartiteDims(2, 3)
    rho = ke.random_mixed(dims, 2, 42)
    lam = np.linalg.eigvalsh(rho.matrix)
    assert np.sum(lam > 1e-9) == 2

    prod = ke.random_product_pure(dims, 42)
    assert ke.schmidt(prod).rank == 1

    ent = ke.random_entangled_pure(dims, 0.1, 42)
    assert ke.schmidt(ent).coefficients.min() >= 0.1

    # at the feasibility limit the only admissible coefficients are equal
    flat = ke.random_entangled_pure(ke.BipartiteDims(3, 3), 1 / np.sqrt(3), 42)
    assert np.abs(ke.schmidt(flat).coefficients - 1 / np.sqrt(3)).max() < 1e-12


def test_state_file_roundtrip(tmp_path):
    path = tmp_path / "state.json"
    bell = ke.bell_state()
    ke.save_state(bell, path)
    loaded = ke.load_state(path)
    assert isinstance(loaded, ke.BipartitePureState)
    assert np.abs(loaded.amplitudes - bell.amplitudes).max() < 1e-12

    rho = ke.werner_state(0.5)
    ke.save_state(rho, path)
    loaded = ke.load_state(path)
    assert isinstance(loaded, ke.DensityOperator)
    assert np.abs(loaded.matrix - rho.matrix).max() < 1e-12


def test_state_file_renormalizes_within_tolerance(tmp_path):
    path = tmp_path / "state.json"
    amps = np.array([1 + 4e-9, 0, 0, 0], dtype=complex)
    obj = {
        "dims": [2, 2],
        "kind": "pure",
        "data": [[float(z.real), float(z.imag)] for z in amps],
    }
    path.write_text(json.dumps(obj))
    loaded = ke.load_state(path)
    assert abs(np.linalg.norm(loaded.amplitudes) - 1.0) < 1e-14


def test_state_file_rejections(tmp_path):
    path = tmp_path / "state.json"

    def write(obj):
        path.write_text(json.dumps(obj))

    write({"dims": [2], "kind": "pure", "data": []})
    with pytest.raises(BadSpec, match="dims"):
        ke.load_state(path)

    write({"dims": [2, 2], "kind": "thing", "data": []})
    with pytest.raises(BadSpec, match="kind"):
        ke.load_state(path)

    write({"dims": [2, 2], "kind": "pure",
           "data": [[1.0, 0.0]] * 3})
    with pytest.raises(BadSpec):
        ke.load_state(path)

    # norm off by more than 1e-8
    write({"dims": [2, 2], "kind": "pure",
           "data": [[1.0 + 1e-6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(BadSpec, match="norm"):
        ke.load_state(path)

    path.write_text('{"dims": [2, 2], "kind": "pure", '
                    '"data": [[NaN, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}')
    with pytest.raises(BadSpec):
        ke.load_state(path)


def test_state_file_density_clipping(tmp_path):
    # a tiny negative eigenvalue within 1e-8 is clipped to zero on load
    path = tmp_path / "state.json"
    m = np.diag([0.6, 0.4 + 5e-9, -5e-9, 0.0]).astype(complex)
    obj = {
        "dims": [2, 2],
        "kind": "density",
        "data": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }
    path.write_text(json.dumps(obj))
    loaded = ke.load_state(path)
    assert np.linalg.eigvalsh(loaded.matrix).min() >= -1e-12
    assert abs(np.trace(loaded.matrix).real - 1.0) < 1e-12
