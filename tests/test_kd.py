import io

import numpy as np
import pytest

import kdentangle as ke
from kdentangle.errors import BadSpec, BasisPairSingular

EYE2 = np.eye(2, dtype=complex)
EYE4 = np.eye(4, dtype=complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def embedded_qubit(rho_qubit):
    """Embed a qubit state as dims (2, 2) with the second factor pinned to |0>."""
    m = np.kron(np.asarray(rho_qubit, dtype=complex), np.diag([1.0, 0.0]))
    return ke.DensityOperator(ke.BipartiteDims(2, 2), m)


def hand_table(rho, first_cols, basis_y):
    """Independent cell-by-cell evaluation of <y| x><x| rho |y>."""
    n_x = first_cols.shape[1]
    n_y = basis_y.shape[1]
    out = np.empty((n_x, n_y), dtype=complex)
    for x in range(n_x):
        for y in range(n_y):
            xv, yv = first_cols[:, x], basis_y[:, y]
            out[x, y] = (yv.conj() @ xv) * (xv.conj() @ rho @ yv)
    return out


def random_density(dim, rank, rng):
    z = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = z @ z.conj().T
    return m / np.trace(m).real


def test_marginal_commuting_case():
    rho = ke.basis_ket(ke.BipartiteDims(2, 2), 0, 0).density()
    dist = ke.kd_marginal(rho, EYE2, EYE4)
    assert np.abs(dist.values.imag).max() < 1e-14
    assert abs(dist.values[0, 0] - 1.0) < 1e-12
    assert np.abs(dist.values).sum() - 1.0 < 1e-12


def test_marginal_single_qubit_embedding():
    # (|0> + i|1>)/sqrt(2) against computational / {|+>, |->}
    psi = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    rho = embedded_qubit(np.outer(psi, psi.conj()))
    basis_y = np.kron(HAD, EYE2)
    dist = ke.kd_marginal(rho, EYE2, basis_y)
    assert abs(dist.values[0, 0] - (1 - 1j) / 4) < 1e-12
    assert abs(dist.values[0, 0].imag + 0.25) < 1e-12
    # hand-expansion oracle over the embedded product columns
    cols = np.stack(
        [np.kron(EYE2[:, x], EYE2[:, b]) for x in range(2) for b in range(2)], axis=1
    )
    oracle = hand_table(rho.matrix, cols, basis_y).reshape(2, 2, 4).sum(axis=1)
    assert np.abs(oracle - dist.values).max() < 1e-12


def test_marginal_real_in_state_eigenbasis():
    rng = np.random.default_rng(9)
    rho = ke.DensityOperator(
        ke.BipartiteDims(2, 3), random_density(6, 6, rng)
    )
    _, vecs = np.linalg.eigh(rho.matrix)
    basis_a = ke.haar_unitary(2, rng)
    dist = ke.kd_marginal(rho, basis_a, vecs)
    assert np.abs(dist.values.imag).max() < 1e-10


def test_full_sums_to_marginal():
    rng = np.random.default_rng(10)
    rho = ke.DensityOperator(ke.BipartiteDims(2, 3), random_density(6, 4, rng))
    ba, bb = ke.haar_unitary(2, rng), ke.haar_unitary(3, rng)
    by = ke.haar_unitary(6, rng)
    full = ke.kd_full(rho, ba, bb, by)
    marg = ke.kd_marginal(rho, ba, by)
    summed_over_b = full.values.reshape(2, 3, -1).sum(axis=1)
    assert np.abs(summed_over_b - marg.values).max() < 1e-12


def test_full_maximally_mixed():
    dims = ke.BipartiteDims(2, 2)
    rho = ke.DensityOperator(dims, np.eye(4) / 4)
    rng = np.random.default_rng(12)
    by = ke.haar_unitary(4, rng)
    dist = ke.kd_full(rho, EYE2, EYE2, by)
    assert np.abs(dist.values.imag).max() < 1e-12
    assert dist.values.real.min() > -1e-12
    expected = np.abs(by.conj().T @ np.eye(4)).T ** 2 / 4
    assert np.abs(dist.values.real - expected).max() < 1e-12


def test_full_bell_diagonal():
    dist = ke.kd_full(ke.bell_state().density(), EYE2, EYE2, EYE4)
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.abs(dist.values - expect).max() < 1e-12


def test_nonreality_values():
    dist = ke.kd_full(ke.bell_state().density(), EYE2, EYE2, EYE4)
    assert ke.nonreality(dist) == 0.0

    psi = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    rho = embedded_qubit(np.outer(psi, psi.conj()))
    dist = ke.kd_marginal(rho, EYE2, np.kron(HAD, EYE2))
    # four populated cells (second factor pinned to |0>), each of |Im| = 1/4
    populated = dist.values[:, (0, 2)]
    assert np.abs(np.abs(populated.imag) - 0.25).max() < 1e-12
    assert abs(ke.nonreality(dist) - 1.0) < 1e-12


def test_nonreality_commutator_identity():
    # Im <y| P rho |y> = <y| (i/2) [rho, P] |y> checked against the direct
    # commutator evaluation on a basis that commutes with nothing
    rng = np.random.default_rng(13)
    rho = ke.bell_state().density()
    basis_y = ke.haar_unitary(4, rng)
    dist = ke.kd_marginal(rho, EYE2, basis_y)
    total = 0.0
    for x in range(2):
        proj = np.kron(np.outer(EYE2[:, x], EYE2[:, x].conj()), np.eye(2))
        comm = proj @ rho.matrix - rho.matrix @ proj
        diag = np.einsum("iy,ij,jy->y", basis_y.conj(), comm, basis_y)
        total += np.abs(diag / 2).sum()
    assert abs(total - ke.nonreality(dist)) < 1e-12


def test_max_nonreality():
    bell = ke.bell_state().density()
    assert abs(ke.max_nonreality(bell, EYE2) - 1.0) < 1e-12

    prod = ke.basis_ket(ke.BipartiteDims(2, 2), 0, 0).density()
    assert ke.max_nonreality(prod, EYE2) < 1e-12

    # pure states: equals the probability route for every basis
    rng = np.random.default_rng(14)
    for da, db in ((2, 2), (2, 3), (3, 3)):
        dims = ke.BipartiteDims(da, db)
        state = ke.haar_pure(dims, rng)
        basis_a = ke.haar_unitary(da, rng)
        p = np.einsum(
            "ix,ij,jx->x", basis_a.conj(), state.density().marginal("A"), basis_a
        ).real
        expected = np.sqrt(np.clip(p - p**2, 0, None)).sum()
        assert abs(ke.max_nonreality(state.density(), basis_a) - expected) < 1e-9


def test_random_second_bases_never_beat_max_nonreality():
    rng = np.random.default_rng(15)
    dims = ke.BipartiteDims(2, 3)
    rho = ke.DensityOperator(dims, random_density(6, 3, rng))
    basis_a = ke.haar_unitary(2, rng)
    analytic = ke.max_nonreality(rho, basis_a)
    numeric = 0.0
    for _ in range(200):
        by = ke.haar_unitary(6, rng)
        numeric = max(numeric, ke.nonreality(ke.kd_marginal(rho, basis_a, by)))
    assert numeric <= analytic + 1e-9


def test_attainment_at_commutator_eigenbasis():
    rng = np.random.default_rng(16)
    dims = ke.BipartiteDims(2, 3)
    rho = ke.DensityOperator(dims, random_density(6, 3, rng))
    basis_a = ke.haar_unitary(2, rng)
    total = 0.0
    for x in range(2):
        proj = np.kron(np.outer(basis_a[:, x], basis_a[:, x].conj()), np.eye(3))
        by = ke.optimal_second_basis(rho.matrix, proj)
        dist = ke.kd_marginal(rho, basis_a, by)
        total += np.abs(dist.values.imag[x]).sum()
    assert abs(total - ke.max_nonreality(rho, basis_a)) < 1e-6


def test_reconstruction_roundtrip():
    rng = np.random.default_rng(19)
    rho = ke.haar_pure(ke.BipartiteDims(2, 2), rng).density()
    by = ke.haar_unitary(4, rng)
    dist = ke.kd_full(rho, EYE2, EYE2, by)
    rec = ke.reconstruct_state(dist)
    assert ke.trace_norm(rec - rho.matrix) <= 1e-8


def test_reconstruction_fourier_identity():
    dims = ke.BipartiteDims(2, 2)
    rho = ke.DensityOperator(dims, np.eye(4) / 4)
    j = np.arange(4)
    fourier = np.exp(2j * np.pi * np.outer(j, j) / 4) / 2
    dist = ke.kd_full(rho, EYE2, EYE2, fourier)
    rec = ke.reconstruct_state(dist)
    assert np.abs(rec - np.eye(4) / 4).max() < 1e-10


def test_reconstruction_singular_pair():
    dist = ke.kd_full(ke.bell_state().density(), EYE2, EYE2, EYE4)
    with pytest.raises(BasisPairSingular, match="overlap"):
        ke.reconstruct_state(dist)


def test_reconstruction_requires_full_form():
    dist = ke.kd_marginal(ke.bell_state().density(), EYE2, EYE4)
    with pytest.raises(BadSpec):
        ke.reconstruct_state(dist)


def test_csv_export():
    dist = ke.kd_full(ke.bell_state().density(), EYE2, EYE2, EYE4)
    buf = io.StringIO()
    ke.kd_to_csv(dist, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].strip() == "x,y,re,im"
    rows = [line.strip().split(",") for line in lines[1:]]
    assert len(rows) == 16
    # x-major ordering and the two nonzero cells
    assert [r[0] for r in rows] == [str(x) for x in range(4) for _ in range(4)]
    cell = {(int(r[0]), int(r[1])): (float(r[2]), float(r[3])) for r in rows}
    assert cell[(0, 0)] == (0.5, 0.0)
    assert cell[(3, 3)] == (0.5, 0.0)
