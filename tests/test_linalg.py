import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdentangle import linalg
from kdentangle.errors import DimensionMismatch, NotHermitian
from kdentangle.states import bell_state, haar_unitary


def random_hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def test_eig_identity():
    w, v = linalg.hermitian_eig(np.eye(3))
    assert np.allclose(w, [1, 1, 1])
    assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-12


def test_eig_pauli_x():
    w, _ = linalg.hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1, 1])


def test_eig_quadratic_oracle():
    # roots of the characteristic polynomial, by the quadratic formula
    a, b, c, d = 0.75, 0.25, 0.25, 0.25
    tr, det = a + d, a * d - b * c
    lo = (tr - np.sqrt(tr**2 - 4 * det)) / 2
    hi = (tr + np.sqrt(tr**2 - 4 * det)) / 2
    w, _ = linalg.hermitian_eig(np.array([[a, b], [c, d]], dtype=complex))
    assert abs(w[0] - lo) < 1e-12
    assert abs(w[1] - hi) < 1e-12
    assert abs(lo - (1 - 1 / np.sqrt(2)) / 2) < 1e-12
    assert abs(hi - (1 + 1 / np.sqrt(2)) / 2) < 1e-12


def test_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        dim = int(rng.integers(2, 10))
        m = random_hermitian(dim, rng)
        w, v = linalg.hermitian_eig(m)
        scale = max(np.linalg.norm(m, 2), 1e-12)
        assert np.linalg.norm((v * w) @ v.conj().T - m, 2) <= 1e-9 * scale
        assert np.all(np.diff(w) >= -1e-12)
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-10


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        linalg.hermitian_eig(np.zeros((2, 3)))


def test_eig_deterministic_and_phase_fixed():
    m = np.diag([1.0, 1.0, 2.0]).astype(complex)
    w1, v1 = linalg.hermitian_eig(m)
    w2, v2 = linalg.hermitian_eig(m)
    assert np.array_equal(v1, v2)
    for k in range(3):
        first = v1[np.flatnonzero(np.abs(v1[:, k]) > 1e-8)[0], k]
        assert abs(first.imag) < 1e-12 and first.real > 0


def test_svd_examples():
    _, s, _ = linalg.svd(np.diag([3.0, 2.0]))
    assert np.allclose(s, [3, 2])
    _, s, _ = linalg.svd(np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.allclose(s, [1, 0])
    # reshaped maximally entangled amplitudes
    _, s, _ = linalg.svd(np.eye(2) / np.sqrt(2))
    assert np.allclose(s, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_svd_reconstruction():
    rng = np.random.default_rng(7)
    for shape in ((3, 3), (2, 5), (6, 4)):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u, s, v = linalg.svd(m)
        assert np.linalg.norm(u @ np.diag(s) @ v.conj().T - m, 2) < 1e-9 * max(s)
        assert np.abs(u.conj().T @ u - np.eye(u.shape[1])).max() < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() < 1e-10
        assert np.all(np.diff(s) <= 0)


def test_trace_norm_examples():
    assert linalg.trace_norm(np.zeros((3, 3))) == 0.0
    sy = np.array([[0, -1j], [1j, 0]])
    assert abs(linalg.trace_norm(1j * sy) - 2.0) < 1e-12
    # commutator of a local projector with the maximally entangled state:
    # twice the standard deviation sqrt(1/2 - 1/4)
    rho = bell_state().outer()
    proj = np.kron(np.diag([1.0, 0.0]), np.eye(2))
    comm = proj @ rho - rho @ proj
    assert abs(linalg.trace_norm(comm) - 2 * np.sqrt(0.25)) < 1e-12
    assert abs(linalg.commutator_trace_norm(proj, rho) - 1.0) < 1e-12


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u = haar_unitary(dim, rng)
        w = haar_unitary(dim, rng)
        assert abs(linalg.trace_norm(u @ m @ w) - linalg.trace_norm(m)) < 1e-9


def test_trace_norm_duality():
    rng = np.random.default_rng(4)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b /= max(np.linalg.norm(b, 2), 1e-12)
        assert abs(np.trace(b @ m)) <= linalg.trace_norm(m) + 1e-9


def test_partial_trace():
    rho = bell_state().outer()
    assert np.abs(linalg.partial_trace(rho, (2, 2), "A") - np.eye(2) / 2).max() < 1e-12
    assert np.abs(linalg.partial_trace(rho, (2, 2), "B") - np.eye(2) / 2).max() < 1e-12
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    out = linalg.partial_trace(np.kron(a, b), (3, 2), "A")
    assert np.abs(out - a * np.trace(b)).max() < 1e-10
    out = linalg.partial_trace(np.kron(a, b), (3, 2), "B")
    assert np.abs(out - b * np.trace(a)).max() < 1e-10
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert abs(np.trace(linalg.partial_trace(m, (2, 3), "A")) - np.trace(m)) < 1e-10
    with pytest.raises(DimensionMismatch):
        linalg.partial_trace(np.eye(5), (2, 2), "A")


@settings(max_examples=60, deadline=None)
@given(da=st.integers(2, 4), db=st.integers(2, 4), k=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_embed_local_matches_kron(da, db, k, seed):
    rng = np.random.default_rng(seed)
    for side, d in (("A", da), ("B", db)):
        ops = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
        ops[:, 0, :] *= -0.0  # signed zeros must come out as np.kron's
        full = linalg.embed_local(ops, (da, db), side)
        assert full.shape == (k, da * db, da * db)
        for op, out in zip(ops, full, strict=True):
            ref = np.kron(op, np.eye(db)) if side == "A" else np.kron(np.eye(da), op)
            assert out.tobytes() == ref.tobytes()


def test_embed_local_rejects_bad_stack():
    with pytest.raises(DimensionMismatch):
        linalg.embed_local(np.zeros((1, 3, 3)), (2, 3), "A")
    with pytest.raises(ValueError):
        linalg.embed_local(np.zeros((1, 2, 2)), (2, 3), "C")
