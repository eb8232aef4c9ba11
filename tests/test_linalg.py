import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdentangle import linalg
from kdentangle.errors import DimensionMismatch
from kdentangle.states import bell_state, haar_unitary


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
