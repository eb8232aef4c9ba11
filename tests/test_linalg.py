import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdentangle import entanglement, kd, linalg
from kdentangle.errors import DimensionMismatch
from kdentangle.states import (
    BipartiteDims,
    DensityOperator,
    bell_state,
    haar_pure,
    haar_unitary,
    max_entangled,
    product_state,
    random_mixed,
)


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
    # the same projector as the outcome subset {0} of the computational basis
    norms = linalg.commutator_trace_norm(rho, np.eye(2), (2, 2), ((0,),))
    assert norms.shape == (1,)
    assert abs(norms[0] - 1.0) < 1e-12


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
    ops = rng.standard_normal((k, da, da)) + 1j * rng.standard_normal((k, da, da))
    ops[:, 0, :] *= -0.0  # signed zeros must come out as np.kron's
    full = linalg.embed_local(ops, (da, db))
    assert full.shape == (k, da * db, da * db)
    for op, out in zip(ops, full, strict=True):
        assert out.tobytes() == np.kron(op, np.eye(db)).tobytes()


def test_embed_local_rejects_bad_stack():
    # a stack sized for subsystem B, and a single operator without its stack axis
    for ops in (np.zeros((1, 3, 3)), np.zeros((2, 2))):
        with pytest.raises(DimensionMismatch):
            linalg.embed_local(ops, (2, 3))


@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 3)])
def test_binary_measurement_is_the_explicit_sum(da, db):
    # each state equals P rho P + Q rho Q taken one projector at a time,
    # bit for bit, so the disturbance and the sampled records keep their bits
    rng = np.random.default_rng([da, db])
    for _ in range(20):
        rho = haar_pure(BipartiteDims(da, db), rng).outer()
        projs = linalg.embed_local(linalg.projectors(haar_unitary(da, rng)), (da, db))
        after = linalg.binary_measurement(rho, projs)
        assert after.shape == projs.shape
        for p, out in zip(projs, after, strict=True):
            q = np.eye(da * db) - p
            assert out.tobytes() == (p @ rho @ p + q @ rho @ q).tobytes()


def dense_commutator_norms(rho, basis, dims, subsets):
    """Reference: ``||[X, rho]||_1`` with ``X = P_S (x) I_B`` formed in full
    by ``np.kron``, from the eigenvalues of the Hermitian ``i [X, rho]``."""
    norms = []
    for s in subsets:
        cols = basis[:, list(s)]
        x = np.kron(cols @ linalg.dagger(cols), np.eye(dims[1]))
        norms.append(linalg.hermitian_trace_norm(1j * (x @ rho - rho @ x)))
    return np.array(norms)


def local_subsets(d):
    """The singletons, then the ``+`` set of every sign pattern: the
    ``2^(d-1) - 1`` distinct proper subsets of the outcomes that contain
    outcome 0."""
    plus = entanglement._plus_sets(d)
    proper = {(0,) + rest for r in range(d - 1)
              for rest in itertools.combinations(range(1, d), r)}
    assert len(plus) == 2 ** (d - 1) - 1
    assert set(plus) == proper
    return kd._singletons(d) + plus


@pytest.mark.parametrize("da", [2, 3, 4])
@pytest.mark.parametrize("db", [2, 3, 4])
def test_commutator_trace_norm_matches_dense_route(da, db):
    rng = np.random.default_rng([da, db, 26])
    dims = BipartiteDims(da, db)
    subsets = local_subsets(da)
    for rank in range(1, dims.total + 1):
        rho = random_mixed(dims, rank, rng).matrix
        basis = haar_unitary(da, rng)
        got = linalg.commutator_trace_norm(rho, basis, (da, db), subsets)
        ref = dense_commutator_norms(rho, basis, (da, db), subsets)
        assert got.shape == (len(subsets),)
        assert np.abs(got - ref).max() <= 1e-12


def test_commutator_trace_norm_on_near_hermitian_states():
    # DensityOperator accepts a state up to NORM_TOL from Hermitian; the block
    # form reads only the <S| rho |S^c> blocks, which moves the norm by the
    # anti-Hermitian part's size
    rng = np.random.default_rng(18)
    dims = BipartiteDims(3, 3)
    for _ in range(20):
        upper = np.triu(np.where(rng.random((9, 9)) < 0.5, 4.9e-11, -4.9e-11), 1)
        rho = DensityOperator(dims, random_mixed(dims, 3, rng).matrix + upper - upper.T).matrix
        basis = haar_unitary(3, rng)
        subsets = local_subsets(3)
        got = linalg.commutator_trace_norm(rho, basis, (3, 3), subsets)
        ref = dense_commutator_norms(rho, basis, (3, 3), subsets)
        assert np.abs(got - ref).max() <= 1e-9


@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 2), (3, 4), (4, 3)])
def test_commutator_trace_norm_is_exactly_zero_on_the_maximally_mixed_state(da, db):
    # the full commutator with I/N is exactly 0; the block form must not turn
    # it into rotation roundoff, which a basis search would chase
    rng = np.random.default_rng([da, db])
    rho = np.eye(da * db) / (da * db) + 0j
    norms = linalg.commutator_trace_norm(rho, haar_unitary(da, rng), (da, db),
                                         local_subsets(da))
    assert not norms.any()


@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5)])
def test_commutator_trace_norm_of_a_ket_matches_its_matrix(da, db):
    # a ket scores each subset as 2 |P psi| |Q psi|, the rank-one block's one
    # singular value, with no SVD
    rng = np.random.default_rng([da, db, 32])
    dims = BipartiteDims(da, db)
    for subsets in (kd._singletons(da), entanglement._plus_sets(da)):
        for _ in range(20):
            psi = haar_pure(dims, rng)
            basis = haar_unitary(da, rng)
            got = linalg.commutator_trace_norm(psi.amplitudes, basis, (da, db), subsets)
            ref = linalg.commutator_trace_norm(psi.outer(), basis, (da, db), subsets)
            assert got.shape == (len(subsets),)
            assert np.abs(got - ref).max() <= 1e-13


def test_commutator_trace_norm_of_a_ket_on_named_states():
    # a product state at the computational basis has all its amplitude in
    # one row: each factor is summed from its own rows, so the norms are an
    # exact 0, not the roundoff of 1 - |P psi|^2
    rng = np.random.default_rng(32)
    for da, db in ((2, 2), (3, 2), (3, 4)):
        local = haar_unitary(db, rng)[:, 0]
        for psi in (product_state(BipartiteDims(da, db)).amplitudes,
                    np.kron(np.eye(da)[da - 1], local)):
            for subsets in (kd._singletons(da), entanglement._plus_sets(da)):
                assert not linalg.commutator_trace_norm(psi, np.eye(da), (da, db),
                                                        subsets).any()
    psi = max_entangled(3)
    for subsets in (kd._singletons(3), entanglement._plus_sets(3)):
        for basis in (np.eye(3), haar_unitary(3, rng)):
            got = linalg.commutator_trace_norm(psi.amplitudes, basis, (3, 3), subsets)
            ref = linalg.commutator_trace_norm(psi.outer(), basis, (3, 3), subsets)
            assert np.abs(got - ref).max() <= 1e-13
