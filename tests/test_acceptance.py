"""Acceptance battery. Each test covers one numbered criterion at its stated
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all).

Criterion 6 asserts a lower-bound inequality for mixed states that is
disproven by explicit counterexamples (e.g. separable isotropic mixtures carry
a strictly positive extremal asymmetry while their convex roof vanishes, and
the roof values themselves are confirmed against the independent two-qubit
spin-flip oracle). The test states the inequality faithfully and is expected
to fail; see the failure message for the measured violation.
"""

import time

import numpy as np

import kdentangle as ke
from kdentangle import verify
from samplers import random_entangled_pure, random_product_pure


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"criterion {num} ({name}): {status} — {detail}"
    print(line)
    return line


def test_criterion_1_maximal_entanglement():
    t0 = time.time()
    bell_closed = ke.pure_entanglement(ke.bell_state()).value
    me3_closed = ke.pure_entanglement(ke.max_entangled(3)).value
    closed_ok = (
        abs(bell_closed - 1.0) <= 1e-9
        and abs(me3_closed - np.sqrt(2)) <= 1e-9
    )
    config = ke.OptimizerConfig(restarts=3, max_iters=300, seed=0)
    bell_num, _, _ = ke.minimized_nonreality(ke.bell_state().density(), config)
    me3_num, _, _ = ke.minimized_nonreality(ke.max_entangled(3).density(), config)
    numeric_ok = (
        abs(bell_num - 1.0) <= 1e-4 and abs(me3_num - np.sqrt(2)) <= 1e-4
    )
    elapsed = time.time() - t0
    passed = closed_ok and numeric_ok and elapsed < 5.0
    line = report(
        1, "maximal entanglement values", passed,
        f"closed ({bell_closed:.2e}-dev {abs(bell_closed - 1):.2e}, "
        f"{abs(me3_closed - np.sqrt(2)):.2e}), numeric devs "
        f"({abs(bell_num - 1):.2e}, {abs(me3_num - np.sqrt(2)):.2e}), "
        f"{elapsed:.1f}s (cap 5s)",
    )
    assert passed, line


def test_criterion_2_closed_form_agreement():
    result = verify.run_suite("prop2", count=100)
    passed = result.passed and result.seconds < 120.0
    line = report(2, "closed form vs numeric minimization", passed,
                  f"{result.detail}; {result.seconds:.1f}s (cap 120s)")
    assert passed, line


def test_criterion_3_trace_norm_attainment():
    result = verify.run_suite("lemma1", count=50)
    line = report(3, "trace-norm attainment", result.passed, result.detail)
    assert result.passed, line


def test_criterion_4_two_qubit_equalities():
    result = verify.run_suite("concurrence", count=100)
    line = report(4, "two-qubit equalities", result.passed, result.detail)
    assert result.passed, line


def test_criterion_5_werner_convex_roof():
    result = verify.run_suite("roof")
    passed = result.passed and result.seconds < 300.0
    line = report(5, "convex roof vs spin-flip oracle", passed,
                  f"{result.detail}; {result.seconds:.1f}s (cap 300s)")
    assert passed, line


def test_criterion_6_mixed_state_sandwich():
    result = verify.run_suite("prop5", count=100)
    line = report(
        6, "mixed-state bound sandwich", result.passed,
        f"{result.detail}. The lower inequality is disproven: separable "
        f"states can carry strictly positive extremal asymmetry while the "
        f"convex roof vanishes (the roof side is independently confirmed by "
        f"the two-qubit spin-flip oracle), so this criterion cannot pass as "
        f"stated.",
    )
    assert result.passed, line


def test_criterion_7_disturbance_identity():
    result = verify.run_suite("prop4", count=50)
    line = report(7, "disturbance identity", result.passed, result.detail)
    assert result.passed, line


def test_criterion_8_kd_structural_invariants():
    rng = np.random.default_rng([0, 80])
    dims_grid = (ke.BipartiteDims(2, 2), ke.BipartiteDims(2, 3),
                 ke.BipartiteDims(3, 3))
    norm_dev = 0.0
    marg_dev = 0.0
    rec_dev = 0.0
    for k in range(50):
        dims = dims_grid[k % 3]
        rank = int(rng.integers(1, dims.total + 1))
        rho = ke.random_mixed(dims, rank, rng)
        while True:
            ba = ke.haar_unitary(dims.da, rng)
            bb = ke.haar_unitary(dims.db, rng)
            by = ke.haar_unitary(dims.total, rng)
            cols = np.column_stack([
                np.kron(ba[:, xa], bb[:, xb])
                for xa in range(dims.da) for xb in range(dims.db)
            ])
            if np.abs(by.conj().T @ cols).min() > 1e-3:
                break
        dist = ke.kd_full(rho, ba, bb, by)
        total = dist.values.sum()
        norm_dev = max(norm_dev, abs(total.real - 1.0), abs(total.imag))
        p_first = np.einsum("ix,ij,jx->x", cols.conj(), rho.matrix, cols).real
        p_second = np.einsum("iy,ij,jy->y", by.conj(), rho.matrix, by).real
        marg_dev = max(
            marg_dev,
            np.abs(dist.values.sum(axis=1) - p_first).max(),
            np.abs(dist.values.sum(axis=0) - p_second).max(),
        )
        rec = ke.reconstruct_state(dist)
        rec_dev = max(rec_dev, ke.trace_norm(rec - rho.matrix))
    passed = norm_dev <= 1e-12 and marg_dev <= 1e-12 and rec_dev <= 1e-8
    line = report(
        8, "table structure and reconstruction", passed,
        f"normalization dev {norm_dev:.2e} (cap 1e-12), marginal dev "
        f"{marg_dev:.2e} (cap 1e-12), round-trip dev {rec_dev:.2e} (cap 1e-8)",
    )
    assert passed, line


def test_criterion_9_invariance_and_faithfulness():
    rng = np.random.default_rng([0, 90])
    dims_grid = (ke.BipartiteDims(2, 2), ke.BipartiteDims(2, 3),
                 ke.BipartiteDims(3, 3))
    lu_dev = 0.0
    for k in range(50):
        dims = dims_grid[k % 3]
        state = ke.haar_pure(dims, rng)
        u = np.kron(ke.haar_unitary(dims.da, rng), ke.haar_unitary(dims.db, rng))
        rotated = ke.BipartitePureState(dims, u @ state.amplitudes)
        lu_dev = max(lu_dev, abs(
            ke.pure_entanglement(state).value
            - ke.pure_entanglement(rotated).value
        ))
    product_max = 0.0
    for k in range(20):
        dims = dims_grid[k % 3]
        product_max = max(
            product_max,
            ke.pure_entanglement(random_product_pure(dims, rng)).value,
        )
    entangled_min = np.inf
    for k in range(20):
        dims = dims_grid[k % 3]
        entangled_min = min(
            entangled_min,
            ke.pure_entanglement(
                random_entangled_pure(dims, 0.1, rng)
            ).value,
        )
    passed = lu_dev <= 1e-6 and product_max <= 1e-6 and entangled_min >= 1e-3
    line = report(
        9, "invariance and faithfulness", passed,
        f"local-unitary dev {lu_dev:.2e} (cap 1e-6), product max "
        f"{product_max:.2e} (cap 1e-6), entangled min {entangled_min:.2e} "
        f"(floor 1e-3)",
    )
    assert passed, line


def test_criterion_10_weak_value_pipeline():
    result = verify.run_suite("weak")
    line = report(10, "sampled estimation pipeline", result.passed,
                  result.detail)
    assert result.passed, line
