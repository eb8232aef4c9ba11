"""The benchmark's tracer patches package names from outside the package; a
rename of any of them must fail here rather than silently empty a traced run."""

import importlib.util
from pathlib import Path

import numpy as np

import kdentangle as ke
from kdentangle import entanglement, weakvalue

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
)
tracer_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_module)


def solve():
    rho = ke.haar_pure(ke.BipartiteDims(2, 3), 3).density()
    value, basis, diag = entanglement.minimized_nonreality(
        rho, ke.OptimizerConfig(restarts=1, max_iters=100)
    )
    roof = entanglement.mixed_entanglement(
        ke.werner_state(0.6), ke.OptimizerConfig(restarts=1, max_iters=200), terms=4
    )
    lower = entanglement.asymmetry_lower_bound(
        rho, "B", ke.OptimizerConfig(restarts=1, max_iters=100)
    )
    records = []
    sampled = weakvalue.sampled_max_nonreality(rho.matrix, (2, 3), basis, 1000, 0,
                                               sink=records)
    return (value, basis, diag,
            roof.value, roof.probabilities, [s.amplitudes for s in roof.pure_states],
            roof.diagnostics, lower, sampled, records)


def test_traced_searches_match_untraced():
    plain = solve()
    tracer = tracer_module.Tracer()
    with tracer.installed():
        traced = solve()
    value, basis, diag, roof_value, probs, states, roof_diag, lower, sampled, records = traced
    assert value == plain[0] and diag == plain[2]
    assert np.array_equal(basis, plain[1])
    assert roof_value == plain[3] and roof_diag == plain[6]
    assert np.array_equal(probs, plain[4])
    assert all(np.array_equal(a, b) for a, b in zip(states, plain[5], strict=True))
    assert lower[0] == plain[7][0] and lower[2] == plain[7][2]
    assert np.array_equal(lower[1], plain[7][1])
    assert sampled == plain[8] and records == plain[9]
    # identity, warm, restart0 for each basis search; identity, restart0 for the roof
    assert tracer.calls["optimize.nelder_mead"] == 8
    assert tracer.calls["optimize.objective"] > 0
    assert tracer.calls["optimize.unitary_from_angles"] > 0
    assert 3 <= tracer.counts["optimize.starts_at_best"] <= 8
    for name in ("kd.max_nonreality_mat", "entanglement.pattern_sup",
                 "linalg.commutator_trace_norm"):
        assert tracer.calls[name] > 0
    # two preparations of 1000 shots for each of the 2 first-basis outcomes,
    # with one second-basis solve for both outcomes
    assert tracer.counts["weakvalue.shots"] == 4000
    assert tracer.calls["weakvalue.sampled_max_nonreality"] == 1
    assert tracer.calls["kd.optimal_second_basis"] == 1


def test_spans_see_every_evaluation():
    # each search calls its kernel once per objective call, plus once per
    # start point the driver scores, and builds one more unitary for the
    # result; counts pinned on a 3x3 Haar state. A search that descends
    # scores each start once; a search whose identity or warm point scores
    # within tol of its floor 0 scores the named points up to that one and
    # descends from none. The basis searches make no eigvalsh call; the roof
    # run makes four: one to accept the Werner state, two for the
    # marginal-entropy bounds, one for the floor. The Haar-pure searches score
    # the ket, the rank-2 search the matrix; their counts follow the roundoff
    # of each path
    rho = ke.haar_pure(ke.BipartiteDims(3, 3), 3).density()
    rank_two = ke.random_mixed(ke.BipartiteDims(3, 3), 2, 5)
    maximally_mixed = ke.werner_state(0.0)
    rho_a = ke.random_mixed(ke.BipartiteDims(2, 2), 2, 5).marginal("A")
    qubit_mixed = ke.DensityOperator(ke.BipartiteDims(2, 2), np.kron(rho_a, np.eye(2) / 2))
    asymmetry = ("entanglement.pattern_sup", "linalg.commutator_trace_norm")
    searches = (
        (lambda: entanglement.minimized_nonreality(
            rho, ke.OptimizerConfig(restarts=2, max_iters=100)),
         ("kd.max_nonreality_mat", "linalg.commutator_trace_norm"), 684, 4, 4, 0),
        (lambda: entanglement.asymmetry_lower_bound(
            rho, "B", ke.OptimizerConfig(restarts=2, max_iters=100)),
         asymmetry, 738, 4, 4, 0),
        (lambda: entanglement.minimized_nonreality(
            rank_two, ke.OptimizerConfig(restarts=2, max_iters=100)),
         ("kd.max_nonreality_mat", "linalg.commutator_trace_norm"), 656, 4, 4, 0),
        (lambda: entanglement.mixed_entanglement(
            ke.werner_state(0.6), ke.OptimizerConfig(restarts=2, max_iters=200), terms=4),
         ("entanglement.roof_functional",), 976, 3, 3, 4),
        (lambda: entanglement.asymmetry_lower_bound(maximally_mixed, "A"), asymmetry, 0, 0, 1, 0),
        (lambda: entanglement.asymmetry_lower_bound(qubit_mixed, "A"), asymmetry, 0, 0, 2, 0),
    )
    for search, kernels, objective_calls, starts, scored, eigvalsh_calls in searches:
        tracer = tracer_module.Tracer()
        with tracer.installed():
            search()
        assert tracer.calls["optimize.nelder_mead"] == starts
        assert tracer.calls["optimize.objective"] == objective_calls
        for name in kernels:
            assert tracer.calls[name] == objective_calls + scored
        assert tracer.calls["optimize.unitary_from_angles"] == objective_calls + scored + 1
        assert tracer.calls["linalg.eigvalsh"] == eigvalsh_calls
