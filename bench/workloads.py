"""The benchmark workloads: inputs made from a seed, one timed solve per
call, and the reference each result is checked against.

A solve is one top-level call into the package: one basis search, one convex
roof, one state's bound sandwich, or one CLI command. Solves call through the
module attribute (``entanglement.mixed_entanglement(...)``), never through a
name bound here, so the tracer's patches reach them.

The workload seed makes the states; the package receives only those. Every
optimizer configuration keeps the verify suites' default seed 0, so a run's
search work depends on its states alone.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from kdentangle import cli, entanglement, states
from kdentangle.optimize import OptimizerConfig

# Pure states made in set-up; a run that outlasts the pool cycles through it again.
POOL_SIZE = 600


@dataclass
class Outcome:
    """Check result of one solve. ``dev`` is the deviation from the route's
    reference; ``digest`` fingerprints the result bit for bit."""

    ok: bool
    dev: float
    digest: bytes
    reason: str = ""
    counts: dict = field(default_factory=dict)


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(repr(p).encode())
    return h.digest()


def _diag(d):
    return (d.restarts, d.best_start, d.iterations, d.converged)


class PureSearch:
    """Haar pure states cycling through 2x2, 2x3 and 3x3, each solved by the
    numeric basis search at the prop2 configuration and checked against the
    closed form (nonreality entropy of the A marginal)."""

    name = "pure-search"
    round_size = 3
    tol = 1e-4

    def __init__(self, seed: int, workdir: str):
        dims = [states.BipartiteDims(*d) for d in ((2, 2), (2, 3), (3, 3))]
        rngs = [np.random.default_rng([seed, 33, d.da, d.db]) for d in dims]
        self.inputs = [
            states.haar_pure(dims[k % 3], rngs[k % 3]).density()
            for k in range(POOL_SIZE)
        ]
        self.trace_inputs = self.inputs[:6]
        self.config = OptimizerConfig(restarts=2, max_iters=300)

    def solve(self, rho):
        return entanglement.minimized_nonreality(rho, self.config)

    def check(self, rho, result) -> Outcome:
        value, basis, diag = result
        ref = entanglement.nonreality_entropy(rho.marginal("A"))
        dev = abs(value - ref)
        ok = dev <= self.tol
        return Outcome(ok, dev, _digest(value, basis, _diag(diag)),
                       "" if ok else f"|search - closed form| = {dev:.3e}")


class WernerRoof:
    """Convex roof of the two-qubit Werner family at the roof suite's p values,
    four decomposition terms, checked against the spin-flip concurrence.

    The family is fixed, so the seed only rotates the order of a round and
    every run does the same work."""

    name = "werner-roof"
    round_size = 6
    tol = 2e-3
    p_values = (0.2, 0.4, 0.5, 0.6, 0.8, 1.0)
    # Identity start plus two seeded starts. Each seeded start alone reaches
    # the zero roof of the separable p = 0.2 state; about one seeded start in
    # ten misses it, so one would leave no margin.
    restarts = 2

    def __init__(self, seed: int, workdir: str):
        family = {p: states.werner_state(p) for p in self.p_values}
        # separable, entangled mixed, pure
        self.trace_inputs = [family[0.2], family[0.6], family[1.0]]
        shift = seed % len(self.p_values)
        order = self.p_values[shift:] + self.p_values[:shift]
        self.inputs = [family[p] for p in order]
        self.config = OptimizerConfig(restarts=self.restarts, max_iters=2000)

    def solve(self, rho):
        return entanglement.mixed_entanglement(rho, self.config, terms=4)

    def check(self, rho, roof) -> Outcome:
        oracle = entanglement.wootters_concurrence(rho)
        dev = abs(roof.value / entanglement.roof_normalization(rho.dims) - oracle)
        ok = dev <= self.tol
        amps = [s.amplitudes for s in roof.pure_states]
        return Outcome(ok, dev,
                       _digest(roof.value, roof.probabilities, *amps,
                               _diag(roof.diagnostics)),
                       "" if ok else f"|roof - concurrence| = {dev:.3e}")


class MixedSandwich:
    """prop5's random rank-2 mixtures on 2x2 and 2x3 at prop5's configurations:
    the roof at the default term count, the asymmetry lower bound on both
    sides and both marginal upper bounds. A roof above the smaller upper bound
    fails; an asymmetry above the roof is the disproven claim and is only
    counted.

    The states are the first six prop5 instances (suite seed 0), one round,
    and the seed only rotates their order: a run has time for six of these
    solves, and six fresh states per seed made run-to-run work differ by more
    than the metrics' bounds."""

    name = "mixed-sandwich"
    round_size = 6
    slack = 1e-6

    def __init__(self, seed: int, workdir: str):
        families = [states.BipartiteDims(2, 2), states.BipartiteDims(2, 3)]
        instances = [
            states.random_mixed(families[k % 2], 2, np.random.default_rng([0, 36, k]))
            for k in range(self.round_size)
        ]
        shift = seed % self.round_size
        self.inputs = instances[shift:] + instances[:shift]
        self.trace_inputs = instances[:2]
        self.roof_config = OptimizerConfig(restarts=8, max_iters=800)
        self.bound_config = OptimizerConfig(restarts=6, max_iters=400)

    def solve(self, rho):
        roof = entanglement.mixed_entanglement(rho, self.roof_config)
        lower_a = entanglement.asymmetry_lower_bound(rho, "A", self.bound_config)
        lower_b = entanglement.asymmetry_lower_bound(rho, "B", self.bound_config)
        upper_a = entanglement.nonreality_entropy(rho.marginal("A"))
        upper_b = entanglement.nonreality_entropy(rho.marginal("B"))
        return roof, lower_a, lower_b, upper_a, upper_b

    def check(self, rho, result) -> Outcome:
        roof, (la, ba, _), (lb, bb, _), ua, ub = result
        dev = max(roof.value - min(ua, ub), 0.0)
        ok = dev <= self.slack
        violation = int(max(la, lb) > roof.value + self.slack)
        amps = [s.amplitudes for s in roof.pure_states]
        return Outcome(ok, dev,
                       _digest(roof.value, roof.probabilities, *amps,
                               _diag(roof.diagnostics), la, ba, lb, bb, ua, ub),
                       "" if ok else f"roof above upper bound by {dev:.3e}",
                       {"sandwich.lower_violations": violation})


def _closed_form(amplitudes: np.ndarray, da: int, db: int) -> float:
    """Pure-state value from the Schmidt coefficients, independent of the
    package: ``sum_j sqrt(l_j (1 - l_j))`` with ``l_j`` the squared singular
    values of the amplitude matrix."""
    lam = np.linalg.svd(amplitudes.reshape(da, db), compute_uv=False) ** 2
    return float(np.sqrt(np.clip(lam * (1.0 - lam), 0.0, None)).sum())


class CliReadme:
    """The README commands, run in process through ``kdentangle.cli.main``
    with every output file in a scratch directory, plus a ``--state`` file of
    a seeded 2x3 pure state, written in set-up and read back by each
    ``pure --state`` call. Repeats of a command must print and write the same
    bytes, apart from wall time."""

    name = "cli-readme"
    round_size = 6
    weak_shots = 10**6
    weak_band = 5.0 * 4 / math.sqrt(weak_shots)  # the weak suite's band

    def __init__(self, seed: int, workdir: str):
        out = lambda name: os.path.join(workdir, name)
        state = states.haar_pure(states.BipartiteDims(2, 3),
                                 np.random.default_rng([seed, 40]))
        states.save_state(state, out("state.json"))
        self.state_value = _closed_form(state.amplitudes, 2, 3)
        self.inputs = [
            ("kd-dist", ["kd-dist", "--builtin", "bell", "--basis-a", "computational",
                         "--basis-y", "computational", "--out", out("table.csv")],
             [out("table.csv")]),
            ("kd-dist-reconstruct",
             ["kd-dist", "--builtin", "bell", "--reconstruct",
              "--basis-y", "random:3", "--out", out("table_full.csv")],
             [out("table_full.csv")]),
            ("pure-builtin", ["pure", "--builtin", "max-entangled:3"], []),
            ("pure-state", ["pure", "--state", out("state.json")], []),
            ("bounds", ["bounds", "--builtin", "werner:0.0"], []),
            ("weak-sim", ["weak-sim", "--builtin", "bell", "--shots", str(self.weak_shots),
                          "--records", out("shots.csv")],
             [out("shots.csv")]),
        ]
        self.trace_inputs = list(self.inputs)
        self._first = {}

    def solve(self, item):
        _, argv, _ = item
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, item, result) -> Outcome:
        label, _, files = item
        code, text, err = result
        if code != 0:
            return Outcome(False, math.inf, _digest(code, err),
                           f"{label}: exit {code}: {err.strip()}")
        written = b""
        for path in files:
            with open(path, "rb") as fh:
                written += fh.read()
        stable = "\n".join(
            line for line in text.splitlines() if '"wall_time_s"' not in line
        ).encode()
        digest = _digest(code, stable, written)
        counts = {"cli.bytes_written": len(written)}
        ok, dev, reason = self._route_check(label, text, files)
        first = self._first.setdefault(label, digest)
        if first != digest:
            ok, reason = False, f"{label}: output differs from its first run"
        return Outcome(ok, dev, digest, reason, counts)

    def _route_check(self, label, text, files):
        if label == "kd-dist":
            nonreality = float(text.split("nonreality:")[1].split()[0])
            with open(files[0], encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            total = sum(float(r.split(",")[2]) for r in rows)
            dev = max(abs(nonreality), abs(total - 1.0))
            return len(rows) == 8 and dev <= 1e-10, dev, f"{label}: dev {dev:.3e}"
        if label == "kd-dist-reconstruct":
            dev = float(text.split("reconstruction trace distance:")[1].split()[0])
            return dev <= 1e-8, dev, f"{label}: distance {dev:.3e}"
        report = json.loads(text)
        if label == "pure-builtin":
            dev = abs(report["value"] - math.sqrt(2.0))
            return dev <= 1e-10, dev, f"{label}: dev {dev:.3e}"
        if label == "pure-state":
            dev = abs(report["value"] - self.state_value)
            return dev <= 1e-10, dev, f"{label}: dev {dev:.3e}"
        if label == "bounds":
            dev = max(report["best_lower"] - report["best_upper"], 0.0)
            return dev == 0.0, dev, f"{label}: lower above upper by {dev:.3e}"
        dev = abs(report["estimate"] - 1.0)
        return dev <= self.weak_band, dev, f"{label}: dev {dev:.3e} beyond band"


WORKLOADS = {w.name: w for w in (PureSearch, WernerRoof, MixedSandwich, CliReadme)}
