"""Spans and counts at the package's module boundaries, recorded from outside
the package.

``Tracer.installed()`` replaces each traced callable by a timing wrapper in
every ``kdentangle`` module that binds it (``_max_nonreality_mat`` is bound in
both ``kd`` and ``entanglement``), plus ``numpy.linalg.eigvalsh``, and puts
the originals back on exit. Wrappers only observe: arguments and results pass
through untouched, so traced results are bit-identical to untraced ones.

A span's self time is its duration minus the durations of the spans it
caused. Spans are kept in memory, up to ``SPAN_CAP``, and written by
``write_spans`` when the run ends; calls, self time and inclusive time are
aggregated for every span.
"""

import contextlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from kdentangle import cli, entanglement, kd, linalg, optimize, states, weakvalue

SPAN_CAP = 50_000

# (span name, module, attribute): the layer entry points a span is recorded for.
SPANS = [
    ("linalg.eigvalsh", np.linalg, "eigvalsh"),
    ("linalg.commutator_trace_norm", linalg, "commutator_trace_norm"),
    ("kd.max_nonreality_mat", kd, "_max_nonreality_mat"),
    ("kd.tables", kd, "kd_marginal"),
    ("kd.tables", kd, "kd_full"),
    ("kd.tables", kd, "reconstruct_state"),
    ("kd.optimal_second_basis", kd, "optimal_second_basis"),
    ("entanglement.pattern_sup", entanglement, "_pattern_sup"),
    ("entanglement.minimized_nonreality", entanglement, "minimized_nonreality"),
    ("entanglement.mixed_entanglement", entanglement, "mixed_entanglement"),
    ("entanglement.asymmetry_lower_bound", entanglement, "asymmetry_lower_bound"),
    ("entanglement.nonreality_entropy", entanglement, "nonreality_entropy"),
    ("optimize.unitary_from_angles", optimize, "unitary_from_angles"),
    ("states.load", states, "load_state"),
    ("cli.main", cli, "main"),
]


def _bindings(module, attr):
    """Every (module, name) pair in the package bound to ``module.attr``."""
    target = getattr(module, attr)
    found = [(module, attr)]
    for name, mod in list(sys.modules.items()):
        if mod is module or not (name == "kdentangle" or name.startswith("kdentangle.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is target:
                found.append((mod, key))
    return target, found


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.top_s = 0.0            # time covered by spans with no parent
        self.top_self_s = 0.0       # self time of spans with no parent
        self.spans = []             # (id, solve, name, parent id, start, end)
        self.solve = 0
        self._next_id = 0
        self._stack = []            # open spans: [id, start, child time]
        self._searches = []         # final start values of each open search

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` in a span named ``name``; ``after(args, kwargs, result)``
        may add counts."""
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                else:
                    self.top_s += duration
                    self.top_self_s += duration - frame[2]
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                self.incl_s[name] += duration
                if span_id < SPAN_CAP:
                    self.spans.append((span_id, self.solve, name, parent, frame[1], end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _sampled(self, fn):
        """Span that also counts the shots drawn: two preparations of
        ``shots_per_cell`` for each first-basis outcome."""
        signature = inspect.signature(fn)

        def count(args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            self.counts["weakvalue.shots"] += 2 * int(bound["dims"][0]) * int(
                bound["shots_per_cell"])

        return self.wrap("weakvalue.sampled_max_nonreality", fn, count)

    def _minimize(self, fn):
        """Nelder-Mead span whose objective is wrapped too, so nfev and the
        objective's self time are counted."""
        span = self.wrap("optimize.nelder_mead", fn)

        def traced(fun, x0, *args, **kwargs):
            res = span(self.wrap("optimize.objective", fun), x0, *args, **kwargs)
            self.counts["optimize.nelder_mead.nit"] += int(res.nit)
            self.counts["optimize.converged"] += bool(res.success)
            if self._searches:
                self._searches[-1].append(float(res.fun))
            return res

        return traced

    def _search(self, fn):
        """Group the starts of one multistart search to count those that end
        within the configured tolerance of the search's best value."""
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            config = signature.bind(*args, **kwargs).arguments.get("config")
            tol = (config or optimize.OptimizerConfig()).tol
            self._searches.append([])
            try:
                return fn(*args, **kwargs)
            finally:
                finals = self._searches.pop()
                if finals:
                    best = min(finals)
                    self.counts["optimize.starts_at_best"] += sum(
                        f <= best + tol for f in finals)

        return traced

    def _roof_functional(self, factory):
        def traced(*args, **kwargs):
            return self.wrap("entanglement.roof_functional", factory(*args, **kwargs))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced binding for the duration of the block."""
        replacements = [(module, attr, lambda fn, n=name: self.wrap(n, fn))
                        for name, module, attr in SPANS]
        replacements += [
            (weakvalue, "sampled_max_nonreality", self._sampled),
            (optimize, "_scipy_minimize", self._minimize),
            (optimize, "minimize_over_bases", self._search),
            (optimize, "_multistart", self._search),
            (entanglement, "_marginal_entropy_functional", self._roof_functional),
        ]
        undo = []
        try:
            for module, attr, make in replacements:
                original, bindings = _bindings(module, attr)
                wrapper = make(original)
                for mod, key in bindings:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(undo):
                setattr(mod, key, original)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,solve,name,parent,start_s,end_s\n")
            for span_id, solve, name, parent, start, end in sorted(self.spans):
                fh.write(f"{span_id},{solve},{name},{parent},{start:.9f},{end:.9f}\n")
