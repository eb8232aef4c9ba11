"""Benchmark entry point: one closed-loop client, one solve at a time.

    python3 bench/run.py --workload pure-search --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else. With ``--trace 0`` the run times solves
for ``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it
runs the workload's trace set once untraced and then traced, and reports the
per-layer metrics. Every solve is checked against its route's reference.
End-to-end solve timings are scaled to the host speed ``yardstick.NOMINAL_S``
stands for by the run's mean yardstick sample, and set-up time by reference
imports (``yardstick.reference_import_s``); the report keeps the raw values.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full report (environment, every metric with its unit, the raw timings,
one digest per solve).
"""

import time

T_START = time.perf_counter()

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PAIRS = 3           # fresh-interpreter set-ups, each after a reference import
HARD_STOP = 3.0           # stop mid-round once a run reaches this many --seconds
TAIL_ABOVE = 10           # solves the tail percentile must leave above it
TAIL_FLOOR = 75           # lowest percentile reported as the tail

END_TO_END = [
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("solve_s_p50", "s"),
    ("solve_s_tail", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics, averaged over the traced solves: "<span>.calls" and
# "<span>.self_s" come from the tracer's spans, the rest are named here.
PER_LAYER = [
    ("linalg.eigvalsh.calls", "count/solve"),
    ("linalg.eigvalsh.self_s", "s/solve"),
    ("linalg.commutator_trace_norm.calls", "count/solve"),
    ("linalg.commutator_trace_norm.self_s", "s/solve"),
    ("kd.max_nonreality_mat.calls", "count/solve"),
    ("kd.max_nonreality_mat.self_s", "s/solve"),
    ("kd.tables.calls", "count/solve"),
    ("kd.tables.self_s", "s/solve"),
    ("kd.optimal_second_basis.calls", "count/solve"),
    ("kd.optimal_second_basis.self_s", "s/solve"),
    ("entanglement.pattern_sup.calls", "count/solve"),
    ("entanglement.pattern_sup.self_s", "s/solve"),
    ("entanglement.roof_functional.calls", "count/solve"),
    ("entanglement.roof_functional.self_s", "s/solve"),
    ("entanglement.mixed_entanglement.incl_s", "s/solve"),
    ("entanglement.asymmetry_lower_bound.incl_s", "s/solve"),
    ("optimize.unitary_from_angles.calls", "count/solve"),
    ("optimize.unitary_from_angles.self_s", "s/solve"),
    ("optimize.nelder_mead.starts", "count/solve"),
    ("optimize.nelder_mead.nit", "count/solve"),
    ("optimize.nelder_mead.self_s", "s/solve"),
    ("optimize.objective.calls", "count/solve"),
    ("optimize.objective.self_s", "s/solve"),
    ("optimize.starts_at_best_frac", "ratio"),
    ("optimize.converged_frac", "ratio"),
    ("weakvalue.sampled_max_nonreality.calls", "count/solve"),
    ("weakvalue.sampled_max_nonreality.self_s", "s/solve"),
    ("weakvalue.shots", "count/solve"),
    ("states.load.self_s", "s/solve"),
    ("cli.main.self_s", "s/solve"),
    ("cli.bytes_written", "B/solve"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_s", "s/solve"),
    ("route.max_dev", "abs"),
    ("sandwich.lower_violations", "count"),
]


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _import_package():
    """Import numpy, scipy and the package from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import kdentangle

    if Path(kdentangle.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"kdentangle imported from {kdentangle.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, asked from the library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": h.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# timing loops
# ---------------------------------------------------------------------------

def _timed(workload, item):
    """One timed solve: ``(wall, result, error)``."""
    start = time.perf_counter()
    try:
        result = workload.solve(item)
    except Exception as exc:  # a raise is a failed solve, not a failed run
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


def _checked(workload, item, result, error):
    from workloads import Outcome

    if error is not None:
        return Outcome(False, math.nan, b"", repr(error))
    try:
        return workload.check(item, result)
    except Exception as exc:  # a result the check cannot read is a failed solve
        return Outcome(False, math.nan, b"", f"check raised {exc!r}")


def _solve(workload, item):
    """One timed solve and its untimed check: ``(wall, outcome)``."""
    wall, result, error = _timed(workload, item)
    return wall, _checked(workload, item, result, error)


def run_untraced(workload, seconds: float, yardstick):
    """Whole rounds of the workload's input cycle while the next round is
    predicted to end within ``seconds``, with yardstick samples between
    solves. Returns the solves and the time spent outside the yardstick."""
    solves, round_walls = [], []
    start = time.perf_counter()
    yardstick.maybe_sample()
    index = 0
    while True:
        round_start = time.perf_counter()
        for _ in range(workload.round_size):
            item = workload.inputs[index % len(workload.inputs)]
            index += 1
            solves.append(_solve(workload, item))
            yardstick.maybe_sample()
            if time.perf_counter() - start > HARD_STOP * seconds:
                return solves, time.perf_counter() - start - yardstick.total_s
        round_walls.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(round_walls) > seconds:
            return solves, elapsed - yardstick.total_s


def run_traced(workload, seconds: float, tracer):
    """Passes over the trace set while the next pass is predicted to end
    within ``seconds``. Each input is solved untraced and traced side by side,
    in alternating order from pass to pass, for the tracing overhead; each
    traced result must match the untraced one bit for bit. Uncovered time is
    the part of a traced solve inside no layer span: outside every span or in
    the own time of the entry-point span the solve called."""
    start = time.perf_counter()
    plain, traced, pass_walls = [], [], []
    uncovered = 0.0

    def traced_solve(item):
        nonlocal uncovered
        covered, entry_self = tracer.top_s, tracer.top_self_s
        with tracer.installed():
            wall, result, error = _timed(workload, item)
        tracer.solve += 1
        uncovered += (wall - (tracer.top_s - covered)
                      + (tracer.top_self_s - entry_self))
        return wall, _checked(workload, item, result, error)

    while True:
        pass_start = time.perf_counter()
        for item in workload.trace_inputs:
            if len(pass_walls) % 2:
                pair = traced_solve(item), _solve(workload, item)
            else:
                pair = reversed((_solve(workload, item), traced_solve(item)))
            (wall, outcome), reference = pair
            if outcome.digest != reference[1].digest:
                outcome.ok = False
                outcome.reason = "traced result differs from the untraced result"
            traced.append((wall, outcome))
            plain.append(reference)
        pass_walls.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_walls) > seconds:
            break
    overhead = sum(w for w, _ in traced) / sum(w for w, _ in plain) - 1.0
    return plain, traced, overhead, uncovered


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def input_medians(walls, inputs: int):
    """Median solve time of each distinct input of a run, where solve ``i``
    ran input ``i % inputs``."""
    groups = {}
    for i, wall in enumerate(walls):
        groups.setdefault(i % inputs, []).append(wall)
    return [statistics.median(g) for g in groups.values()]


def tail(times):
    """Nearest-rank value of the highest whole percentile that leaves at least
    ``TAIL_ABOVE`` of ``times`` above it, with that percentile. Below
    ``TAIL_FLOOR`` (fewer than 40 times) that percentile is no tail, so the
    90th percentile interpolated between times is reported instead: a single
    slowest solve swings with every burst of load on a shared host."""
    ordered = sorted(times)
    n = len(ordered)
    pct = math.floor(100 * (n - TAIL_ABOVE) / n)
    if pct < TAIL_FLOOR:
        if n == 1:
            return ordered[0], 90
        return statistics.quantiles(ordered, n=10, method="inclusive")[-1], 90
    return ordered[math.ceil(pct * n / 100) - 1], pct


def _peak_rss_mb(children_kb: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + children_kb) / 1024.0


def setup_pair(workload_name: str, seed: int):
    """A reference import and then the workload's set-up, each timed by a
    fresh interpreter: ``(set-up s, reference s)``."""
    from yardstick import reference_import_s

    reference = reference_import_s()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True, cwd=str(ROOT),
    )
    return float(out.stdout.strip().splitlines()[-1]), reference


def layer_metrics(tracer, outcomes, n, overhead, uncovered):
    starts = tracer.calls["optimize.nelder_mead"]
    per = lambda v: v / n
    values = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = per(tracer.calls[span])
        elif field in ("self_s", "incl_s"):
            values[name] = per(getattr(tracer, field)[span])
    values.update({
        "optimize.nelder_mead.starts": per(starts),
        "optimize.nelder_mead.nit": per(tracer.counts["optimize.nelder_mead.nit"]),
        "optimize.starts_at_best_frac":
            tracer.counts["optimize.starts_at_best"] / starts if starts else 0.0,
        "optimize.converged_frac":
            tracer.counts["optimize.converged"] / starts if starts else 0.0,
        "weakvalue.shots": per(tracer.counts["weakvalue.shots"]),
        "cli.bytes_written": per(sum(o.counts.get("cli.bytes_written", 0) for o in outcomes)),
        "trace.overhead_frac": overhead,
        "trace.uncovered_s": per(uncovered),
    })
    return values


def _with_units(values, table):
    units = dict(table)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        _import_package()
    except ImportError as exc:
        return _fail(f"cannot import kdentangle from {SRC}: {exc}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    # Relative to the working directory, so paths the CLI prints, and with
    # them the result digest, do not depend on where the checkout lives.
    workdir = os.path.relpath(
        OUT_DIR / f"{args.workload}-s{args.seed}{'-probe' if args.setup_probe else ''}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        return measure(args, workload, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, setup_s) -> int:
    from tracer import Tracer
    from yardstick import NOMINAL_IMPORT_S, Yardstick

    env = environment(args.seed)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}
    if args.trace:
        tracer = Tracer()
        plain, traced, overhead, uncovered = run_traced(workload, args.seconds, tracer)
        solves = plain + traced
        # deviations and violations once per distinct input of the trace set
        outcomes = [o for _, o in plain[:len(workload.trace_inputs)]]
        values = layer_metrics(tracer, [o for _, o in traced], len(traced),
                               overhead, uncovered)
        table = PER_LAYER
        report["traced_solves"] = len(traced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-s{args.seed}.csv")
    else:
        yardstick = Yardstick()
        solves, elapsed = run_untraced(workload, args.seconds, yardstick)
        outcomes = [o for _, o in solves]
        walls = [w for w, _ in solves]
        children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        pairs = [setup_pair(args.workload, args.seed) for _ in range(SETUP_PAIRS)]
        slowdown = yardstick.slowdown()
        # Over each input's median: a workload that cycles a few inputs of very
        # different cost would otherwise see its tail jump from one input to
        # another as the number of rounds a run fits changes.
        medians = input_medians(walls, len(workload.inputs))
        tail_value, tail_pct = tail(medians)
        raw = {
            "setup_s": statistics.median(p for p, _ in pairs),
            "solves_per_s": sum(o.ok for o in outcomes) / elapsed,
            "solve_s_p50": statistics.median(walls),
            "solve_s_tail": tail_value,
        }
        values = {
            "setup_s": NOMINAL_IMPORT_S * statistics.median(p / r for p, r in pairs),
            "solves_per_s": raw["solves_per_s"] * slowdown,
            "solve_s_p50": raw["solve_s_p50"] / slowdown,
            "solve_s_tail": tail_value / slowdown,
            "peak_rss_mb": _peak_rss_mb(children_kb),
        }
        table = END_TO_END
        report.update({"raw": raw, "host_slowdown": slowdown,
                       "yardstick_samples": yardstick.samples,
                       "yardstick_units": yardstick.units,
                       "own_setup_s": setup_s, "setup_pairs_s": pairs,
                       "measured_s": elapsed,
                       "tail": {"percentile": tail_pct, "solves": len(walls),
                                "inputs": len(medians)}})

    failed = sum(not o.ok for _, o in solves)
    values["route.max_dev"] = max(
        (o.dev for o in outcomes if math.isfinite(o.dev)), default=0.0)
    values["sandwich.lower_violations"] = sum(
        o.counts.get("sandwich.lower_violations", 0) for o in outcomes)
    values["failed_frac"] = failed / len(solves)
    report["digests"] = [o.digest.hex()[:16] for o in outcomes]
    report["failures"] = [o.reason for _, o in solves if not o.ok][:10]
    report["metrics"] = {
        **_with_units(values, table),
        "failed_frac": {"value": values["failed_frac"], "unit": "ratio"},
        "max_dev": {"value": values["route.max_dev"], "unit": "abs"},
        "sandwich.lower_violations": {"value": values["sandwich.lower_violations"],
                                      "unit": "count"},
    }
    result = {"correct": failed == 0, "attempted": len(solves), "failed": failed,
              "metrics": _with_units(values, table)}
    for name, metric in report["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
