"""Run every workload untraced on seeds 1-10, then seed 1 again untraced and
once traced, and write ``BENCH_<label>.json`` with each metric's median and
quartiles.

    python3 bench/baseline.py --label baseline --out bench/baseline

Run it from the root of a source checkout, on a host with nothing else of
yours running. It prints each end-to-end metric's quartile spread over its
median next to the bound ``BENCHMARK.json`` sets for it. It exits with code 1
if a run fails a check or the repeated seed-1 run gives other result digests
than the first, over the solves both runs made.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark run: ``(report, result)`` from its last two lines."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}: {out.stderr.strip()}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values, unit):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "unit": unit, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    bench = {"label": args.label, "seconds": seconds, "seeds": SEEDS, "workloads": {}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            report, result = run(workload, seed, seconds, 0)
            runs.append((report, result))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        repeat, repeat_result = run(workload, SEEDS[0], seconds, 0)
        first = runs[0][0]["digests"]
        common = min(len(first), len(repeat["digests"]))
        same = first[:common] == repeat["digests"][:common]
        print(f"  {workload} seed {SEEDS[0]} repeated: {common} solves, "
              f"digests {'identical' if same else 'DIFFER'}", flush=True)
        traced, traced_result = run(workload, SEEDS[0], seconds, 1)
        bench.setdefault("environment", runs[0][0]["environment"])
        names = runs[0][0]["metrics"]
        correct = all(r["correct"] for r in [*(r for _, r in runs), repeat_result,
                                             traced_result])
        if not correct:
            problems.append(f"{workload}: a run failed a check")
        if not same:
            problems.append(f"{workload}: seed {SEEDS[0]} gave other digests when repeated")
        entry = {
            "correct": correct,
            "attempted": [r["attempted"] for _, r in runs],
            "repeat": {"seed": SEEDS[0], "solves_compared": common, "identical": same},
            "tail": [rep["tail"] for rep, _ in runs],
            "own_setup_s": [rep["own_setup_s"] for rep, _ in runs],
            "setup_pairs_s": [rep["setup_pairs_s"] for rep, _ in runs],
            "host_slowdown": [rep["host_slowdown"] for rep, _ in runs],
            "raw": {name: summary([rep["raw"][name] for rep, _ in runs], names[name]["unit"])
                    for name in runs[0][0]["raw"]},
            "digests": {str(rep["seed"]): rep["digests"] for rep, _ in runs},
            "end_to_end": {
                name: summary([rep["metrics"][name]["value"] for rep, _ in runs],
                              names[name]["unit"])
                for name in names
            },
            "per_layer": {"seed": SEEDS[0], "traced_solves": traced["traced_solves"],
                          **traced["metrics"]},
        }
        bench["workloads"][workload] = entry
        for name, bound in bounds.items():
            spread = entry["end_to_end"][name]["spread"]
            print(f"  {workload} {name}: median {entry['end_to_end'][name]['median']:.4g} "
                  f"spread {spread:.3f} bound {bound}", flush=True)
    out = Path(args.out) / f"BENCH_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
