"""Command-line front end: table emission, entanglement reports, bound
reports, verification suites, and the sampled estimation pipeline.

Exit codes: 0 success, 1 verification failure, 2 input/config error,
3 singular basis pair, 4 optimizer bound violation, 141 standard output
closed by its reader.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from . import kd, linalg, verify, weakvalue
from .entanglement import (
    ASYMMETRY_SEARCH,
    ROOF_CAP,
    ROOF_SEARCH,
    bounds_report,
    mixed_entanglement,
    pure_entanglement,
    roof_normalization,
)
from .errors import BadSpec, BasisPairSingular, KdToolError, OptimizerFailed
from .optimize import RESTART_CAP, OptimizerConfig
from .states import BipartiteDims, as_density, as_pure, load_state, make_basis, make_state

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_SINGULAR = 3
EXIT_OPTIMIZER = 4
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports it

VERIFY_DIM_CAP = 9
MIN_WEAK_SHOTS = 1000


def _fmt(value):
    """Round floats to 12 significant digits recursively for stable output."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, complex):
        return [_fmt(value.real), _fmt(value.imag)]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_fmt(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return _fmt(value.item())
    return value


def _emit(report: dict, out_path: str | None, fmt: str = "json"):
    if fmt == "csv":
        lines = ["field,value"]
        for key, value in _fmt(report).items():
            lines.append(f"{key},{json.dumps(value)}")
        text = "\n".join(lines)
    else:
        text = json.dumps(_fmt(report), indent=2)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _parse_dims(text: str) -> BipartiteDims:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise BadSpec(f"dims must look like AxB, got {text!r}")
    try:
        return BipartiteDims(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise BadSpec(f"dims must be integers, got {text!r}") from exc


def _resolve_state(args):
    """The state of ``--state`` or ``--builtin``. ``--dims`` sizes the
    builtins that take a size, and any state whose dims differ from it is
    rejected rather than silently run at its own dims."""
    if args.state and args.builtin:
        raise BadSpec("provide either --state or --builtin, not both")
    dims = _parse_dims(args.dims) if args.dims else None
    if args.state:
        state = load_state(args.state)
    elif args.builtin:
        state = make_state(args.builtin, dims=dims, seed=args.seed)
    else:
        raise BadSpec("provide a state via --state or --builtin")
    if dims is not None and state.dims != dims:
        raise BadSpec(f"--dims {dims.da}x{dims.db} does not match the state's "
                      f"dims {state.dims.da}x{state.dims.db}")
    return state


def _config_from(args) -> OptimizerConfig:
    """The command's search preset with the ``--restarts`` and ``--seed`` read."""
    return dataclasses.replace(args.search, restarts=args.restarts, seed=args.seed)


def _report(command):
    """Turn a command that returns its own fields and the settings it read
    into one that emits the full report: the command name, its fields, the
    seed, its settings and the wall time, in that order."""

    @functools.wraps(command)
    def run(args) -> int:
        t0 = time.time()
        fields, settings = command(args)
        report = {"command": args.command, **fields, "seed": args.seed, **settings,
                  "wall_time_s": time.time() - t0}
        _emit(report, args.out, args.format)
        return EXIT_OK

    return run


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_kd_dist(args) -> int:
    rho = as_density(_resolve_state(args))
    dims = rho.dims
    basis_a = make_basis(args.basis_a, dims.da)
    basis_y = make_basis(args.basis_y, dims.total)
    full = args.reconstruct or args.form == "full"
    if full:
        basis_b = make_basis(args.basis_b or "computational", dims.db)
        dist = kd.kd_full(rho, basis_a, basis_b, basis_y)
    else:
        dist = kd.kd_marginal(rho, basis_a, basis_y)
    if args.format == "json":
        out = args.out or "kd_table.json"
        cells = [
            {"x": x, "y": y, "re": _fmt(dist.values[x, y].real),
             "im": _fmt(dist.values[x, y].imag)}
            for x in range(dist.values.shape[0])
            for y in range(dist.values.shape[1])
        ]
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(cells, fh, indent=2)
            fh.write("\n")
    else:
        out = args.out or "kd_table.csv"
        with open(out, "w", encoding="utf-8", newline="") as fh:
            kd.kd_to_csv(dist, fh)
    print(f"nonreality: {kd.nonreality(dist):.12g}")
    print(f"table: {out}")
    if args.reconstruct:
        recovered = kd.reconstruct_state(dist)
        dev = linalg.trace_norm(recovered - rho.matrix) / 2.0
        print(f"reconstruction trace distance: {dev:.12g}")
    return EXIT_OK


@_report
def cmd_pure(args):
    state = as_pure(_resolve_state(args))
    report = pure_entanglement(state)
    return {"dims": [state.dims.da, state.dims.db], **dataclasses.asdict(report)}, {}


@_report
def cmd_mixed(args):
    rho = as_density(_resolve_state(args))
    config = _config_from(args)
    roof = mixed_entanglement(rho, config, terms=args.terms)
    return {
        "dims": [rho.dims.da, rho.dims.db],
        "value": roof.value,
        "normalized": roof.value / roof_normalization(rho.dims),
        "certified_lower": roof.certified_lower,
        "gap": roof.value - roof.certified_lower,
        "probabilities": roof.probabilities,
        "pure_states": [s.amplitudes for s in roof.pure_states],
        "diagnostics": dataclasses.asdict(roof.diagnostics),
    }, {"restarts": config.restarts, "terms": roof.terms}


@_report
def cmd_bounds(args):
    rho = as_density(_resolve_state(args))
    config = _config_from(args)
    report = bounds_report(rho, config)
    return ({"dims": [rho.dims.da, rho.dims.db], **dataclasses.asdict(report)},
            {"restarts": config.restarts})


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = list(verify.SUITES)  # each takes the options it can use
    else:
        names = [args.suite]
        for option, value in (("dims", args.dims), ("count", args.count)):
            if value is not None and option not in verify.SUITE_OPTIONS[args.suite]:
                raise BadSpec(f"suite {args.suite} does not take --{option}")
    dims = None
    if args.dims:
        dims = _parse_dims(args.dims)
        if dims.total > VERIFY_DIM_CAP:
            raise BadSpec(
                f"dims {dims.da}x{dims.db} beyond verify cap "
                f"(product <= {VERIFY_DIM_CAP})"
            )
    if args.count is not None and args.count < 1:
        raise BadSpec(f"count must be >= 1, got {args.count}")
    all_ok = True
    for name in names:
        result = verify.run_suite(name, seed=args.seed, dims=dims,
                                  count=args.count)
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{result.name}: {status} (max deviation {result.max_dev:.12g}; "
            f"{result.detail}; {result.seconds:.1f}s)"
        )
        all_ok = all_ok and result.passed
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


@_report
def cmd_weak_sim(args):
    state = as_pure(_resolve_state(args))
    if args.shots < MIN_WEAK_SHOTS:
        raise BadSpec(f"shots {args.shots} below floor {MIN_WEAK_SHOTS}")
    config = _config_from(args)
    value, basis, diag = weakvalue.sampled_entanglement(state, args.shots, config)
    reference = pure_entanglement(state).value
    records: list = []
    weakvalue.sampled_max_nonreality(state.outer(), state.dims.as_tuple(), basis,
                                     args.shots, config.seed, sink=records)
    records_path = args.records or "weak_shots.csv"
    with open(records_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("preparation,basis,outcome,count\n")
        for rec in records:
            fh.write(f"{rec.preparation},{rec.basis},{rec.outcome},{rec.count}\n")
    return {
        "dims": [state.dims.da, state.dims.db],
        "estimate": value,
        "reference": reference,
        "deviation": abs(value - reference),
        "shots_per_cell": args.shots,
        "records": records_path,
        "diagnostics": dataclasses.asdict(diag),
    }, {"restarts": config.restarts}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one
    in the process. Callers must not modify it. It binds only the ``cmd_*``
    functions and the search presets, and those look up the searches they
    run at call time."""
    parser = argparse.ArgumentParser(
        prog="kdentangle",
        description="Kirkwood-Dirac quasiprobability tables and a "
        "nonreality-based entanglement monotone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--state", help="path to a JSON state file")
        p.add_argument("--builtin", help="builtin state spec, e.g. bell, "
                       "max-entangled:3, werner:0.5, isotropic:3:0.7, product, "
                       "random-pure:7")
        p.add_argument("--dims", help="subsystem dims as AxB: sizes the max-entangled, "
                       "product and random-pure builtins; any other state must "
                       "match it")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="also write the report/table here")
        p.add_argument("--format", choices=["json", "csv"], default="json",
                       help="report output format")

    def add_search(p, preset):
        p.add_argument("--restarts", type=int, default=preset.restarts,
                       help=f"seeded random restarts per search, 1 to {RESTART_CAP} "
                       "(default %(default)s)")
        p.set_defaults(search=preset)

    p = sub.add_parser("kd-dist", help="emit a quasiprobability table as CSV")
    add_common(p)
    p.set_defaults(format="csv")  # tables default to CSV; reports to JSON
    p.add_argument("--basis-a", default="computational")
    p.add_argument("--basis-b", help="full form only (default computational)")
    p.add_argument("--basis-y", default="computational")
    p.add_argument("--form", choices=["marginal", "full"], default="marginal")
    p.add_argument("--reconstruct", action="store_true",
                   help="invert the (full-form) table and report the round-trip "
                   "trace distance")
    p.set_defaults(func=cmd_kd_dist)

    p = sub.add_parser("pure", help="closed-form pure-state entanglement report")
    add_common(p)
    p.set_defaults(func=cmd_pure)

    p = sub.add_parser("mixed", help="convex-roof entanglement for a mixed state")
    add_common(p)
    add_search(p, ROOF_SEARCH)
    p.add_argument("--terms", type=int, default=None,
                   help=f"decomposition size (default min(2*rank, {ROOF_CAP}), "
                   f"at most {ROOF_CAP})")
    p.set_defaults(func=cmd_mixed)

    p = sub.add_parser("bounds", help="lower/upper bound report")
    add_common(p)
    add_search(p, ASYMMETRY_SEARCH)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", help="restrict state dims for dims-aware suites")
    p.add_argument("--count", type=int, default=None,
                   help="override the instance count of sampling suites")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("weak-sim", help="sampled estimation of the pure-state value")
    add_common(p)
    add_search(p, weakvalue.SAMPLED_SEARCH)
    p.add_argument("--shots", type=int, default=10**6,
                   help="shots per preparation cell (floor 1000)")
    p.add_argument("--records", help="CSV path for the final shot records")
    p.set_defaults(func=cmd_weak_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.command == "kd-dist" and args.basis_b is not None
            and not (args.reconstruct or args.form == "full")):
        parser.error("--basis-b is read only by the full form (--form full or --reconstruct)")
    try:
        if args.seed < 0:
            raise BadSpec(f"seed must be >= 0, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()  # a buffered stdout meets a closed pipe here
        return code
    except BrokenPipeError:
        # the reader has gone: nothing to say, and the interpreter's final
        # flush of the buffered report must land somewhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except BasisPairSingular as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except OptimizerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    except (KdToolError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
