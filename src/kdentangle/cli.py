"""Command-line front end: table emission, entanglement reports, bound
reports, verification suites, and the sampled estimation pipeline.

Exit codes: 0 success, 1 verification failure, 2 input/config error,
3 singular basis pair, 4 optimizer bound violation.
"""

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import kd, linalg, verify, weakvalue
from .entanglement import (
    bounds_report,
    mixed_entanglement,
    pure_entanglement,
    roof_normalization,
)
from .errors import BadSpec, BasisPairSingular, KdToolError, OptimizerFailed
from .optimize import OptimizerConfig
from .states import (
    BipartiteDims,
    BipartitePureState,
    DensityOperator,
    load_state,
    make_state,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_SINGULAR = 3
EXIT_OPTIMIZER = 4

VERIFY_DIM_CAP = 9
RANK_ONE_TOL = 1e-8
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
    if getattr(args, "state", None) and getattr(args, "builtin", None):
        raise BadSpec("provide either --state or --builtin, not both")
    dims = _parse_dims(args.dims) if getattr(args, "dims", None) else None
    if getattr(args, "state", None):
        return load_state(args.state)
    if getattr(args, "builtin", None):
        return make_state(args.builtin, dims=dims, seed=args.seed)
    raise BadSpec("provide a state via --state or --builtin")


def _as_density(state) -> DensityOperator:
    return state.density() if isinstance(state, BipartitePureState) else state


def _as_pure(state) -> BipartitePureState:
    """Accept a pure state, or a density operator of rank 1 within 1e-8."""
    if isinstance(state, BipartitePureState):
        return state
    w, v = np.linalg.eigh(state.matrix)
    if w[:-1].max(initial=0.0) > RANK_ONE_TOL:
        raise BadSpec(
            f"state is not pure: second eigenvalue {w[-2]:.3e} exceeds "
            f"{RANK_ONE_TOL:g}"
        )
    ket = v[:, -1]
    return BipartitePureState(state.dims, ket / np.linalg.norm(ket))


def _nearest_basis(m: np.ndarray) -> np.ndarray:
    u, _, v = linalg.svd(m)
    return u @ linalg.dagger(v)


def _basis_from_spec(spec: str, dim: int) -> np.ndarray:
    name, _, arg = spec.partition(":")
    if name == "computational":
        return np.eye(dim, dtype=complex)
    if name == "fourier":
        j = np.arange(dim)
        return np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)
    if name == "random":
        from .states import haar_unitary

        try:
            seed = int(arg) if arg else 0
        except ValueError as exc:
            raise BadSpec(f"bad seed in basis spec {spec!r}") from exc
        return haar_unitary(dim, seed)
    # otherwise treat the spec as a path to a JSON matrix of [re, im] pairs
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BadSpec(f"unknown basis spec or unreadable file {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadSpec(f"basis file {spec!r} is not valid JSON: {exc}") from exc
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise BadSpec(f"basis file {spec!r} must hold a square grid of [re, im] pairs")
    m = (arr[..., 0] + 1j * arr[..., 1]).T  # file rows are kets; columns internally
    if m.shape[0] != dim:
        raise BadSpec(f"basis dimension {m.shape[0]} != expected {dim}")
    gram = linalg.dagger(m) @ m
    if np.abs(gram - np.eye(dim)).max() > 1e-8:
        raise BadSpec(f"basis file {spec!r} columns not orthonormal within 1e-8")
    return _nearest_basis(m)


def _config_from(args, default_restarts=32, default_iters=2000) -> OptimizerConfig:
    return OptimizerConfig(
        restarts=args.restarts if args.restarts is not None else default_restarts,
        max_iters=default_iters,
        tol=args.tol,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_kd_dist(args) -> int:
    rho = _as_density(_resolve_state(args))
    dims = rho.dims
    basis_a = _basis_from_spec(args.basis_a, dims.da)
    basis_y = _basis_from_spec(args.basis_y, dims.total)
    full = args.reconstruct or args.form == "full"
    if full:
        basis_b = _basis_from_spec(args.basis_b, dims.db)
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


def cmd_pure(args) -> int:
    t0 = time.time()
    state = _as_pure(_resolve_state(args))
    report = pure_entanglement(state)
    _emit(
        {
            "command": "pure",
            "dims": [state.dims.da, state.dims.db],
            "value": report.value,
            "normalized": report.normalized,
            "schmidt_rank": report.schmidt_rank,
            "concurrence": report.concurrence,
            "entropy_of_entanglement": report.entropy_of_entanglement,
            "seed": args.seed,
            "tol": args.tol,
            "restarts": None,
            "wall_time_s": time.time() - t0,
        },
        args.out,
        args.format,
    )
    return EXIT_OK


def cmd_mixed(args) -> int:
    t0 = time.time()
    rho = _as_density(_resolve_state(args))
    config = _config_from(args)
    roof = mixed_entanglement(rho, config, terms=args.terms)
    _emit(
        {
            "command": "mixed",
            "dims": [rho.dims.da, rho.dims.db],
            "value": roof.value,
            "normalized": roof.value / roof_normalization(rho.dims),
            "probabilities": roof.probabilities,
            "pure_states": [s.amplitudes for s in roof.pure_states],
            "diagnostics": dataclasses.asdict(roof.diagnostics),
            "seed": args.seed,
            "tol": args.tol,
            "restarts": config.restarts,
            "terms": roof.terms,
            "wall_time_s": time.time() - t0,
        },
        args.out,
        args.format,
    )
    return EXIT_OK


def cmd_bounds(args) -> int:
    t0 = time.time()
    rho = _as_density(_resolve_state(args))
    config = _config_from(args, default_restarts=8, default_iters=600)
    report = bounds_report(rho, config)
    _emit(
        {
            "command": "bounds",
            "dims": [rho.dims.da, rho.dims.db],
            "lower": report.lower,
            "upper": report.upper,
            "lower_swapped": report.lower_swapped,
            "upper_swapped": report.upper_swapped,
            "best_lower": report.best_lower,
            "best_upper": report.best_upper,
            "certified_lower": report.certified_lower,
            "seed": args.seed,
            "tol": args.tol,
            "restarts": config.restarts,
            "wall_time_s": time.time() - t0,
        },
        args.out,
        args.format,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
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


def cmd_weak_sim(args) -> int:
    t0 = time.time()
    state = _as_pure(_resolve_state(args))
    if args.shots < MIN_WEAK_SHOTS:
        raise BadSpec(f"shots {args.shots} below floor {MIN_WEAK_SHOTS}")
    config = OptimizerConfig(
        restarts=args.restarts if args.restarts is not None else 4,
        max_iters=150,
        tol=args.tol,
        seed=args.seed,
    )
    value, basis, diag = weakvalue.sampled_entanglement(state, args.shots, config)
    reference = pure_entanglement(state).value
    records: list = []
    final = weakvalue.sampled_max_nonreality(
        state.outer(), state.dims.as_tuple(), basis, args.shots, config.seed,
        sink=records,
    )
    records_path = args.records or "weak_shots.csv"
    with open(records_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("preparation,basis,outcome,count\n")
        for rec in records:
            fh.write(f"{rec.preparation},{rec.basis},{rec.outcome},{rec.count}\n")
    _emit(
        {
            "command": "weak-sim",
            "dims": [state.dims.da, state.dims.db],
            "estimate": value,
            "best_basis_estimate": final,
            "reference": reference,
            "deviation": abs(value - reference),
            "shots_per_cell": args.shots,
            "records": records_path,
            "diagnostics": dataclasses.asdict(diag),
            "seed": args.seed,
            "tol": args.tol,
            "restarts": config.restarts,
            "wall_time_s": time.time() - t0,
        },
        args.out,
        args.format,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdentangle",
        description="Kirkwood-Dirac quasiprobability tables and a "
        "nonreality-based entanglement monotone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_restarts=True):
        p.add_argument("--state", help="path to a JSON state file")
        p.add_argument("--builtin", help="builtin state spec, e.g. bell, "
                       "max-entangled:3, werner:0.5, isotropic:3:0.7, product, "
                       "random-pure:7")
        p.add_argument("--dims", help="subsystem dims as AxB (builtins only)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--out", help="also write the report/table here")
        p.add_argument("--format", choices=["json", "csv"], default="json",
                       help="report output format")
        if with_restarts:
            p.add_argument("--restarts", type=int, default=None)

    p = sub.add_parser("kd-dist", help="emit a quasiprobability table as CSV")
    add_common(p, with_restarts=False)
    p.set_defaults(format="csv")  # tables default to CSV; reports to JSON
    p.add_argument("--basis-a", default="computational")
    p.add_argument("--basis-b", default="computational")
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
    p.add_argument("--terms", type=int, default=None,
                   help="decomposition size (default min(2*rank, 16), at most 16)")
    p.set_defaults(func=cmd_mixed)

    p = sub.add_parser("bounds", help="lower/upper bound report")
    add_common(p)
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
    p.add_argument("--shots", type=int, default=10**6,
                   help="shots per preparation cell (floor 1000)")
    p.add_argument("--records", help="CSV path for the final shot records")
    p.set_defaults(func=cmd_weak_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
