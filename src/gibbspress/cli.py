"""Command-line front end.

Subcommands: check (fillability certificates), pressure (certified interval
at a periodic point), oracle (strip / box pressure references), study
(per-radius convergence table as CSV).

Exit codes: 0 ok, 2 usage, 3 hypothesis failure, 4 budget refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

from .errors import BudgetError, HypothesisError, UsageError
from .interaction import Interaction, build_checkerboard, build_full_shift, build_hard_square, build_ising, json_int, load_model_file
from .pressure import gk_pressure
from .sft import (
    PeriodicPoint,
    diagonal_3coloring_point,
    periodic_point_from_ssf,
    safe_symbol_check,
    ssf_check,
)
from .transfer import DEFAULT_BUDGET, box_log_partition, strip_sequence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4

#: Folding convention reported for models with vertex activities.
HARD_SQUARE_FOLDING = "log(lambda)/4 per incident edge endpoint carrying symbol 1"


def _build_model(args) -> tuple[Interaction, dict]:
    """Construct the interaction, validating parameter arity per model."""
    model = args.model
    given = {
        "lambda": args.lam,
        "k": args.k,
        "beta": args.beta,
    }
    for name in ("lambda", "beta"):
        if given[name] is not None and not math.isfinite(given[name]):
            raise UsageError(f"--{name} must be finite")

    def reject_foreign(allowed: set[str]):
        foreign = [name for name, val in given.items() if val is not None and name not in allowed]
        if foreign:
            raise UsageError(f"model {model} does not take parameters: {', '.join(foreign)}")

    if model == "hardsquare":
        reject_foreign({"lambda"})
        lam = 1.0 if args.lam is None else args.lam
        if lam <= 0:
            raise UsageError("--lambda must be positive")
        return build_hard_square(lam), {"lambda": lam, "folding": HARD_SQUARE_FOLDING}
    if model == "checkerboard":
        reject_foreign({"k"})
        if args.k is None:
            raise UsageError("checkerboard needs -k")
        if args.k < 2:
            raise UsageError("-k must be at least 2")
        return build_checkerboard(args.k), {"k": args.k}
    if model == "ising":
        reject_foreign({"beta"})
        beta = 0.0 if args.beta is None else args.beta
        return build_ising(beta), {"beta": beta}
    if model == "fullshift":
        reject_foreign({"k"})
        q = 2 if args.k is None else args.k
        if q < 2:
            raise UsageError("-k must be at least 2")
        return build_full_shift(q), {"q": q}
    if model.startswith("file:"):
        reject_foreign(set())
        phi = load_model_file(model[len("file:"):])
        return phi, {"path": model[len("file:"):]}
    raise UsageError(f"unknown model {model!r}")


def _build_point(selector: str, phi: Interaction) -> PeriodicPoint:
    if selector == "zeros":
        point = PeriodicPoint([[0]])
    elif selector == "parity":
        point = periodic_point_from_ssf(phi, 1)
    elif selector == "diag3":
        point = diagonal_3coloring_point()
    elif selector.startswith("file:"):
        path = selector[len("file:"):]
        try:
            with open(path) as f:
                obj = json.load(f)
            p1, p2 = map(json_int, obj["periods"])
            rows = obj["cell"]  # rows indexed by y, entries by x
            point = PeriodicPoint([[json_int(rows[y][x]) for y in range(p2)] for x in range(p1)])
        except (OSError, KeyError, IndexError, ValueError, TypeError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read point file {path}: {exc}") from exc
    else:
        raise UsageError(f"unknown point selector {selector!r}")
    if int(point.cell.max()) >= phi.q:
        raise UsageError("point symbols exceed the model alphabet")
    if not point.is_point_of(phi):
        raise HypothesisError("point not in the underlying constraint set")
    return point


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written, before any computation."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write --out {path}: it is a directory")
    existing = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
    if not os.access(existing, os.W_OK):
        raise UsageError(f"cannot write --out {path}: no such directory or no write permission")


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, args) -> None:
    _write(json.dumps(payload, indent=2) + "\n", args)


def _cmd_check(args) -> int:
    phi, params = _build_model(args)
    result = ssf_check(phi)
    payload = {
        "model": phi.name,
        "params": params,
        "ssf": result.satisfied,
        "safe_symbol": safe_symbol_check(phi),
        "witness_count": result.witness_count,
        "counterexample": list(result.counterexample) if result.counterexample else None,
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_pressure(args) -> int:
    phi, params = _build_model(args)
    point = _build_point(args.nu, phi)
    start = time.perf_counter()
    est = gk_pressure(point, args.n, phi, budget=args.budget)
    wall_ms = (time.perf_counter() - start) * 1000.0
    payload = {
        "model": phi.name,
        "params": params,
        "nu": args.nu,
        "n": est.n,
        "pressure_lower": est.lower,
        "pressure_upper": est.upper,
        "per_site": [
            {
                "site": list(t.site),
                "p_lower": t.p.lower,
                "p_upper": t.p.upper,
                "edge_term": t.edge_term,
                "canopy_count": t.p.canopy_count,
                "skipped_count": t.p.skipped_count,
                "canopy_path": t.p.canopy_path,
            }
            for t in est.per_site
        ],
        "canopy_count": est.canopy_count,
        "skipped_count": est.skipped_count,
        "wall_time_ms": wall_ms,
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    phi, params = _build_model(args)
    if args.mode == "box":
        value = box_log_partition(args.width, phi, budget=args.budget)
        payload = {
            "model": phi.name,
            "params": params,
            "mode": "box",
            "width": args.width,
            "per_site_log_partition": value,
        }
    else:
        widths = list(range(max(1, args.width - 3), args.width + 1))
        points = strip_sequence(phi, widths, budget=args.budget)
        payload = {
            "model": phi.name,
            "params": params,
            "mode": "strip",
            "widths": [
                {
                    "width": p.width,
                    "per_site_lower": p.bounds.per_site_lower,
                    "per_site_upper": p.bounds.per_site_upper,
                    "ratio_lower": p.ratio_lower,
                    "ratio_upper": p.ratio_upper,
                    "iterations": p.bounds.iterations,
                }
                for p in points
            ],
            "extrapolated": {
                "ratio_lower": points[-1].ratio_lower,
                "ratio_upper": points[-1].ratio_upper,
            },
        }
    _emit(payload, args)
    return EXIT_OK


def _cmd_study(args) -> int:
    phi, params = _build_model(args)
    point = _build_point(args.nu, phi)
    try:
        lo, hi = (int(s) for s in args.n_range.split(":"))
    except ValueError as exc:
        raise UsageError("--n-range must look like A:B") from exc
    if lo < 1:
        raise UsageError("--n-range must start at 1 or above")
    if hi < lo:
        raise UsageError("empty n range")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "pressure_lower", "pressure_upper", "interval_width", "wall_time_ms", "status"])
    successes = 0
    for n in range(lo, hi + 1):
        start = time.perf_counter()
        try:
            est = gk_pressure(point, n, phi, budget=args.budget)
            wall_ms = (time.perf_counter() - start) * 1000.0
            writer.writerow([n, repr(est.lower), repr(est.upper), repr(est.width), f"{wall_ms:.3f}", "ok"])
            successes += 1
        except BudgetError as exc:
            writer.writerow([n, "", "", "", "", f"budget: {exc}"])
        except HypothesisError as exc:
            writer.writerow([n, "", "", "", "", f"hypothesis: {exc}"])
    _write(buf.getvalue(), args)
    return EXIT_OK if successes else EXIT_HYPOTHESIS


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        required=True,
        help="hardsquare | checkerboard | ising | fullshift | file:PATH",
    )
    parser.add_argument("--lambda", dest="lam", type=float, default=None, help="hard-square activity")
    parser.add_argument("-k", type=int, default=None, help="alphabet size (checkerboard, fullshift)")
    parser.add_argument("--beta", type=float, default=None, help="coupling (ising)")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gibbspress")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="fillability and safe-symbol certificates")
    _add_model_arguments(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_pressure = sub.add_parser("pressure", help="certified pressure interval at a periodic point")
    _add_model_arguments(p_pressure)
    p_pressure.add_argument("--nu", default="zeros", help="zeros | parity | diag3 | file:PATH")
    p_pressure.add_argument("--n", type=int, required=True, help="estimator radius")
    p_pressure.set_defaults(func=_cmd_pressure)

    p_oracle = sub.add_parser("oracle", help="strip / box pressure references")
    _add_model_arguments(p_oracle)
    p_oracle.add_argument("--mode", choices=("strip", "box"), required=True)
    p_oracle.add_argument("--width", type=int, required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_study = sub.add_parser("study", help="per-radius convergence table (CSV)")
    _add_model_arguments(p_study)
    p_study.add_argument("--nu", default="zeros")
    p_study.add_argument("--n-range", required=True, help="inclusive range A:B")
    p_study.set_defaults(func=_cmd_study)

    for p in (p_pressure, p_oracle, p_study):
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_BUDGET,
            help="most states one enumeration may hold (canopy, row, transfer stage "
            f"or strip), counted site by site; over it, exit 4 (default {DEFAULT_BUDGET})",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.n < 1:
        print("gibbspress: --n must be positive", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "width", None) is not None and args.width < 1:
        print("gibbspress: --width must be positive", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "budget", 0) < 0:
        print("gibbspress: --budget must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except UsageError as exc:
        print(f"gibbspress: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisError as exc:
        print(f"gibbspress: hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except BudgetError as exc:
        print(f"gibbspress: budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
