"""The benchmark's fixed workloads and the reference checks on their output.

Every workload is one command of the public CLI, `gibbspress.cli.main`. Its
check returns a list of problems (empty when the output is correct) and uses
only properties that any correct program has: certified intervals contain
the known value, the frozen diagonal 3-colouring point gives exactly [0, 0],
and oracle values agree with published constants or with the seed values.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

#: log of the hard-square entropy constant kappa = 1.50304808... (Baxter).
LOG_HARD_SQUARE_ENTROPY = math.log(1.5030480824753323)
#: Lieb's residual entropy of square ice, 1.5 log(4/3): the 3-colouring pressure.
LIEB_3COLOURING = 1.5 * math.log(4.0 / 3.0)

#: Strip oracle references by top width: (distance allowed from Lieb's value,
#: bracket the ratio interval must overlap).
STRIP_REFERENCES = {
    11: (2e-3, (0.43048393, 0.43048394)),
    6: (5e-3, (0.42815298, 0.42815299)),
}
#: Free-box per-site log partition function of the hard square, by side.
BOX_REFERENCES = {
    14: 0.41740090137927915,
    8: 0.42525760863135537,
}
BOX_TOLERANCE = 1e-12


def parse_study(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def study_key(rows: list[dict]) -> list[tuple]:
    """The study rows without their wall-time column."""
    cols = ("n", "pressure_lower", "pressure_upper", "interval_width", "status")
    return [tuple(r[c] for c in cols) for r in rows]


def _study_problems(rows: list[dict], n_range: str) -> list[str]:
    lo, hi = (int(s) for s in n_range.split(":"))
    problems = []
    if [int(r["n"]) for r in rows] != list(range(lo, hi + 1)):
        problems.append(f"study rows {[r['n'] for r in rows]} do not cover {n_range}")
    bad = [r["n"] for r in rows if r["status"] != "ok"]
    if bad:
        problems.append(f"study rows not ok at n={bad}")
    return problems


def check_hs_radius(rows: list[dict], n_range: str) -> list[str]:
    problems = _study_problems(rows, n_range)
    if problems:
        return problems
    widths = []
    for r in rows:
        lo, hi = float(r["pressure_lower"]), float(r["pressure_upper"])
        if not lo <= LOG_HARD_SQUARE_ENTROPY <= hi:
            problems.append(f"n={r['n']}: [{lo}, {hi}] misses log kappa {LOG_HARD_SQUARE_ENTROPY}")
        widths.append(hi - lo)
    if any(b > a for a, b in zip(widths, widths[1:])):
        problems.append(f"widths increase with n: {widths}")
    return problems


def check_col3_diag3(rows: list[dict], n_range: str) -> list[str]:
    problems = _study_problems(rows, n_range)
    if problems:
        return problems
    return [
        f"n={r['n']}: [{r['pressure_lower']}, {r['pressure_upper']}] is not [0, 0]"
        for r in rows
        if float(r["pressure_lower"]) != 0.0 or float(r["pressure_upper"]) != 0.0
    ]


def check_strip(doc: dict, size: str) -> list[str]:
    width = int(size)
    tol, (seed_lo, seed_hi) = STRIP_REFERENCES[width]
    top = doc["widths"][-1]
    lo, hi = top["ratio_lower"], top["ratio_upper"]
    problems = []
    if top["width"] != width:
        problems.append(f"top width is {top['width']}, expected {width}")
    if not lo <= hi:
        problems.append(f"ratio bracket [{lo}, {hi}] is reversed")
    if max(abs(lo - LIEB_3COLOURING), abs(hi - LIEB_3COLOURING)) > tol:
        problems.append(f"ratio bracket [{lo}, {hi}] is not within {tol} of Lieb's {LIEB_3COLOURING}")
    if hi < seed_lo or lo > seed_hi:
        problems.append(f"ratio bracket [{lo}, {hi}] misses [{seed_lo}, {seed_hi}]")
    return problems


def check_box(doc: dict, size: str) -> list[str]:
    ref = BOX_REFERENCES[int(size)]
    value = doc["per_site_log_partition"]
    if abs(value - ref) > BOX_TOLERANCE:
        return [f"box value {value!r} differs from {ref!r} by more than {BOX_TOLERANCE}"]
    return []


def study_width(rows: list[dict]) -> float:
    return float(rows[-1]["interval_width"])


def strip_width(doc: dict) -> float:
    top = doc["widths"][-1]
    return top["ratio_upper"] - top["ratio_lower"]


@dataclass(frozen=True)
class Workload:
    """One CLI command at a full size and a tiny size (warm-up, self-test).

    `size` and `tiny_size` are the value of the command's size option
    (`--n-range` or `--width`); the check and the references depend on it.
    """

    name: str
    why: str
    base_argv: tuple[str, ...]
    size_flag: str
    size: str
    tiny_size: str
    #: Python source run by a fresh interpreter to measure set-up time.
    setup_source: str
    parse: Callable[[str], object]
    #: The output without its timing fields, to compare two solves.
    key: Callable[[object], object]
    check: Callable[[object, str], list[str]]
    #: Width of the final certified bracket (0 where there is none).
    width: Callable[[object], float]

    def argv(self, tiny: bool = False) -> list[str]:
        return [*self.base_argv, self.size_flag, self.tiny_size if tiny else self.size]

    def check_output(self, result, tiny: bool = False) -> list[str]:
        return self.check(result, self.tiny_size if tiny else self.size)


_HS_SETUP = "import numpy, gibbspress as gp; gp.PeriodicPoint([[0]]).is_point_of(gp.build_hard_square(1.0))"
_COL3_SETUP = "import numpy, gibbspress as gp; gp.diagonal_3coloring_point().is_point_of(gp.build_checkerboard(3))"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hs-radius",
            why="hard-square width ladder n=1..5; the canopy ensemble sweeps dominate and every member is useful",
            base_argv=("study", "--model", "hardsquare", "--nu", "zeros"),
            size_flag="--n-range", size="1:5", tiny_size="1:2",
            setup_source=_HS_SETUP,
            parse=parse_study, key=study_key, check=check_hs_radius, width=study_width,
        ),
        Workload(
            name="col3-diag3",
            why="3-colouring at 9 orbit sites, n=1..3; 87% of swept canopy members are skipped, so pruning shows here only",
            base_argv=("study", "--model", "checkerboard", "-k", "3", "--nu", "diag3"),
            size_flag="--n-range", size="1:3", tiny_size="1:1",
            setup_source=_COL3_SETUP,
            parse=parse_study, key=study_key, check=check_col3_diag3, width=study_width,
        ),
        Workload(
            name="col3-strip",
            why="3-colouring strip oracle, widths 7-11; power iteration only, no RegionEngine and no canopy",
            base_argv=("oracle", "--model", "checkerboard", "-k", "3", "--mode", "strip"),
            size_flag="--width", size="11", tiny_size="6",
            setup_source="import numpy, gibbspress as gp; gp.build_checkerboard(3)",
            parse=json.loads, key=lambda doc: doc, check=check_strip, width=strip_width,
        ),
        Workload(
            name="hs-box",
            why="hard-square 14x14 box oracle; one wide-row RegionEngine build (987 states) dominates",
            base_argv=("oracle", "--model", "hardsquare", "--mode", "box"),
            size_flag="--width", size="14", tiny_size="8",
            setup_source="import numpy, gibbspress as gp; gp.build_hard_square(1.0)",
            parse=json.loads, key=lambda doc: doc, check=check_box, width=lambda doc: 0.0,
        ),
    )
}
