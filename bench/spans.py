"""Run-time spans around the public functions of each gibbspress layer.

Nothing in the package is edited: `Tracer.install` replaces each traced name
where its caller looks it up (a module global or a class attribute) with a
wrapper that records a span, and `Tracer.uninstall` puts the originals back.
Spans are kept in memory; a span's self time is its duration minus the
durations of its direct children (the program is single-threaded, so
children nest inside their parent).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: Bytes of one float64 entry, for the computed traffic of sweeps and strips.
F64 = 8


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    solve: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _engine_counts(args, kwargs, out):
    sizes = [len(row.configs) for row in args[0].rows]
    return {"row_states": sum(sizes), "max_row_states": max(sizes, default=0)}


def _sweep_counts(args, kwargs, out):
    engine = args[0]
    members = len(_arg(args, kwargs, 3, "delta_matrix"))
    sizes = [len(row.configs) for row in engine.rows]
    pairs = sum(a * b for a, b in zip(sizes, sizes[1:]))
    return {
        "members": members,
        "flop_computed": 2 * members * pairs,
        "bytes_computed": F64 * members * sum(sizes),
    }


def _strip_counts(args, kwargs, out):
    states = _arg(args, kwargs, 1, "phi").q ** _arg(args, kwargs, 0, "m")
    return {
        "width": out.width,
        "iterations": out.iterations,
        "states_computed": states,
        "bytes_computed": F64 * states,
    }


def _interval_counts(args, kwargs, out):
    return {"canopy_count": out.canopy_count, "skipped_count": out.skipped_count}


def _enumerate_counts(args, kwargs, out):
    return {"sites": len(_arg(args, kwargs, 0, "region")), "rows": len(out), "q": _arg(args, kwargs, 1, "phi").q}


#: (owner, attribute, span name, counter on (args, kwargs, return value)).
#: The owner is where the caller looks the name up: "module" or "module:Class".
TARGETS = [
    ("gibbspress.cli", "gk_pressure", "pressure.gk_pressure", _interval_counts),
    ("gibbspress.cli", "strip_sequence", "transfer.strip_sequence", None),
    ("gibbspress.cli", "box_log_partition", "transfer.box_log_partition", None),
    ("gibbspress.pressure", "p_interval", "pressure.p_interval", _interval_counts),
    ("gibbspress.pressure", "admissible_configurations", "pressure.admissible_configurations", _enumerate_counts),
    ("gibbspress.pressure", "canopy_decomposition", "lattice.canopy_decomposition",
     lambda a, k, out: {"canopy_sites": len(out[2])}),
    ("gibbspress.sft:PeriodicPoint", "shift", "sft.point", None),
    ("gibbspress.sft:PeriodicPoint", "restrict", "sft.point", None),
    ("gibbspress.sft:PeriodicPoint", "is_point_of", "sft.point", None),
    ("gibbspress.transfer:RegionEngine", "__init__", "transfer.engine_build", _engine_counts),
    ("gibbspress.transfer:RegionEngine", "terms_from_boundary", "transfer.terms", None),
    ("gibbspress.transfer:RegionEngine", "terms_from_pins", "transfer.terms", None),
    ("gibbspress.transfer:RegionEngine", "evaluate", "transfer.evaluate", None),
    ("gibbspress.transfer:RegionEngine", "evaluate_deltas", "transfer.evaluate_deltas", _sweep_counts),
    ("gibbspress.transfer", "strip_pressure", "transfer.strip_pressure", _strip_counts),
    ("gibbspress.transfer", "log_partition", "transfer.log_partition", None),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls, None) if cls else owner


ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.solve = -1
        #: Traced names this version of the package does not have.
        self.missing: list[str] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.solve)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        self.missing = []
        for path, attr, name, counter in TARGETS:
            owner = _owner(path)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def call(self, solve: int, fn, *args):
        """Run fn(*args) as the root span of one solve."""
        self.solve = solve
        return self._wrap(ROOT_SPAN, fn, None)(*args)

    def self_times(self, solve: int) -> dict[str, float]:
        """Total self time per span name within one solve."""
        child = defaultdict(float)
        for s in self.spans:
            if s.solve == solve and s.parent is not None:
                child[s.parent] += s.duration
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.solve == solve:
                out[s.name] += s.duration - child[i]
        return dict(out)

    def named(self, solve: int, name: str) -> list[Span]:
        return [s for s in self.spans if s.solve == solve and s.name == name]

    def total(self, solve: int, name: str, key: str) -> int:
        """Sum of one count over the spans of one name within one solve."""
        return sum(s.counts.get(key, 0) for s in self.named(solve, name))


#: Per-layer metrics of a traced run: name -> (unit, better). Times are self
#: times unless noted; "_computed" units are derived from array sizes, not
#: measured (no peak rate or bandwidth is measured, so no roofline ratio).
PER_LAYER = {
    "cli.overhead_s": ("s", "lower"),
    "cli.result_width": ("1", "lower"),
    "pressure.assemble_s": ("s", "lower"),
    "pressure.p_interval_s": ("s", "lower"),
    "pressure.reduce_s": ("s", "lower"),
    "pressure.enumerate_s": ("s", "lower"),
    "pressure.canopy_members": ("count", "lower"),
    "pressure.canopy_skipped": ("count", "lower"),
    "pressure.useful_ratio": ("ratio", "higher"),
    "pressure.budget_ratio": ("ratio", "higher"),
    "lattice.canopy_sites": ("count", "lower"),
    "lattice.decompose_s": ("s", "lower"),
    "sft.point_s": ("s", "lower"),
    "transfer.engine_build_s": ("s", "lower"),
    "transfer.row_states": ("count", "lower"),
    "transfer.max_row_states": ("count", "lower"),
    "transfer.terms_s": ("s", "lower"),
    "transfer.evaluate_s": ("s", "lower"),
    "transfer.sweep_s": ("s", "lower"),
    "transfer.sweep_members_per_s": ("1/s", "higher"),
    "transfer.sweep_gflop": ("gflop_computed", "lower"),
    "transfer.sweep_gflops": ("gflop_computed/s", "higher"),
    "transfer.sweep_bytes": ("B_computed", "lower"),
    "transfer.strip_s": ("s", "lower"),
    "transfer.strip_iterations": ("count", "lower"),
    "transfer.strip_states": ("count_computed", "lower"),
    "transfer.strip_bytes": ("B_computed", "lower"),
    "transfer.strip_s_per_iter": ("s", "lower"),
    "bench.traced_solve_s": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
    "bench.self_time_coverage": ("ratio", "higher"),
}

#: Self-time metrics and the span names whose self times they add up.
SELF_TIME = {
    "cli.overhead_s": (ROOT_SPAN,),
    "pressure.assemble_s": ("pressure.gk_pressure",),
    "pressure.reduce_s": ("pressure.p_interval",),
    "pressure.enumerate_s": ("pressure.admissible_configurations",),
    "lattice.decompose_s": ("lattice.canopy_decomposition",),
    "sft.point_s": ("sft.point",),
    "transfer.engine_build_s": ("transfer.engine_build",),
    "transfer.terms_s": ("transfer.terms",),
    "transfer.evaluate_s": ("transfer.evaluate",),
    "transfer.sweep_s": ("transfer.evaluate_deltas",),
    "transfer.strip_s": ("transfer.strip_sequence", "transfer.strip_pressure"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, solve: int) -> dict[str, float]:
    """Per-layer metrics of one traced solve; 0 for a layer it does not run."""
    own = tracer.self_times(solve)
    m = {k: sum(own.get(n, 0.0) for n in names) for k, names in SELF_TIME.items()}

    def total(name, key):
        return tracer.total(solve, name, key)

    root = tracer.named(solve, ROOT_SPAN)[0].duration
    intervals = tracer.named(solve, "pressure.p_interval")
    m["pressure.p_interval_s"] = sum(s.duration for s in intervals)
    members = total("pressure.p_interval", "canopy_count") + total("pressure.p_interval", "skipped_count")
    m["pressure.canopy_members"] = members
    m["pressure.canopy_skipped"] = total("pressure.p_interval", "skipped_count")
    m["pressure.useful_ratio"] = _ratio(total("pressure.p_interval", "canopy_count"), members)
    enums = tracer.named(solve, "pressure.admissible_configurations")
    widest = max(enums, key=lambda s: s.counts["sites"], default=None)
    m["pressure.budget_ratio"] = (
        widest.counts["rows"] / widest.counts["q"] ** widest.counts["sites"] if widest else 0.0
    )
    m["lattice.canopy_sites"] = max(
        (s.counts["canopy_sites"] for s in tracer.named(solve, "lattice.canopy_decomposition")), default=0
    )
    engines = tracer.named(solve, "transfer.engine_build")
    m["transfer.row_states"] = sum(s.counts["row_states"] for s in engines)
    m["transfer.max_row_states"] = max((s.counts["max_row_states"] for s in engines), default=0)
    gflop = total("transfer.evaluate_deltas", "flop_computed") / 1e9
    m["transfer.sweep_members_per_s"] = _ratio(total("transfer.evaluate_deltas", "members"), m["transfer.sweep_s"])
    m["transfer.sweep_gflop"] = gflop
    m["transfer.sweep_gflops"] = _ratio(gflop, m["transfer.sweep_s"])
    m["transfer.sweep_bytes"] = total("transfer.evaluate_deltas", "bytes_computed")
    iterations = total("transfer.strip_pressure", "iterations")
    m["transfer.strip_iterations"] = iterations
    m["transfer.strip_states"] = total("transfer.strip_pressure", "states_computed")
    m["transfer.strip_bytes"] = total("transfer.strip_pressure", "bytes_computed")
    m["transfer.strip_s_per_iter"] = _ratio(own.get("transfer.strip_pressure", 0.0), iterations)
    m["bench.traced_solve_s"] = root
    m["bench.self_time_coverage"] = sum(m[k] for k in SELF_TIME) / root
    return m


def cross_check(tracer: Tracer, solve: int, result) -> list[str]:
    """Problems where span counts disagree with the CLI's own counts."""
    if tracer.missing:
        return []  # a renamed layer function: its counts cannot be compared
    problems = []
    if isinstance(result, list):  # study rows
        rows_ok = sum(r["status"] == "ok" for r in result)
        estimates = tracer.named(solve, "pressure.gk_pressure")
        if len(estimates) != rows_ok:
            problems.append(f"{len(estimates)} gk_pressure spans for {rows_ok} ok study rows")
        if tracer.named(solve, "pressure.p_interval"):
            for key in ("canopy_count", "skipped_count"):
                if tracer.total(solve, "pressure.gk_pressure", key) != tracer.total(solve, "pressure.p_interval", key):
                    problems.append(f"gk_pressure {key} differs from the sum over its p_interval calls")
    elif "widths" in result:  # strip oracle
        spans = {s.counts["width"]: s.counts["iterations"] for s in tracer.named(solve, "transfer.strip_pressure")}
        printed = {w["width"]: w["iterations"] for w in result["widths"]}
        if any(spans.get(w) != it for w, it in printed.items()):
            problems.append(f"strip iterations: spans {spans}, CLI {printed}")
    return problems
