"""Exact log-domain partition functions on finite regions by row-sweep
dynamic programming, conditional probabilities, and the strip oracle.

All weights live in the natural-log domain: a stored value is log of a
nonnegative weight, with -inf encoding weight zero. Sums of weights go
through logsumexp; exp() is only taken when reporting probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, prod
from typing import Mapping, Sequence

import numpy as np

from .errors import BudgetError, HypothesisError
from .interaction import EMPTY_CONFIGURATION, Configuration, Interaction
from .lattice import Region, Site, boundary
from .sft import admissible_states

LOG_ZERO = -inf

#: The one resource limit: the most configurations a single enumeration may
#: hold (canopy members, row or transfer states, probe evaluations); a
#: transition is kept as a matrix only when its S_r * S_s entries fit it.
DEFAULT_BUDGET = 1 << 24


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with -inf-safe handling; empty sums give -inf."""
    a = np.asarray(a, dtype=float)
    if axis is None:
        if a.size == 0:
            return LOG_ZERO
        m = float(np.max(a))
        if m == -inf:
            return LOG_ZERO
        return m + float(np.log(np.sum(np.exp(a - m))))
    axis = axis % a.ndim
    if a.shape[axis] == 0:
        shape = list(a.shape)
        del shape[axis]
        return np.full(shape, LOG_ZERO)
    m = np.max(a, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m_safe), axis=axis)) + np.squeeze(m_safe, axis=axis)
    return np.where(np.squeeze(np.isfinite(m), axis=axis), out, LOG_ZERO)


@dataclass(frozen=True)
class ConstrainedRegion:
    """A region with optional per-site allowed symbol sets and a pinned
    boundary configuration (disjoint from the region)."""

    region: Region
    allowed: Mapping[Site, tuple[int, ...]] = field(default_factory=dict)
    boundary: Configuration = EMPTY_CONFIGURATION

    def __post_init__(self):
        for v, syms in self.allowed.items():
            if v not in self.region:
                raise ValueError("allowed-set site outside the region")
            if len(syms) == 0:
                raise ValueError("allowed set must be nonempty")
        if self.region.sites & self.boundary.region.sites:
            raise ValueError("boundary overlaps the region")


class _Row:
    __slots__ = ("y", "sites", "col", "configs", "internal")

    def __init__(self, y: int, sites: list[Site]):
        self.y = y
        self.sites = sites
        self.col = {v: j for j, v in enumerate(sites)}
        self.configs: np.ndarray | None = None
        self.internal: np.ndarray | None = None


def product_matrix(choices: Sequence[Sequence[int]]) -> np.ndarray:
    """Cartesian product of 1-D integer choices as a (total, len(choices))
    int64 matrix, one member per row; the first column is the most
    significant."""
    shape = [len(c) for c in choices]
    out = np.empty((prod(shape), len(shape)), dtype=np.int64)
    grid = out.reshape(*shape, len(shape))
    for j, c in enumerate(choices):
        grid[..., j] = np.reshape(c, [n if i == j else 1 for i, n in enumerate(shape)])
    return out


def _enumerate_row(row: _Row, allowed: dict[Site, tuple[int, ...]], phi: Interaction, budget: int):
    """Fill row.configs / row.internal with the row's admissible states, in
    lexicographic order (first site most significant)."""
    try:
        row.configs, energy = admissible_states(row.sites, phi, budget, allowed=allowed)
    except BudgetError as exc:
        raise BudgetError(f"transfer states of row y={row.y}: {exc}") from None
    row.internal = -energy


def _transfer_steps(old: _Row, new: _Row, table, allowed, phi: Interaction, budget: int) -> list:
    """Site-by-site steps (idx, logw) of the transfer from the enumerated,
    nonempty row `old` to `new`, one per column in x order. After k columns
    a state holds the new symbols left of the cut and the old ones from the
    cut on, shifted one x right so that no edge crosses the cut. A column in
    both rows swaps the old symbol b for the new symbol a with log-weight
    -table[b, a] (0 when table is None), one only in the old row sums its
    symbol out and one only in the new row inserts it. idx[b, i] is state
    i's predecessor with old symbol b, and logw[b, i] is -inf if that one
    is not admissible."""
    q = phi.q
    old_x, new_x = ({v[0]: v for v in row.sites} for row in (old, new))
    columns = sorted(old_x.keys() | new_x.keys())
    if q ** min(len(columns), 63) > 1 << 62:  # q >= 2: cap the power
        raise BudgetError(f"{len(columns)} columns need {q}^{len(columns)} row codes, over the int64 limit 2^62")
    prev_place = q ** np.arange(len(old.sites) - 1, -1, -1, dtype=np.int64)
    prev = old.configs @ prev_place
    steps = []
    for k, x in enumerate(columns, 1):
        stage = new
        if k < len(columns):
            at = {(u, 0): new_x[u] for u in columns[:k] if u in new_x}
            at.update({(u + 1, 0): old_x[u] for u in columns[k:] if u in old_x})
            stage = _Row(new.y, list(at))
            _enumerate_row(stage, {w: allowed[v] for w, v in at.items()}, phi, budget)
        p = sum(u in new_x for u in columns[: k - 1])  # the column's position in both stages
        place = q ** np.arange(len(stage.sites) - 1, -1, -1, dtype=np.int64)
        kept = np.delete(stage.configs, p, axis=1) if x in new_x else stage.configs
        pred = (kept @ (np.delete(prev_place, p) if x in old_x else prev_place))[None, :]
        if x in old_x:
            pred = pred + np.arange(q)[:, None] * prev_place[p]
        logw = -table[:, stage.configs[:, p]] if x in old_x and x in new_x and table is not None else 0.0
        # rows are lexicographic, so the codes are sorted
        idx = np.minimum(np.searchsorted(prev, pred), len(prev) - 1)
        steps.append((idx, np.where(prev[idx] == pred, logw, LOG_ZERO)))
        prev, prev_place = stage.configs @ place, place
    return steps


def _run_steps(v: np.ndarray, steps) -> np.ndarray:
    """Apply transfer steps to log-weight vectors along the last axis."""
    for idx, logw in steps:
        v = logsumexp(np.take(v, idx, axis=-1) + logw, axis=-2)
    return v


class RegionEngine:
    """Reusable row-sweep DP over a fixed region and interaction.

    Rows are processed from the top down; per-call boundary conditions and
    pinned sites enter as additive per-row log-weight vectors, so one engine
    serves an entire ensemble of boundary conditions. With `target` set,
    evaluation returns the vector of log partition functions split by the
    target site's symbol (the target must lie in the lowest row). Each
    transition is the steps of `_transfer_steps` plus, where it fits the
    budget, the matrix they give on BLAS; equal row pairs share one.
    """

    def __init__(
        self,
        region: Region,
        phi: Interaction,
        allowed: Mapping[Site, tuple[int, ...]] | None = None,
        target: Site | None = None,
        budget: int = DEFAULT_BUDGET,
    ):
        self.region = region
        self.phi = phi
        self.target = target
        full = tuple(range(phi.q))
        allowed = dict(allowed or {})
        for v, syms in allowed.items():
            if any(not 0 <= s < phi.q for s in syms):
                raise ValueError("allowed symbol out of alphabet range")
        # sorted, so the row states and their codes are lexicographic
        self._allowed = {v: tuple(sorted(set(allowed.get(v, full)))) for v in region}

        by_y: dict[int, list[Site]] = {}
        for v in region:
            by_y.setdefault(v[1], []).append(v)
        ys = sorted(by_y, reverse=True)
        if target is not None:
            if target not in region:
                raise ValueError("target site outside the region")
            if target[1] != ys[-1]:
                raise ValueError("target site must lie in the lowest row")
        self.rows = [_Row(y, sorted(by_y[y])) for y in ys]

        for row in self.rows:
            _enumerate_row(row, self._allowed, phi, budget)
        self.infeasible = any(len(row.configs) == 0 for row in self.rows)

        self._trans, shared = [], {}
        for r, s in [] if self.infeasible else zip(self.rows, self.rows[1:]):
            key = (r.y - s.y, *(tuple((v[0], self._allowed[v]) for v in row.sites) for row in (r, s)))
            if key not in shared:
                shared[key] = self._transition(r, s, budget)
            self._trans.append(shared[key])
        self._ext = [self._exterior_map(row) for row in self.rows]
        self._site_term_cache: dict[Site, list[np.ndarray | None]] = {}

        if target is not None and self.rows:
            last = self.rows[-1]
            col = last.col[target]
            self._target_masks = [last.configs[:, col] == a for a in range(phi.q)]
        else:
            self._target_masks = None

    # -- construction helpers -------------------------------------------

    def _transition(self, r: _Row, s: _Row, budget: int):
        """(steps, matrix) from row r down to row s; matrix is None or (exp-shifted weights, shift)."""
        # s lies below r, so the vertical edge is the ordered pair (s, r)
        table = self.phi.vertical.T if r.y - s.y == 1 else None
        steps = _transfer_steps(r, s, table, self._allowed, self.phi, budget)
        if len(r.configs) * len(s.configs) > budget:
            return steps, None
        logw = _run_steps(np.where(np.eye(len(r.configs), dtype=bool), 0.0, LOG_ZERO), steps)
        finite = logw[np.isfinite(logw)]
        if not finite.size or float(finite.max() - finite.min()) > 400.0:
            return steps, None
        # narrow spread: exp/matmul loses at most e^-345 relative mass,
        # invisible at double precision, and runs on BLAS
        shift = float(finite.max())
        return steps, (np.exp(logw - shift), shift)

    def _exterior_map(self, row: _Row):
        """site -> [(column, axis, exterior_comes_first)] for sites outside
        the region adjacent to this row."""
        out: dict[Site, list[tuple[int, int, bool]]] = {}
        for v, j in row.col.items():
            x, y = v
            for axis, fwd, bwd in ((0, (x + 1, y), (x - 1, y)), (1, (x, y + 1), (x, y - 1))):
                if fwd not in self.region:
                    out.setdefault(fwd, []).append((j, axis, False))
                if bwd not in self.region:
                    out.setdefault(bwd, []).append((j, axis, True))
        return out

    # -- per-call term builders ------------------------------------------

    def terms_from_boundary(self, config: Configuration) -> list[np.ndarray | None]:
        """Per-row log-weight vectors for edges into a pinned exterior
        configuration. Exterior sites not adjacent to the region are ignored."""
        terms: list[np.ndarray | None] = [None] * len(self.rows)
        for v, a in config.symbols.items():
            if not 0 <= a < self.phi.q:
                raise ValueError("boundary symbol out of alphabet range")
            for i, arr in enumerate(self._site_terms(v)):
                if arr is not None:
                    terms[i] = arr[a] if terms[i] is None else terms[i] + arr[a]
        return terms

    def terms_from_pins(self, pins: Mapping[Site, int]) -> list[np.ndarray | None]:
        """Per-row vectors forcing region sites to fixed symbols."""
        if any(not 0 <= a < self.phi.q for a in pins.values()):
            raise ValueError("pin symbol out of alphabet range")
        terms: list[np.ndarray | None] = []
        for row in self.rows:
            vec = None
            for v, a in pins.items():
                j = row.col.get(v)
                if j is None:
                    continue
                if vec is None:
                    vec = np.zeros(len(row.configs))
                vec = vec + np.where(row.configs[:, j] == a, 0.0, LOG_ZERO)
            terms.append(vec)
        return terms

    def _site_terms(self, v: Site) -> list[np.ndarray | None]:
        """Per-row (q, n_states) log-weights of the edges from exterior site
        v, indexed by v's symbol; None for rows v does not touch."""
        cached = self._site_term_cache.get(v)
        if cached is not None:
            return cached
        cached = []
        for row, ext in zip(self.rows, self._ext):
            arr = None
            if v in ext:
                arr = np.zeros((self.phi.q, len(row.configs)))
                for j, axis, ext_first in ext[v]:
                    table = self.phi.tables[axis]
                    col = row.configs[:, j]
                    for a in range(self.phi.q):
                        arr[a] -= table[a, col] if ext_first else table[col, a]
                arr.flags.writeable = False  # terms_from_boundary hands out views
            cached.append(arr)
        self._site_term_cache[v] = cached
        return cached

    # -- sweeps ------------------------------------------------------------

    def _sweep(self, row_vecs: list[np.ndarray]) -> np.ndarray:
        v = row_vecs[0]
        for (steps, matrix), vec in zip(self._trans, row_vecs[1:]):
            if matrix is None:
                v = _run_steps(v, steps)
            else:
                expw, shift = matrix
                vmax = np.max(v, axis=-1)
                vm_safe = np.where(np.isfinite(vmax), vmax, 0.0)
                sums = np.exp(v - vm_safe[..., None]) @ expw
                with np.errstate(divide="ignore"):
                    v = np.log(sums) + vm_safe[..., None] + shift
            v = v + vec
        return v

    def _finalize(self, v: np.ndarray):
        if self._target_masks is None:
            return logsumexp(v, axis=-1)
        cols = [logsumexp(v[..., m], axis=-1) for m in self._target_masks]
        return np.stack([np.asarray(c) for c in cols], axis=-1)

    def evaluate(self, *term_lists: Sequence[np.ndarray | None]):
        """Log partition function (scalar, or per-target-symbol vector).

        Each argument is a per-row list of additive log-weight vectors as
        produced by terms_from_boundary / terms_from_pins.
        """
        out = self.evaluate_deltas(term_lists, (), np.zeros((1, 0), dtype=np.int64))[0]
        return out if self._target_masks is not None else float(out)

    def evaluate_deltas(
        self,
        static_terms: Sequence[Sequence[np.ndarray | None]],
        delta_sites: Sequence[Site],
        delta_matrix: np.ndarray,
    ) -> np.ndarray:
        """Evaluate a whole ensemble of exterior configurations.

        delta_matrix has one row per ensemble member, one column per site of
        delta_sites. Returns (n_deltas,) log partitions, or (n_deltas, q)
        split by the target symbol when a target is set.
        """
        delta_matrix = np.asarray(delta_matrix, dtype=np.int64)
        n = len(delta_matrix)
        out_shape = (n, self.phi.q) if self._target_masks is not None else (n,)
        if not self.rows:
            return np.zeros(out_shape)
        if self.infeasible:
            return np.full(out_shape, LOG_ZERO)
        block = max(64, min(4096, 4_000_000 // max(len(r.configs) for r in self.rows)))
        site_terms = [self._site_terms(v) for v in delta_sites]
        base = []
        for i, row in enumerate(self.rows):
            vec = row.internal
            for terms in static_terms:
                if terms[i] is not None:
                    vec = vec + terms[i]
            base.append(vec)
        out = np.empty(out_shape)
        for lo in range(0, n, block):
            dm = delta_matrix[lo : lo + block]
            vecs = []
            for i in range(len(self.rows)):
                # sum the exterior terms before adding the base, as
                # terms_from_boundary does, so both paths round alike; the
                # gathers are fresh arrays, so they are summed in place
                vec = None
                for d, per_row in enumerate(site_terms):
                    if per_row[i] is not None:
                        t = per_row[i][dm[:, d]]
                        if vec is None:
                            vec = t
                        else:
                            vec += t
                if vec is None:
                    vec = np.repeat(base[i][None, :], len(dm), axis=0)
                else:
                    vec += base[i]
                vecs.append(vec)
            out[lo : lo + len(dm)] = self._finalize(self._sweep(vecs))
        return out

def log_partition(
    cr: ConstrainedRegion,
    phi: Interaction,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Log of the constrained partition function of cr under phi.

    Sums exp(-energy) over configurations on the region that respect the
    allowed sets, counting region-internal edges and edges into the pinned
    boundary. -inf means no admissible configuration.
    """
    engine = RegionEngine(cr.region, phi, allowed=cr.allowed, budget=budget)
    return engine.evaluate(engine.terms_from_boundary(cr.boundary))


def _conditioned(cr: ConstrainedRegion, phi: Interaction, budget: int):
    """Engine, boundary terms and log denominator for conditioning on cr's
    boundary, which must cover the region's full exterior boundary."""
    if not len(cr.region):
        raise ValueError("conditional probability needs a nonempty region")
    missing = boundary(cr.region).sites - cr.boundary.region.sites
    if missing:
        raise ValueError(
            f"boundary must cover the full exterior boundary; missing {sorted(missing)}"
        )
    engine = RegionEngine(cr.region, phi, allowed=cr.allowed, budget=budget)
    bterms = engine.terms_from_boundary(cr.boundary)
    denom = engine.evaluate(bterms)
    if denom == LOG_ZERO:
        raise HypothesisError("boundary condition inadmissible")
    return engine, bterms, denom


def conditional_probability(
    event: Mapping[Site, int],
    cr: ConstrainedRegion,
    phi: Interaction,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Probability of pinning `event` inside cr, given the boundary.

    Computed as a difference of log partition functions, never as a ratio
    of linear-domain weights.
    """
    for v in event:
        if v not in cr.region:
            raise ValueError("event site outside the region")
    engine, bterms, denom = _conditioned(cr, phi, budget)
    num = engine.evaluate(bterms, engine.terms_from_pins(event))
    return min(float(np.exp(num - denom)), 1.0)


def conditional_sum_check(
    cr: ConstrainedRegion,
    phi: Interaction,
    site: Site,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Full conditional distribution at one site given cr.

    The denominator is computed as its own unconstrained partition function,
    so summing the returned entries to 1 is a genuine consistency check.
    """
    if site not in cr.region:
        raise ValueError("site outside the region")
    engine, bterms, denom = _conditioned(cr, phi, budget)
    probs = np.empty(phi.q)
    for a in range(phi.q):
        num = engine.evaluate(bterms, engine.terms_from_pins({site: a}))
        probs[a] = np.exp(num - denom)
    return probs


# -- strip oracle ---------------------------------------------------------


@dataclass(frozen=True)
class StripBounds:
    """Collatz-Wielandt bracket for one strip width (free lateral boundary)."""

    width: int
    log_lambda_lower: float
    log_lambda_upper: float
    iterations: int

    @property
    def per_site_lower(self) -> float:
        return self.log_lambda_lower / self.width

    @property
    def per_site_upper(self) -> float:
        return self.log_lambda_upper / self.width

    @property
    def gap(self) -> float:
        return self.per_site_upper - self.per_site_lower


def strip_pressure(
    m: int,
    phi: Interaction,
    tol: float = 1e-10,
    max_iter: int = 100000,
    budget: int = DEFAULT_BUDGET,
) -> StripBounds:
    """Per-site pressure bracket for the width-m strip.

    Power-iterates the row transfer operator from the all-ones vector on
    admissible rows and returns Collatz-Wielandt bounds on log(lambda_max),
    stopping when the per-site gap drops below tol. Degenerate strips (no
    admissible row survives) yield a [-inf, -inf] bracket.

    The operator is applied as the site-by-site steps of `_transfer_steps`
    from the row to itself.
    """
    if m < 1:
        raise ValueError("strip width must be positive")
    row = _Row(0, [(x, 0) for x in range(m)])
    allowed = dict.fromkeys(row.sites, tuple(range(phi.q)))
    try:
        _enumerate_row(row, allowed, phi, budget)
        if not len(row.configs):
            return StripBounds(m, LOG_ZERO, LOG_ZERO, 0)
        steps = _transfer_steps(row, row, phi.vertical, allowed, phi, budget)
    except BudgetError as exc:
        raise BudgetError(f"strip of width {m}: {exc}") from None
    x = np.zeros(len(row.configs))
    lo = hi = LOG_ZERO
    it = 0
    for it in range(1, max_iter + 1):
        y = _run_steps(x, steps) + row.internal
        mask = np.isfinite(x) & np.isfinite(y)
        if not mask.any():
            return StripBounds(m, LOG_ZERO, LOG_ZERO, it)
        ratios = y[mask] - x[mask]
        lo, hi = float(ratios.min()), float(ratios.max())
        stable = bool((np.isfinite(y) == np.isfinite(x)).all())
        x = y - y[mask].max()
        if stable and (hi - lo) / m < tol:
            break
    return StripBounds(m, lo, hi, it)


@dataclass(frozen=True)
class StripPoint:
    """Strip bracket plus the consecutive-width ratio estimate.

    The raw per-site value (log lambda)/m carries an O(1/m) free-boundary
    surface term; the ratio log(lambda_m) - log(lambda_{m-1}) cancels it, so
    the ratio interval is the oracle's converged per-site value at width m.
    """

    width: int
    bounds: StripBounds
    ratio_lower: float | None
    ratio_upper: float | None


def strip_sequence(
    phi: Interaction,
    widths: Sequence[int],
    tol: float = 1e-10,
    max_iter: int = 100000,
    budget: int = DEFAULT_BUDGET,
) -> list[StripPoint]:
    """Strip brackets for the given widths with ratio estimates.

    For every requested width m >= 2 the predecessor width m-1 is computed
    as well so the ratio interval can be formed by interval arithmetic.
    """
    widths = sorted(set(widths))
    if not widths or widths[0] < 1:
        raise ValueError("widths must be positive")
    needed = set(widths) | {m - 1 for m in widths if m >= 2}
    cache = {m: strip_pressure(m, phi, tol=tol, max_iter=max_iter, budget=budget) for m in sorted(needed)}
    points = []
    for m in widths:
        b = cache[m]
        if m >= 2:
            prev = cache[m - 1]
            rl = b.log_lambda_lower - prev.log_lambda_upper
            ru = b.log_lambda_upper - prev.log_lambda_lower
        else:
            rl = ru = None
        points.append(StripPoint(m, b, rl, ru))
    return points


def box_log_partition(
    m: int,
    phi: Interaction,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Per-site log partition function of the free m x m box."""
    if m < 1:
        raise ValueError("box side must be positive")
    region = Region((x, y) for y in range(1, m + 1) for x in range(1, m + 1))
    value = log_partition(ConstrainedRegion(region), phi, budget=budget)
    return value / (m * m)
