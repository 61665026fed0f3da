"""Exact log-domain partition functions on finite regions by row-sweep
dynamic programming, conditional probabilities, and the strip oracle.

The engine stores a weight as its natural log, -inf for weight zero. Sums
of weights multiply and add exp-shifted values while the spreads they
combine sum to at most `_SPREAD`, and go through logsumexp past it. The
strip oracle holds its power iterate in the linear domain, largest entry
1, until the same rule first fails, and as log-weights from then on
(`strip_pressure`).

A transition between two rows runs as site-by-site transfer steps
(`_transfer_steps`, `_linear_step`, `_run_steps`). A step stores, for
every state, only its predecessors of nonzero weight, and stores weights
only where they are not all equal: the hard square at lambda = 1 and the
colourings gather and sum, with no multiply.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from math import inf, log, sqrt
from typing import Mapping, Sequence

import numpy as np

from .errors import BudgetError, HypothesisError
from .interaction import EMPTY_CONFIGURATION, Configuration, Interaction
from .lattice import Region, Site, boundary, neighbors
from .sft import admissible_levels

LOG_ZERO = -inf
_SPREAD = 700.0  # e^-700 lies above the smallest normal double, e^700 below the largest
_ENTRIES = 1 << 17  # the most entries a block of `_log_products`' logsumexp holds

#: The one resource limit: the most states a single enumeration (a canopy's
#: heads or tails, a row or a strip), transfer step or canopy pairing may
#: hold; see `sft.admissible_states`, `_transfer_steps` and `pressure._pairs`.
#: A transfer step is also refused past `_INDEX_LIMIT`, whatever the budget.
DEFAULT_BUDGET = 1 << 24
#: The most states a transfer step may hold: its indices are int32.
_INDEX_LIMIT = int(np.iinfo(np.int32).max)


def logsumexp(a, axis: int):
    """log(sum(exp(a - m))) + m along `axis`, m the maxima along it (0 for
    a row of -inf, which gives -inf); empty sums give -inf."""
    a = np.moveaxis(np.asarray(a, dtype=float), axis, -1)
    if a.shape[-1] == 0:
        return np.full(a.shape[:-1], LOG_ZERO)
    m = np.max(a, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    d = a - m
    with np.errstate(divide="ignore"):
        return np.log(np.exp(d, out=d).sum(axis=-1)) + m[..., 0]


@dataclass(frozen=True)
class ConstrainedRegion:
    """A region with optional per-site allowed symbol sets and a pinned
    boundary configuration (disjoint from the region).

    Allowed sets restrict symbols per call: they enter the engine's sums as
    set-valued pins (`RegionEngine.evaluate`), so the region's rows
    are enumerated, and counted against the budget, over the full alphabet.
    """

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


def _columns(old: _Row, new: _Row, q: int) -> list[int]:
    """Sorted x columns of the transfer between two rows. Refuses rows so
    wide that q^columns, the most states a stage could hold, passes the
    int64 limit 2^62, before any of their states are enumerated."""
    columns = sorted({v[0] for row in (old, new) for v in row.sites})
    if q ** min(len(columns), 63) > 1 << 62:  # q >= 2: cap the power
        raise BudgetError(f"{len(columns)} columns admit {q}^{len(columns)} row states, over the int64 limit 2^62")
    return columns


def _rank(reversed_configs: np.ndarray) -> np.ndarray:
    """rank[j]: the lexicographic rank, first site most significant, of
    the row state whose symbols reversed_configs[j] holds in reverse."""
    rank = np.empty(len(reversed_configs), dtype=np.int64)
    rank[np.lexsort(reversed_configs.T)] = np.arange(len(rank))
    return rank


def _row_chains(row: _Row, phi: Interaction, budget: int):
    """Run `admissible_levels` over the row left to right and right to left
    in lock step, and yield, after the m-th site of each run, the chains of
    a transfer (`_transfer_steps`): the prefix chain, the keep arrays of the
    left-to-right run, one per site, with its configs and energies, then
    the suffix chain, those of the right-to-left run, with the reversed
    configs it ends in, which `_rank` orders. The last entry is the row's
    own. On consecutive sites every entry m is that of the row's first m
    sites: the tables do not depend on position, so the first m levels of
    the right-to-left run are those of the first m sites' own run, and one
    run over the widest strip serves every width (`strip_sequence`). A
    refusal names the row's y."""
    prefix, suffix = [], []
    try:
        levels = zip(*(admissible_levels(run, phi, budget) for run in (row.sites, row.sites[::-1])))
        next(levels)  # the empty configuration
        for (keep, configs, energies), (back, reversed_configs, _) in levels:
            prefix.append(keep)
            suffix.append(back)
            yield prefix[:], configs, energies, suffix[:], reversed_configs
    except BudgetError as exc:
        raise BudgetError(f"transfer states of row y={row.y}: {exc}") from None


def _transfer_steps(old: _Row, new: _Row, prefix: list, suffix: tuple, phi: Interaction, budget: int) -> list:
    """Site-by-site steps of the transfer from the enumerated, nonempty row
    `old` to the enumerated row `new`, one per column in x order. After k
    columns a state holds the new symbols left of the cut and the old ones
    from the cut on, shifted one x right so that no edge crosses the cut.
    So stage k is the lexicographic product A_k x B_k of a level of the new
    row's left-to-right enumeration (its prefixes) and one of the old row's
    right-to-left enumeration (its suffixes), the chains `_row_chains`
    yields for each row. Stage 0 is old.configs, reached through the
    suffix chain's rank, and the last stage is new.configs.

    A column in both rows swaps the old symbol b for the new symbol a with
    log-weight -table[a, b], the table of the edge from its new-row site to
    its old-row site (`Interaction.edges`), 0 when the rows are not
    adjacent; one only in the old row sums its symbol out and one only in
    the new row inserts it. State (i_A, i_B)'s predecessor with old symbol
    b is arithmetic, parent_A[i_A] |B_{k-1}| + pos_B[i_B, b]: parent_A is
    the prefix level's (the identity where the new row has no site), and
    pos_B[i_B, b] the suffix i_B extended by b, whose extensions the suffix
    level's sorted keep array holds side by side, in ascending b (the
    identity where the old row has no site). Its weight is nonzero, the
    entry live, where b extends i_B and table[a, b] is finite, which the
    q x q table decides per new symbol a.

    A step is (idx, w, shift, spread). idx holds, for every state, its live
    predecessors in ascending b, padded to the most any state has (at most
    q) by index 0: the zero slot `_run_steps` keeps in front of every
    vector, which column 0 keeps in front of the step's output. w holds
    the entries' weights exp-shifted by shift, their largest log-weight, or
    is None when those are all equal. spread is their log-weights' max -
    min plus log q for a column in the old row; past `_SPREAD`, w holds the
    log-weights themselves. A column is refused when the states held
    before its site, |A_{k-1}| |B_k|, times q exceed the budget or
    `_INDEX_LIMIT`: idx is int32, and no index passes |A_{k-1}| |B_{k-1}|,
    which those held states bound."""
    q = phi.q
    columns = _columns(old, new, q)
    old_x, new_x = ({v[0] for v in row.sites} for row in (old, new))
    suffix, rank = suffix
    table = dict(phi.edges((0, 0))).get((0, old.y - new.y))
    if table is not None:
        logw = -table  # logw[a, b]: new symbol a against old symbol b
        allowed = np.isfinite(logw)
        values = logw[allowed]
        unit = values.size == 0 or values.min() == values.max()
        unit_shift = float(values.max()) if values.size else 0.0
    log_q = np.log(q)
    sizes = [1] + [len(keep) for keep in suffix]  # |B| by the number of old sites it holds
    prefix, n_a, m = iter(prefix), 1, len(suffix)  # |A_{k-1}| and B_{k-1}'s level
    steps = []
    for k, x in enumerate(columns, 1):
        n_b, m = sizes[m], m - (x in old_x)
        held = n_a * sizes[m] * q
        if held > min(budget, _INDEX_LIMIT):
            limit = f"the limit {budget}" if held > budget else f"the int32 index limit {_INDEX_LIMIT}"
            raise BudgetError(
                f"transfer states of row y={new.y}: needs {held} states at column {k} of {len(columns)}, over {limit}"
            )
        # pos[i_B, b]: 1 + the B_{k-1} index of suffix i_B extended by b (the
        # old.configs row at k = 1), 0 where b does not extend it
        src = rank + 1 if k == 1 else np.arange(1, n_b + 1)
        if x in old_x:
            pos = np.zeros(sizes[m] * q, dtype=np.int32)
            pos[suffix[m]] = src
            pos = pos.reshape(-1, q)
        else:
            pos = src[:, None].astype(np.int32)
        parent, a = np.divmod(next(prefix), q) if x in new_x else (np.arange(n_a), None)
        weighed = x in old_x and x in new_x and table is not None
        lead = q if weighed else 1  # q where the table decides per new symbol a which entries live
        # f: the live entries, flat in live[a, i_B, b], so each (a, i_B)'s
        # side by side in ascending b; g = a |B_k| + i_B
        extends = pos > 0
        f = np.flatnonzero(extends & allowed[:, None, :] if weighed else extends)
        g, b = np.divmod(f, pos.shape[1])
        r = np.zeros(len(f), dtype=np.intp)  # each entry's rank within its (a, i_B)
        for d in range(1, pos.shape[1]):
            r[d:] += g[d:] == g[:-d]
        terms = int(r.max(initial=0)) + 1
        # compact[l, a, i_B]: the l-th live pos; padding so negative that no
        # parent offset lifts it above the zero slot, where the clip sets it
        at = r * (lead * sizes[m]) + g
        compact = np.full((terms, lead, sizes[m]), -n_a * n_b, dtype=np.int32)
        compact.reshape(-1)[at] = np.take(pos, f % pos.size)
        idx = np.zeros((terms, 1 + len(parent) * sizes[m]), dtype=np.int32)
        local = np.take(compact, a, axis=1) if weighed else compact
        np.maximum(local + (parent.astype(np.int32) * n_b)[:, None], 0, out=idx[:, 1:].reshape(terms, len(parent), -1))
        w, shift, spread = None, unit_shift if weighed else 0.0, log_q if x in old_x else 0.0
        if weighed and not unit:
            present = np.zeros(q, dtype=bool)
            present[a] = True
            # the live entries' log-weights: a held by A_k, b extending some suffix
            seen = logw[allowed & present[:, None] & (np.bincount(b, minlength=q) > 0)].tolist()
            shift, low = (max(seen), min(seen)) if seen else (0.0, 0.0)
            if low < shift:
                spread += shift - low
                linear = spread <= _SPREAD
                table_w = np.exp(logw - shift) if linear else logw
                live_w = np.full((terms, q, sizes[m]), 0.0 if linear else LOG_ZERO)
                live_w.reshape(-1)[at] = table_w[g // sizes[m], b]
                w = np.full(idx.shape, 0.0 if linear else LOG_ZERO)
                w[:, 1:].reshape(terms, len(parent), -1)[...] = np.take(live_w, a, axis=1)
        steps.append((idx, w, shift, spread))
        n_a = len(parent)
    return steps


def _linear_step(e: np.ndarray, idx: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """One transfer step (`_transfer_steps`) on linear-domain vectors along
    the last axis, each with the zero slot in front, weight 0, which the
    step keeps in front of its output and its padding indices gather. It
    gathers its index rows, multiplies them by its weights only where it
    has any, and adds them in ascending b, leaving out its shift. A single
    vector adds its rows one at a time and a batch sums them: each is the
    faster at its shape, and both add in b order, to the same bits."""
    if e.ndim > 1 and e.size == e.shape[-1]:  # a single vector in a batch's shape
        return _linear_step(e.reshape(-1), idx, w).reshape(*e.shape[:-1], -1)
    t = e.take(idx, axis=-1)
    if w is not None:
        np.multiply(t, w, out=t)
    return sum(t[1:], t[0]) if e.ndim == 1 else t.sum(axis=-2)


def _run_steps(v: np.ndarray, steps) -> np.ndarray:
    """Apply transfer steps (`_transfer_steps`) to log-weight vectors along
    the last axis: in the linear domain (`_linear_step`) when the vectors'
    row spread plus the steps' spreads is at most `_SPREAD` (finite entries
    stay within [e^-700, e^700], so no step rescales, and zeros stay
    exact), else by one logsumexp per step. The vectors get a zero slot in
    front, weight 0, which every step keeps in front of its output and its
    padding indices gather."""
    slotted = np.empty((*v.shape[:-1], 1 + v.shape[-1]))
    slotted[..., 0], slotted[..., 1:] = LOG_ZERO, v
    e, m, spread = _exp_shifted(slotted)
    with np.errstate(divide="ignore"):
        if spread + sum(step[3] for step in steps) <= _SPREAD:
            del slotted  # only the logsumexp steps read it
            for idx, w, _, _ in steps:
                e = _linear_step(e, idx, w)
            out = np.log(e[..., 1:])
            out += m + sum(step[2] for step in steps)
            return out
        v = slotted
        for idx, w, shift, spread in steps:
            logw = shift if w is None else w if spread > _SPREAD else np.log(w) + shift
            v = logsumexp(np.take(v, idx, axis=-1) + logw, axis=-2)
    return v[..., 1:]


@dataclass(frozen=True, eq=False)  # fields are arrays: compared by identity
class SplitEnsemble:
    """Ensemble members as (head, tail) pairs: each True entry (h, t) of the
    (len(heads), len(tails)) bool mask `pairs`, in row-major (head major)
    order, is one member, heads[h] followed by tails[t]. `len()` counts them."""

    heads: np.ndarray
    tails: np.ndarray
    pairs: np.ndarray

    def __len__(self) -> int:
        return int(np.count_nonzero(self.pairs))


class RegionEngine:
    """Reusable row-sweep DP over a fixed region and interaction.

    Rows and transitions depend on the region's geometry and the model only.
    Rows are processed from the top down. Every per-call condition is plain
    data, an exterior `Configuration`, pin maps {site: symbol or tuple of
    symbols} or the ensemble of `evaluate_deltas`, which only the engine
    turns into additive per-row log-weight vectors (`terms_from_boundary`,
    `terms_from_pins`, `_exterior`), each row's when the sweep reaches it.
    So one engine serves an entire ensemble of boundary conditions. With
    `target` set, evaluation returns the vector of log partition functions
    split by the target site's symbol, which may lie in any row: a sweep in
    either direction splits its vectors by that symbol where it passes the
    target's row (`_split`). Rows with equal x columns share one run of
    `_row_chains`: their states, the prefix chain of each transfer into
    them and the suffix chain of each transfer out of them, held only until
    the transitions are built. Each transition is the steps of
    `_transfer_steps`, which keep each state's live predecessors only and
    weights only where they differ; equal row pairs share one. Steps and
    products share one linear-domain rule (`_SPREAD`).

    The kind of ensemble picks the path. A member matrix runs one forward
    sweep over all its members through the steps (the canopy extremes: two
    members), and takes each row's vectors only when it reaches that row:
    the exterior edges into the row, gathered per member from the tables,
    plus the row's shared log-weights. A `SplitEnsemble`, whose head sites
    touch the top row only (`is_head`), meets in the middle (`_combine`).
    One backward sweep runs per tail and target symbol, from the lowest row
    up, through each transition's S_r x S_s log-weights, built and kept
    only here; over the top row's states every head vector then joins every
    backward vector, and the ensemble's pair mask picks the members. Both
    products go through `_log_products`, which forms them over live rows
    only, those with a finite entry, on either side: a pair with a row of
    -inf is -inf without a product.
    """

    def __init__(
        self,
        region: Region,
        phi: Interaction,
        target: Site | None = None,
        budget: int = DEFAULT_BUDGET,
    ):
        self.region = region
        self.phi = phi
        self.target = target
        by_y: dict[int, list[Site]] = {}
        for v in region:
            by_y.setdefault(v[1], []).append(v)
        if target is not None and target not in region:
            raise ValueError("target site outside the region")
        self.rows = [_Row(y, sorted(by_y[y])) for y in sorted(by_y, reverse=True)]
        self._row_of = {v: i for i, row in enumerate(self.rows) for v in row.sites}

        for r, s in zip(self.rows, self.rows[1:]):  # refuse wide regions before any enumeration
            _columns(r, s, phi.q)
        # x columns: (configs, internal, prefix chain, (suffix chain, rank))
        chains: dict[tuple[int, ...], tuple] = {}
        for row in self.rows:  # rows with equal x columns share states
            cols = tuple(v[0] for v in row.sites)
            if cols not in chains:
                for prefix, configs, energy, suffix, reversed_configs in _row_chains(row, phi, budget):
                    pass
                chains[cols] = configs, -energy, prefix, (suffix, _rank(reversed_configs))
            row.configs, row.internal = chains[cols][:2]
        self.infeasible = any(len(row.configs) == 0 for row in self.rows)

        # [steps, log-weights] per row pair; _combine builds the log-weights
        self._trans, shared = [], {}
        for r, s in [] if self.infeasible else zip(self.rows, self.rows[1:]):
            key = (r.y - s.y, *(tuple(v[0] for v in row.sites) for row in (r, s)))
            if key not in shared:
                shared[key] = [_transfer_steps(r, s, chains[key[2]][2], chains[key[1]][3], phi, budget), None]
            self._trans.append(shared[key])

        # (row index, (q, n_states) masks by the target's symbol), or None
        self._target = None
        if target is not None:
            i = self._row_of[target]
            self._target = (i, self.rows[i].configs[:, self.rows[i].col[target]] == np.arange(phi.q)[:, None])

    def is_head(self, v: Site) -> bool:
        """True for an exterior site whose neighbours in the region all lie
        in the top row: a head site of the meet in the middle."""
        return v not in self._row_of and {self._row_of[u] for u in neighbors(v) if u in self._row_of} == {0}

    # -- per-call term builders ------------------------------------------

    def terms_from_boundary(self, config: Configuration):
        """A generator of per-row log-weight vectors for edges into a pinned
        exterior configuration, each formed when it is reached; symbols are
        checked at the call. Exterior sites not adjacent to the region, and
        sites inside it, are ignored."""
        sites = list(config.symbols)
        symbols = np.array([[config.symbols[v] for v in sites]], dtype=np.int64)
        if ((symbols < 0) | (symbols >= self.phi.q)).any():
            raise ValueError("boundary symbol out of alphabet range")
        return (None if vec is None else vec[0] for vec in self._exterior(sites, symbols))

    def terms_from_pins(self, pins: Mapping[Site, int | Sequence[int]]):
        """A generator of per-row vectors, as `terms_from_boundary`'s: 0
        where the row's pinned sites hold their symbol, or one of their
        allowed symbols, and -inf elsewhere; None for a row with no pinned
        site. Sites outside the region are ignored."""
        pins = {v: np.asarray(a, dtype=np.int64) for v, a in pins.items()}
        if any(((a < 0) | (a >= self.phi.q)).any() for a in pins.values()):
            raise ValueError("pin symbol out of alphabet range")

        def rows():
            for row in self.rows:
                held = [np.isin(row.configs[:, row.col[v]], a) for v, a in pins.items() if v in row.col]
                yield np.where(np.logical_and.reduce(held), 0.0, LOG_ZERO) if held else None

        return rows()

    def _exterior(self, sites: Sequence[Site], symbols: np.ndarray):
        """Yield, row by row from the top, the (len(symbols), n_states) sum
        of the edges from the exterior `sites` into that row, one member per
        row of `symbols` (one column per site), or None for a row no site
        touches. Each site's four edges (`Interaction.edges`) are walked once
        and grouped by the neighbour's row, so only the row at hand is ever
        held; sites inside the region add nothing. Summed as 0 - e_1 - e_2
        ... in (site, edge) order, each edge gathered straight from its
        table, the exterior symbol first."""
        by_row: dict[int, list] = {}
        for d, v in enumerate(sites):
            for u, table in () if v in self._row_of else self.phi.edges(v):
                i = self._row_of.get(u)
                if i is not None:
                    by_row.setdefault(i, []).append((d, table, self.rows[i].col[u]))
        for i, row in enumerate(self.rows):
            vec = None
            for d, table, j in by_row.get(i, ()):
                t = table[symbols[:, d, None], row.configs[:, j]]  # a fresh array
                vec = np.subtract(0.0, t, out=t) if vec is None else np.subtract(vec, t, out=vec)
            yield vec

    # -- sweeps ------------------------------------------------------------

    def _split(self, i: int, v: np.ndarray) -> np.ndarray:
        """(..., outputs, n_states) log-weights at row i, split into one
        output per target symbol when row i holds the target."""
        if self._target is None or self._target[0] != i:
            return v
        return np.where(self._target[1], v, LOG_ZERO)

    def _sweep(self, row_vecs) -> np.ndarray:
        """The (members, outputs, n_states) log-weights of the rows down to
        the lowest, from an iterator of per-row (members, n_states) vectors,
        each taken only when the sweep reaches its row."""
        row_vecs = iter(row_vecs)
        v = self._split(0, next(row_vecs)[:, None, :])
        for i, ((steps, _), vec) in enumerate(zip(self._trans, row_vecs), 1):
            v = self._split(i, _run_steps(v, steps) + vec[:, None, :])
        return v

    def evaluate(self, boundary: Configuration = EMPTY_CONFIGURATION, *pins: Mapping[Site, int | Sequence[int]]):
        """Log partition function (scalar, or per-target-symbol vector)
        under a pinned exterior configuration and any pin maps, {site:
        symbol or tuple of allowed symbols}: a one-member `evaluate_deltas`."""
        out = self.evaluate_deltas(boundary, (), np.zeros((1, 0), dtype=np.int64), *pins)[0]
        return out if self._target is not None else float(out)

    def evaluate_deltas(
        self,
        boundary: Configuration,
        delta_sites: Sequence[Site],
        delta_matrix: np.ndarray | SplitEnsemble,
        *pins: Mapping[Site, int | Sequence[int]],
    ) -> np.ndarray:
        """Evaluate a whole ensemble of exterior configurations, under the
        `boundary` and `pins` of `evaluate`.

        delta_matrix has one row per ensemble member, one column per site of
        delta_sites, as a symbol matrix or as a `SplitEnsemble` whose head
        columns come first. Returns (n_deltas,) log partitions, in member
        (for a split ensemble, pair-mask) order, or (n_deltas, q) split by
        the target symbol when a target is set. A split ensemble meets in the
        middle as it is (`_combine`). A symbol matrix runs one forward sweep
        over all its members; each row's vectors, its shared log-weights
        (internal energies plus boundary and pin terms) and the members'
        exterior sum, are formed only when the sweep reaches that row.
        """
        if not isinstance(delta_matrix, SplitEnsemble):
            delta_matrix = np.asarray(delta_matrix)
        terms = [self.terms_from_boundary(boundary), *map(self.terms_from_pins, pins)]  # checked before any sweep
        n = len(delta_matrix)
        out_shape = (n, self.phi.q) if self._target is not None else (n,)
        if not self.rows:
            return np.zeros(out_shape)
        if self.infeasible:
            return np.full(out_shape, LOG_ZERO)

        def base():
            for row, *row_terms in zip(self.rows, *terms):
                vec = row.internal
                for t in row_terms:
                    if t is not None:
                        vec = vec + t
                yield vec

        if isinstance(delta_matrix, SplitEnsemble):
            return self._combine(list(base()), delta_sites, delta_matrix).reshape(out_shape)
        vecs = (
            np.repeat(b[None, :], n, axis=0) if v is None else np.add(v, b, out=v)
            for v, b in zip(self._exterior(delta_sites, delta_matrix), base())
        )
        return logsumexp(self._sweep(vecs), axis=-1).reshape(out_shape)

    # -- meet in the middle ------------------------------------------------

    def _combine(self, base, delta_sites, ensemble: SplitEnsemble):
        """Meet-in-the-middle evaluation of a split ensemble.

        `_backward` gives one vector per tail and output, `_log_products`
        joins every head vector to every backward vector over the top row's
        states, and the ensemble's pair mask picks the members from the join,
        head major. A head column whose site is not a head site (`is_head`)
        is refused. The transitions' log-weights are built on first use, by
        running their steps on the log identity.
        """
        split = ensemble.heads.shape[1]
        if not all(map(self.is_head, delta_sites[:split])):
            raise ValueError("a split ensemble's head sites must touch the top row only")
        if not len(ensemble):
            return np.zeros(0)
        sizes = [len(row.configs) for row in self.rows]
        for size, pair in zip(sizes, self._trans):
            if pair[1] is None:
                pair[1] = _run_steps(np.where(np.eye(size, dtype=bool), 0.0, LOG_ZERO), pair[0])
        heads = next(self._exterior(delta_sites[:split], ensemble.heads))
        if heads is None:
            heads = np.zeros((len(ensemble.heads), sizes[0]))
        tails = list(self._exterior(delta_sites[split:], ensemble.tails))
        vecs = [b[None, :] if t is None else t + b for t, b in zip(tails, base)]
        joined = _log_products(heads, self._backward(vecs)).reshape(len(heads), len(ensemble.tails), -1)
        return joined[ensemble.pairs]

    def _backward(self, vecs: list[np.ndarray]) -> np.ndarray:
        """The row sweep run from the lowest row up, through each
        transition's log-weights: from per-row (T or 1, n_states) vectors,
        the (T * outputs, top-row states) log-weights of the rows below each
        top state, tail major, one output per target symbol from the
        target's row up (one without a target)."""
        back = self._split(len(vecs) - 1, vecs[-1][:, None, :])
        for i in range(len(vecs) - 2, -1, -1):
            z = _log_products(back.reshape(-1, back.shape[-1]), self._trans[i][1])
            back = self._split(i, z.reshape(*back.shape[:2], -1) + vecs[i][:, None, :])
        return back.reshape(-1, back.shape[-1])


def _log_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) log(sum_k exp(a[i, k] + b[j, k])) of every pair
    of rows. Only live rows, those with a finite entry, go through a
    product: a pair with a row of -inf on either side is -inf without one.

    When the finite row spreads of `a` and `b` sum to at most `_SPREAD`, one
    exp-shifted GEMM, with per-row shifts on both sides, forms every pair:
    each product of two finite exp-shifted entries is then at least e^-700,
    above the smallest normal double, so no finite term underflows and zero
    weights stay exact zeros. Past that spread a logsumexp forms them, over
    blocks of rows of `a` (at least one) holding at most `_ENTRIES` entries.
    """
    out = np.full((len(a), len(b)), LOG_ZERO)
    rows, cols = np.isfinite(a).any(-1), np.isfinite(b).any(-1)
    a, b = a[rows], b[cols]
    if not (len(a) and len(b)):
        return out
    (ea, ma, sa), (eb, mb, sb) = _exp_shifted(a), _exp_shifted(b)
    if sa + sb <= _SPREAD:
        z = ea @ eb.T
        with np.errstate(divide="ignore"):
            np.log(z, out=z)
        z += ma
        z += mb.T
    else:
        step = max(1, _ENTRIES // b.size)
        z = np.concatenate([logsumexp(a[lo : lo + step, None] + b, axis=-1) for lo in range(0, len(a), step)])
    out[np.ix_(rows, cols)] = z
    return out


def _exp_shifted(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(exp(a - m), m, spread) along the last axis of the log-weights `a`
    (finite or -inf): m the row maxima (0 for a row of -inf), kept as a
    trailing axis, and spread the largest max - min over the finite entries
    of a row (0 when no entry is finite)."""
    m = np.max(a, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    d = a - m
    spread = -float(np.where(np.isfinite(d), d, 0.0).min(initial=0.0))
    return np.exp(d, out=d), m, spread


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
    return RegionEngine(cr.region, phi, budget=budget).evaluate(cr.boundary, cr.allowed)


def _conditioned(cr: ConstrainedRegion, phi: Interaction, budget: int):
    """Engine and log denominator, `evaluate(cr.boundary, cr.allowed)`, for
    conditioning on cr's boundary, which must cover the region's full
    exterior boundary."""
    if not len(cr.region):
        raise ValueError("conditional probability needs a nonempty region")
    missing = boundary(cr.region).sites - cr.boundary.region.sites
    if missing:
        raise ValueError(
            f"boundary must cover the full exterior boundary; missing {sorted(missing)}"
        )
    engine = RegionEngine(cr.region, phi, budget=budget)
    denom = engine.evaluate(cr.boundary, cr.allowed)
    if denom == LOG_ZERO:
        raise HypothesisError("boundary condition inadmissible")
    return engine, denom


def conditional_probability(
    event: Mapping[Site, int],
    cr: ConstrainedRegion,
    phi: Interaction,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Probability of pinning `event` inside cr, given the boundary.

    Computed as exp(num - denom), a difference of log partition functions,
    never as a ratio of linear-domain weights. Nothing is clamped: by
    rounding the value can exceed 1.
    """
    for v in event:
        if v not in cr.region:
            raise ValueError("event site outside the region")
    engine, denom = _conditioned(cr, phi, budget)
    num = engine.evaluate(cr.boundary, cr.allowed, event)
    return float(np.exp(num - denom))


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
    engine, denom = _conditioned(cr, phi, budget)
    probs = np.empty(phi.q)
    for a in range(phi.q):
        num = engine.evaluate(cr.boundary, cr.allowed, {site: a})
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


#: Power iterations a strip restart combines (`_ritz`).
_RESTART_SPAN = 4
#: `strip_sequence`'s run of `_row_chains` over its widest row, whose
#: entries its `strip_pressure` calls read in ascending width; empty outside
_STRIP_RUN: ContextVar = ContextVar("_STRIP_RUN", default=())
#: A Gram-Schmidt column that keeps at most this fraction of its norm has
#: collapsed: the iterates span fewer dimensions than they number.
_COLLAPSE = 1e-8
#: Squarings of the projected matrix: its 2^10-th power.
_SQUARINGS = 10


def _ritz(pairs: list) -> np.ndarray | None:
    """The Perron Ritz vector of span{x_j}, from power iterates' pairs
    (x_j, y_j) of linear weights with y_j = A x_j / c, one common factor c,
    which share one support: weights of largest entry 1 on that support
    and 0 off it, or None when a Gram-Schmidt column collapses
    (`_COLLAPSE`) or the vector is not positive on the support.

    Row j of `vw` holds x_j beside the image y_j / c', c' the images'
    largest entry, so Gram-Schmidt, run twice per column, orthonormalises
    the x_j into Q and applies the same column operations to the images,
    which gives A Q / (c c'). The dominant eigenvector of Q^T A Q is a
    column of its repeated square, mapped back through Q. The products are
    einsum calls: BLAS `@` was faster in only 5 of 10 alternating runs of
    the 3-colouring strip benchmark on a 2-core host, and peaked 0.6 MB
    higher."""
    support = pairs[0][0] > 0
    n = len(support)
    vw = np.empty((len(pairs), 2 * n))
    for j, (x, y) in enumerate(pairs):
        vw[j, :n], vw[j, n:] = x, y
    vw[:, n:] /= vw[:, n:].max()
    v = vw[:, :n]
    for j in range(len(pairs)):
        norm = sqrt(np.einsum("i,i", v[j], v[j]))
        for _ in range(2 if j else 0):
            vw[j] -= np.einsum("k,ki->i", np.einsum("ki,i->k", v[:j], v[j]), vw[:j])
        left = sqrt(np.einsum("i,i", v[j], v[j]))
        if not left > _COLLAPSE * norm:
            return None
        vw[j] /= left
    p = np.einsum("ki,ji->kj", v, vw[:, n:])  # Q^T A Q / (c c')
    for _ in range(_SQUARINGS):
        top = np.abs(p).max()
        if not top > 0:
            return None
        p /= top
        p = np.einsum("ij,jk->ik", p, p)
    z = np.einsum("k,ki->i", p[:, np.abs(p).sum(axis=0).argmax()], v)[support]
    z = z if z.sum() > 0 else -z
    if not (z > 0).all():
        return None
    out = np.zeros(n)
    out[support] = z / z.max()
    return out


def strip_pressure(
    m: int,
    phi: Interaction,
    tol: float = 1e-10,
    max_iter: int = 100000,
    budget: int = DEFAULT_BUDGET,
) -> StripBounds:
    """Per-site pressure bracket for the width-m strip.

    Power-iterates the row transfer operator A from the all-ones vector on
    admissible rows and returns Collatz-Wielandt bounds on log(lambda_max),
    stopping when the per-site gap drops below tol. Degenerate strips (no
    admissible row survives) yield a [-inf, -inf] bracket. The row's
    chains are the last entry of its `_row_chains`, or, for a width of
    `strip_sequence`, the entry of its shared run (`_STRIP_RUN`).

    The operator is applied as the site-by-site steps of `_transfer_steps`
    from the row to itself, each a gather and sum over every state's live
    predecessors, with a multiply only where the vertical weights differ
    (none for the hard square at lambda = 1 or the colourings), and then
    by the row weights. The iterate is held in the linear domain, largest
    entry 1, with the zero slot in front that the steps gather: the
    Collatz-Wielandt ratios are y/x, and only their least and largest go to
    logs. Each application checks the `_SPREAD` rule on the iterate's
    spread plus the steps' and the row weights'; once the rule fails, the
    iterate turns to log-weights for good, and the steps run through
    `_run_steps`. After every `_RESTART_SPAN` linear iterations with one
    stable support, the next iterate is replaced by the Perron Ritz vector
    of their span (`_ritz`), an explicitly restarted Rayleigh-Ritz step
    that costs no application of A. A restart is declined when the
    iterates' span collapses or the Ritz vector is not positive. A restart
    that fails to shrink the bracket is undone: the iteration goes on from
    the power iterate it replaced, and restarts go on. So each failed
    restart spends exactly one application, and every other bracket is
    the one plain power iteration gives from the same iterate.
    `iterations` counts the applications of A, and every bracket is the
    Collatz-Wielandt bracket of a true application to a positive vector,
    whatever the Ritz step returned.
    """
    if m < 1:
        raise ValueError("strip width must be positive")
    row = _Row(0, [(x, 0) for x in range(m)])
    try:
        try:
            chains = next(c for c in _STRIP_RUN.get() if len(c[0]) == m)  # c[0]: one keep array per site
        except (StopIteration, BudgetError):  # no shared run, or a refused one: refused again in this width's terms
            for chains in _row_chains(row, phi, budget):
                pass
        prefix, row.configs, energy, suffix, reversed_configs = chains
        if not len(row.configs):
            return StripBounds(m, LOG_ZERO, LOG_ZERO, 0)
        below = _Row(-1, [(x, -1) for x in range(m)])  # the row itself, one step down
        steps = _transfer_steps(below, row, prefix, (suffix, _rank(reversed_configs)), phi, budget)
    except BudgetError as exc:
        raise BudgetError(f"strip of width {m}: {exc}") from None
    # the iteration runs these steps up to max_iter times, and np.take would
    # convert int32 indices to intp on every run: convert them once
    steps = [(idx.astype(np.intp), *rest) for idx, *rest in steps]
    internal = -energy  # finite: every row is admissible
    top, low = float(internal.max()), float(internal.min())
    weights = np.exp(internal - top) if low < top else None
    # the spread a linear application adds, and the log of the factor it leaves out
    added, scale = sum(step[3] for step in steps) + top - low, sum(step[2] for step in steps) + top
    x = np.ones(1 + len(internal))
    x[0] = 0.0
    linear = True
    lo = hi = LOG_ZERO
    it = 0
    # (x, y) pairs since the last restart, and the power iterate and bracket
    # width a pending restart replaced
    pairs, replaced, gap = [], None, inf
    for it in range(1, max_iter + 1):
        live_x = x > 0 if linear else np.isfinite(x)
        if linear and added - log(x.min(where=live_x, initial=1.0)) > _SPREAD:
            linear, pairs, live_x = False, [], live_x[1:]
            with np.errstate(divide="ignore"):
                x, replaced = (None if v is None else np.log(v[1:]) for v in (x, replaced))
        if linear:
            y = x
            for idx, w, _, _ in steps:
                y = _linear_step(y, idx, w)
            if weights is not None:
                y[1:] *= weights
            live_y = y > 0
        else:
            y = _run_steps(x, steps) + internal
            live_y = np.isfinite(y)
        mask = live_x & live_y
        if not mask.any():
            return StripBounds(m, LOG_ZERO, LOG_ZERO, it)
        if linear:
            ratios = y[mask] / x[mask]
            lo, hi = log(ratios.min()) + scale, log(ratios.max()) + scale
            following = y / y.max()
        else:
            ratios = y[mask] - x[mask]
            lo, hi = float(ratios.min()), float(ratios.max())
            following = y - y[mask].max()
        stable = np.array_equal(live_x, live_y)
        if replaced is not None and not hi - lo < gap:  # x, a Ritz vector, did not narrow the bracket
            following = replaced
        replaced = None
        if stable and (hi - lo) / m < tol:
            break
        pairs = pairs + [(x, y)] if stable and linear else []
        if len(pairs) == _RESTART_SPAN:
            ritz, pairs = _ritz(pairs), []
            if ritz is not None:
                replaced, gap, following = following, hi - lo, ritz
        x = following
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
    Every width is one `strip_pressure` call, and all of them read one run
    of `_row_chains` over the widest row (`_STRIP_RUN`). Where a shared
    level is refused, the width runs its own enumeration, which is refused
    at the same site and says so in that width's terms.
    """
    widths = sorted(set(widths))
    if not widths or widths[0] < 1:
        raise ValueError("widths must be positive")
    needed = sorted(set(widths) | {m - 1 for m in widths if m >= 2})
    token = _STRIP_RUN.set(_row_chains(_Row(0, [(x, 0) for x in range(needed[-1])]), phi, budget))
    try:
        cache = {m: strip_pressure(m, phi, tol=tol, max_iter=max_iter, budget=budget) for m in needed}
    finally:
        _STRIP_RUN.reset(token)
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
    top = _Row(m, [(x, m) for x in range(1, m + 1)])
    _columns(top, top, phi.q)  # refuse over-wide rows before building the m^2 sites
    region = Region((x, y) for y in range(1, m + 1) for x in range(1, m + 1))
    value = log_partition(ConstrainedRegion(region), phi, budget=budget)
    return value / (m * m)
