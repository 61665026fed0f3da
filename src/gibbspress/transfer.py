"""Exact log-domain partition functions on finite regions by row-sweep
dynamic programming, conditional probabilities, and the strip oracle.

A stored weight is its natural log, -inf for weight zero. Sums of weights
multiply and add exp-shifted values while the spreads they combine sum to
at most `_SPREAD`, and go through logsumexp past it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Mapping, Sequence

import numpy as np

from .errors import BudgetError, HypothesisError
from .interaction import EMPTY_CONFIGURATION, Configuration, Interaction
from .lattice import Region, Site, boundary, neighbors
from .sft import admissible_levels, admissible_states

LOG_ZERO = -inf
_SPREAD = 700.0  # e^-700 lies above the smallest normal double, e^700 below the largest

#: The one resource limit: the most states a single enumeration (canopy,
#: row or strip) or transfer step may hold as it extends its states site by
#: site; see `sft.admissible_states` and `_transfer_steps`.
DEFAULT_BUDGET = 1 << 24


def logsumexp(a, axis: int):
    """log(sum(exp(a))) along `axis` with -inf-safe handling; empty sums
    give -inf."""
    a = np.asarray(a, dtype=float)
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
    boundary configuration (disjoint from the region).

    Allowed sets restrict symbols per call: they enter the engine's sums as
    set-valued pins (`RegionEngine.terms_from_pins`), so the region's rows
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


def _enumerate_row(row: _Row, phi: Interaction, budget: int):
    """Fill row.configs / row.internal with the row's admissible states, in
    lexicographic order (first site most significant)."""
    try:
        row.configs, energy = admissible_states(row.sites, phi, budget)
    except BudgetError as exc:
        raise BudgetError(f"transfer states of row y={row.y}: {exc}") from None
    row.internal = -energy


def _columns(old: _Row, new: _Row, q: int) -> list[int]:
    """Sorted x columns of the transfer between two rows. Refuses rows so
    wide that q^columns, the most states a stage could hold, passes the
    int64 limit 2^62, before any of their states are enumerated."""
    columns = sorted({v[0] for row in (old, new) for v in row.sites})
    if q ** min(len(columns), 63) > 1 << 62:  # q >= 2: cap the power
        raise BudgetError(f"{len(columns)} columns admit {q}^{len(columns)} row states, over the int64 limit 2^62")
    return columns


def _chain(sites: list[Site], phi: Interaction, budget: int) -> tuple[list, np.ndarray]:
    """The keep arrays of `admissible_levels` over `sites`, one per site,
    and the last level's configs."""
    keeps = []
    for keep, cfg, _ in admissible_levels(sites, phi, budget):
        keeps.append(keep)
    return keeps[1:], cfg


def _transfer_steps(old: _Row, new: _Row, table, phi: Interaction, budget: int) -> list:
    """Site-by-site steps (`_step`) of the transfer from the enumerated,
    nonempty row `old` to `new`, one per column in x order. After k columns
    a state holds the new symbols left of the cut and the old ones from the
    cut on, shifted one x right so that no edge crosses the cut. So stage k
    is the lexicographic product A_k x B_k of a level of the new row's
    left-to-right enumeration (its prefixes) and one of the old row's
    right-to-left enumeration (its suffixes). Stage 0 is old.configs,
    reached through one `np.lexsort`, and the last stage is new.configs.

    A column in both rows swaps the old symbol b for the new symbol a with
    log-weight -table[b, a] (0 when table is None), one only in the old row
    sums its symbol out and one only in the new row inserts it. State
    (i_A, i_B)'s predecessor with old symbol b is arithmetic, idx[b, i] =
    parent_A[i_A] |B_{k-1}| + pos_B[b, i_B]: parent_A is the prefix level's
    (the identity where the new row has no site), and pos_B is -1 where b
    does not extend suffix i_B (the identity where the old row has no site),
    where logw[b, i] is -inf. A column is refused when the states held
    before its site, |A_{k-1}| |B_k|, times q exceed the budget."""
    q = phi.q
    columns = _columns(old, new, q)
    old_x, new_x = ({v[0] for v in row.sites} for row in (old, new))
    try:
        prefix, _ = _chain(new.sites, phi, budget)
        suffix, reversed_old = _chain(old.sites[::-1], phi, budget)
    except BudgetError as exc:
        raise BudgetError(f"transfer states of row y={new.y}: {exc}") from None
    # rank[j]: the row of old.configs that holds the suffix chain's state j
    rank = np.empty(len(reversed_old), dtype=np.int64)
    rank[np.lexsort(reversed_old.T)] = np.arange(len(rank))
    sizes = [1] + [len(keep) for keep in suffix]  # |B| by the number of old sites it holds
    prefix, n_a, m = iter(prefix), 1, len(suffix)  # |A_{k-1}| and B_{k-1}'s level
    steps = []
    for k, x in enumerate(columns, 1):
        n_b, m = sizes[m], m - (x in old_x)
        held = n_a * sizes[m] * q
        if held > budget:
            raise BudgetError(
                f"transfer states of row y={new.y}: needs {held} states at column {k} of {len(columns)}, "
                f"over the limit {budget}"
            )
        if x in old_x:
            pos = np.full(sizes[m] * q, -1)
            pos[suffix[m]] = np.arange(n_b)
            pos = pos.reshape(-1, q).T
        else:
            pos = np.arange(n_b)[None, :]
        if k == 1:
            pos = np.where(pos < 0, -1, rank[pos])
        parent, a = np.divmod(next(prefix), q) if x in new_x else (np.arange(n_a), None)
        # int32 indices halve the steps' index memory whenever they fit
        dtype = np.int32 if n_a * n_b <= np.iinfo(np.int32).max else np.int64
        idx = (parent.astype(dtype) * n_b)[:, None] + np.maximum(pos, 0).astype(dtype)[:, None, :]
        logw = -table[:, a][:, :, None] if x in old_x and x in new_x and table is not None else 0.0
        logw = np.broadcast_to(np.where(pos[:, None, :] < 0, LOG_ZERO, logw), idx.shape)
        steps.append(_step(idx.reshape(len(pos), -1), logw.reshape(len(pos), -1)))
        n_a = len(parent)
    return steps


def _step(idx: np.ndarray, logw: np.ndarray) -> tuple:
    """The step (idx, w, shift, spread) of log-weights logw on predecessors
    idx: w = exp(logw - shift), shift the largest finite logw, spread its
    finite max - min plus log(len(idx)); over `_SPREAD`, w keeps logw."""
    w, shift, spread = _exp_shifted(logw.reshape(1, -1))
    spread += np.log(len(idx))
    return idx, w.reshape(idx.shape) if spread <= _SPREAD else logw, float(shift[0, 0]), spread


def _run_steps(v: np.ndarray, steps) -> np.ndarray:
    """Apply transfer steps to log-weight vectors along the last axis: in
    the linear domain when the vectors' row spread plus the steps' spreads
    is at most `_SPREAD` (finite entries stay within [e^-700, e^700], so no
    step rescales, and zeros stay exact), else by one logsumexp per step."""
    e, m, spread = _exp_shifted(v)
    with np.errstate(divide="ignore"):
        if spread + sum(step[3] for step in steps) <= _SPREAD:
            for idx, w, _, _ in steps:
                t = np.take(e, idx, axis=-1)
                e = np.multiply(t, w, out=t).sum(axis=-2)
            return np.log(e, out=e) + (m + sum(step[2] for step in steps))
        for idx, w, shift, spread in steps:
            logw = w if spread > _SPREAD else np.log(w) + shift
            v = logsumexp(np.take(v, idx, axis=-1) + logw, axis=-2)
    return v


class RegionEngine:
    """Reusable row-sweep DP over a fixed region and interaction.

    Rows and transitions depend on the region's geometry and the model only.
    Rows are processed from the top down; every per-call condition enters as
    additive per-row log-weight vectors: region sites restricted to a symbol
    or a set of symbols through `terms_from_pins`, exterior sites through
    `terms_from_boundary` or the ensemble of `evaluate_deltas`, which share
    one exterior sum. So one engine serves an entire ensemble of boundary
    conditions. With `target` set, evaluation returns the vector of log
    partition functions split by the target site's symbol, which may lie in
    any row: a sweep in either direction splits its vectors by that symbol
    where it passes the target's row (`_split`). Rows with equal x columns
    share one enumeration of their states. Each transition is the steps of
    `_transfer_steps`; equal row pairs share one. A forward sweep runs the
    steps, and takes each row's vectors only when it reaches that row: the
    exterior edges into the row, gathered per member from the tables
    (`_exterior`), plus the row's shared log-weights. Steps and products
    share one linear-domain rule (`_SPREAD`).

    An ensemble meets in the middle (`_halves`, `_combine`) when that costs
    fewer flops than a forward sweep per member. Head sites touch the top
    row only; the rest are tail sites. One backward sweep runs per distinct
    tail configuration and target symbol, from the lowest row up, through
    each transition's S_r x S_s log-weights, built and kept only here; over
    the top row's states each member's head vector then joins its backward
    vector. Both products go through `_log_products`.
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
        enumerated: dict[tuple[int, ...], _Row] = {}  # rows with equal x columns share states
        for row in self.rows:
            first = enumerated.setdefault(tuple(v[0] for v in row.sites), row)
            if first is row:
                _enumerate_row(row, phi, budget)
            row.configs, row.internal = first.configs, first.internal
        self.infeasible = any(len(row.configs) == 0 for row in self.rows)

        # [steps, log-weights] per row pair; _halves builds the log-weights
        self._trans, shared = [], {}
        for r, s in [] if self.infeasible else zip(self.rows, self.rows[1:]):
            key = (r.y - s.y, *(tuple(v[0] for v in row.sites) for row in (r, s)))
            if key not in shared:
                # s lies below r, so the vertical edge is the ordered pair (s, r)
                table = phi.vertical.T if r.y - s.y == 1 else None
                shared[key] = [_transfer_steps(r, s, table, phi, budget), None]
            self._trans.append(shared[key])

        # (row index, (q, n_states) masks by the target's symbol), or None
        self._target = None
        if target is not None:
            i = self._row_of[target]
            self._target = (i, self.rows[i].configs[:, self.rows[i].col[target]] == np.arange(phi.q)[:, None])

    # -- per-call term builders ------------------------------------------

    def terms_from_boundary(self, config: Configuration) -> list[np.ndarray | None]:
        """Per-row log-weight vectors for edges into a pinned exterior
        configuration. Exterior sites not adjacent to the region, and sites
        inside it, are ignored."""
        sites = list(config.symbols)
        symbols = np.array([[config.symbols[v] for v in sites]], dtype=np.int64)
        if ((symbols < 0) | (symbols >= self.phi.q)).any():
            raise ValueError("boundary symbol out of alphabet range")
        return [None if vec is None else vec[0] for vec in self._exterior(sites, symbols)]

    def terms_from_pins(self, pins: Mapping[Site, int | Sequence[int]]) -> list[np.ndarray | None]:
        """Per-row vectors restricting region sites to a symbol, or to a
        tuple of allowed symbols. Sites outside the region are ignored."""
        pins = {v: np.asarray(a, dtype=np.int64) for v, a in pins.items()}
        if any(((a < 0) | (a >= self.phi.q)).any() for a in pins.values()):
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
                vec = vec + np.where(np.isin(row.configs[:, j], a), 0.0, LOG_ZERO)
            terms.append(vec)
        return terms

    def _exterior(self, sites: Sequence[Site], symbols: np.ndarray):
        """Yield, row by row from the top, the (len(symbols), n_states) sum
        of the edges from the exterior `sites` into that row, one member per
        row of `symbols` (one column per site), or None for a row no site
        touches. Each site's four edges are walked once and grouped by the
        neighbour's row, so only the row at hand is ever held; sites inside
        the region add nothing. Summed as 0 - e_1 - e_2 ... in (site, edge)
        order, each edge gathered straight from its table."""
        by_row: dict[int, list] = {}
        for d, (x, y) in enumerate(sites):
            # (neighbour, axis, the exterior site comes first in the edge's ordered pair)
            edges = (((x - 1, y), 0, False), ((x + 1, y), 0, True), ((x, y - 1), 1, False), ((x, y + 1), 1, True))
            for u, axis, ext_first in () if (x, y) in self._row_of else edges:
                i = self._row_of.get(u)
                if i is not None:
                    by_row.setdefault(i, []).append((d, axis, self.rows[i].col[u], ext_first))
        for i, row in enumerate(self.rows):
            vec = None
            for d, axis, j, ext_first in by_row.get(i, ()):
                a, col = symbols[:, d, None], row.configs[:, j]
                t = self.phi.tables[axis][(a, col) if ext_first else (col, a)]  # a fresh array
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

    def evaluate(self, *term_lists: Sequence[np.ndarray | None]):
        """Log partition function (scalar, or per-target-symbol vector).

        Each argument is a per-row list of additive log-weight vectors as
        produced by terms_from_boundary / terms_from_pins.
        """
        out = self.evaluate_deltas(term_lists, (), np.zeros((1, 0), dtype=np.int64))[0]
        return out if self._target is not None else float(out)

    def evaluate_deltas(
        self,
        static_terms: Sequence[Sequence[np.ndarray | None]],
        delta_sites: Sequence[Site],
        delta_matrix: np.ndarray,
    ) -> np.ndarray:
        """Evaluate a whole ensemble of exterior configurations.

        delta_matrix has one row per ensemble member, one column per site of
        delta_sites. Returns (n_deltas,) log partitions, or (n_deltas, q)
        split by the target symbol when a target is set. A forward sweep
        runs in blocks of members; each row's vectors, its shared
        log-weights (internal energies plus static terms) and the members'
        exterior sum, are formed only when the sweep reaches that row.
        """
        delta_matrix = np.asarray(delta_matrix)
        n = len(delta_matrix)
        out_shape = (n, self.phi.q) if self._target is not None else (n,)
        if not self.rows:
            return np.zeros(out_shape)
        if self.infeasible:
            return np.full(out_shape, LOG_ZERO)
        block = max(64, min(4096, 4_000_000 // max(len(r.configs) for r in self.rows)))

        def base():
            for i, row in enumerate(self.rows):
                vec = row.internal
                for terms in static_terms:
                    if terms[i] is not None:
                        vec = vec + terms[i]
                yield vec

        halves = self._halves(delta_sites, delta_matrix, min(n, block))
        if halves is not None:
            return self._combine(list(base()), block, delta_sites, delta_matrix, *halves).reshape(out_shape)
        out = np.empty(out_shape)
        for lo in range(0, n, block):
            dm = delta_matrix[lo : lo + block]
            vecs = (
                np.repeat(b[None, :], len(dm), axis=0) if v is None else np.add(v, b, out=v)
                for v, b in zip(self._exterior(delta_sites, dm), base())
            )
            out[lo : lo + len(dm)] = logsumexp(self._sweep(vecs), axis=-1).reshape(-1, *out_shape[1:])
        return out

    # -- meet in the middle ------------------------------------------------

    def _halves(self, delta_sites: Sequence[Site], delta_matrix: np.ndarray, members: int):
        """Head and tail split of an ensemble for `_combine`, or None when
        the forward sweep must run: a transition's upper row has more states
        than `members` (the ensemble, capped at one block), a half's base-q
        codes overflow int64, or the combine's flops are not below the
        forward sweep's. Only then are the transitions' missing log-weights
        built. Head sites touch the top row only, tail sites some other row;
        sites that touch no row are left out. Returns (head, tail, head
        member index, head inverse, tail member index, tail inverse), the
        indices and inverses of `np.unique` on each half's codes. Decided
        before any exterior term is gathered."""
        q = self.phi.q
        sizes = [len(row.configs) for row in self.rows]
        # log-weights cost S_r step runs, so they pay from S_r members on; with
        # S_r at most one block, they hold no more floats than a block's vectors
        if any(size > members for size in sizes[:-1]):
            return None
        head, tail = [], []
        for d, v in enumerate(delta_sites):
            touched = set() if v in self._row_of else {self._row_of[u] for u in neighbors(v) if u in self._row_of}
            if touched == {0}:
                head.append(d)
            elif touched:
                tail.append(d)
        if q ** max(len(head), len(tail)) > 1 << 63:  # the largest code, q^k - 1, fits int64
            return None
        distinct = []
        for part in (head, tail):
            place = q ** np.arange(len(part) - 1, -1, -1, dtype=np.int64)
            distinct.append(np.unique(delta_matrix[:, part] @ place, return_index=True, return_inverse=True)[1:])
        (h_index, h_inverse), (t_index, t_inverse) = distinct
        # multiply-adds: the backward sweeps and the combine against one
        # forward sweep per member
        pairs = sum(a * b for a, b in zip(sizes, sizes[1:]))
        outs = len(t_index) * (q if self._target is not None else 1)
        if outs * pairs + len(h_index) * sizes[0] * outs >= len(delta_matrix) * pairs:
            return None
        for size, pair in zip(sizes, self._trans):
            if pair[1] is None:  # the steps run on the log identity
                pair[1] = _run_steps(np.where(np.eye(size, dtype=bool), 0.0, LOG_ZERO), pair[0])
        return head, tail, h_index, h_inverse, t_index, t_inverse

    def _combine(self, base, block, delta_sites, delta_matrix, head, tail, h_index, h_inverse, t_index, t_inverse):
        """Meet-in-the-middle evaluation of an ensemble split by `_halves`.

        `_backward` gives one vector per distinct tail configuration and
        output, and `_log_products` joins each member's head vector to its
        backward vector over the top row's states.
        """
        heads = next(self._exterior([delta_sites[d] for d in head], delta_matrix[np.ix_(h_index, head)]))
        if heads is None:
            heads = np.zeros((len(h_index), len(self.rows[0].configs)))
        tails = list(self._exterior([delta_sites[d] for d in tail], delta_matrix[np.ix_(t_index, tail)]))
        vecs = [b[None, :] if t is None else t + b for t, b in zip(tails, base)]
        back = self._backward(vecs, block)
        return _log_products(heads, back.reshape(len(t_index), -1, back.shape[-1]), block, (h_inverse, t_inverse))

    def _backward(self, vecs: list[np.ndarray], block: int) -> np.ndarray:
        """The row sweep run from the lowest row up, through each
        transition's log-weights: from per-row (T or 1, n_states) vectors,
        the (T * outputs, top-row states) log-weights of the rows below each
        top state, tail major, one output per target symbol from the
        target's row up (one without a target)."""
        back = self._split(len(vecs) - 1, vecs[-1][:, None, :])
        for i in range(len(vecs) - 2, -1, -1):
            z = _log_products(back.reshape(-1, back.shape[-1]), self._trans[i][1][:, None, :], block)
            back = self._split(i, z.reshape(*back.shape[:2], -1) + vecs[i][:, None, :])
        return back.reshape(-1, back.shape[-1])


def _log_products(a: np.ndarray, b: np.ndarray, block: int, pairs=None) -> np.ndarray:
    """log(sum_k exp(a[i, k] + b[j, o, k])) for rows i of the 2-d `a` and
    groups j of rows of the 3-d `b`: (len(a), len(b), b.shape[1]) for every
    (i, j), or (len(i), b.shape[1]) for `pairs` = (i, j) index arrays.

    When the finite row spreads of `a` and `b` sum to at most `_SPREAD`, one
    exp-shifted GEMM, with per-row shifts on both sides, forms every pair:
    each product of two finite exp-shifted entries is then at least e^-700,
    above the smallest normal double, so no finite term underflows and zero
    weights stay exact zeros. Past that spread a logsumexp forms only the
    pairs asked for, `block` pairs (at least one row of `a`) at a time.
    """
    (ea, ma, sa), (eb, mb, sb) = _exp_shifted(a), _exp_shifted(b.reshape(-1, b.shape[-1]))
    if sa + sb <= _SPREAD:
        with np.errstate(divide="ignore"):
            z = (np.log(ea @ eb.T) + ma + mb.T).reshape(len(a), *b.shape[:-1])
        return z if pairs is None else z[pairs]
    i, j = np.broadcast_arrays(*(pairs if pairs is not None else (np.arange(len(a))[:, None], np.arange(len(b)))))
    step = max(1, block // i[0].size)
    return np.concatenate([
        logsumexp(a[i[lo : lo + step]][..., None, :] + b[j[lo : lo + step]], axis=-1) for lo in range(0, len(i), step)
    ])


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
    engine = RegionEngine(cr.region, phi, budget=budget)
    return engine.evaluate(engine.terms_from_boundary(cr.boundary), engine.terms_from_pins(cr.allowed))


def _conditioned(cr: ConstrainedRegion, phi: Interaction, budget: int):
    """Engine, static terms (boundary and allowed sets) and log denominator
    for conditioning on cr's boundary, which must cover the region's full
    exterior boundary."""
    if not len(cr.region):
        raise ValueError("conditional probability needs a nonempty region")
    missing = boundary(cr.region).sites - cr.boundary.region.sites
    if missing:
        raise ValueError(
            f"boundary must cover the full exterior boundary; missing {sorted(missing)}"
        )
    engine = RegionEngine(cr.region, phi, budget=budget)
    static = [engine.terms_from_boundary(cr.boundary), engine.terms_from_pins(cr.allowed)]
    denom = engine.evaluate(*static)
    if denom == LOG_ZERO:
        raise HypothesisError("boundary condition inadmissible")
    return engine, static, denom


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
    engine, static, denom = _conditioned(cr, phi, budget)
    num = engine.evaluate(*static, engine.terms_from_pins(event))
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
    engine, static, denom = _conditioned(cr, phi, budget)
    probs = np.empty(phi.q)
    for a in range(phi.q):
        num = engine.evaluate(*static, engine.terms_from_pins({site: a}))
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
    try:
        _enumerate_row(row, phi, budget)
        if not len(row.configs):
            return StripBounds(m, LOG_ZERO, LOG_ZERO, 0)
        steps = _transfer_steps(row, row, phi.vertical, phi, budget)
    except BudgetError as exc:
        raise BudgetError(f"strip of width {m}: {exc}") from None
    # the iteration runs these steps up to max_iter times, and np.take would
    # convert int32 indices to intp on every run: convert them once
    steps = [(idx.astype(np.intp), *rest) for idx, *rest in steps]
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
    top = _Row(m, [(x, m) for x in range(1, m + 1)])
    _columns(top, top, phi.q)  # refuse over-wide rows before building the m^2 sites
    region = Region((x, y) for y in range(1, m + 1) for x in range(1, m + 1))
    value = log_partition(ConstrainedRegion(region), phi, budget=budget)
    return value / (m * m)
