"""Independent brute-force references for validating the DP paths.

These enumerate configurations directly (mixed-radix, vectorized) and sum
Boltzmann weights without any row-sweep structure, so they share nothing
with the transfer engine except the model tables themselves. There are two
exceptions: `stage_transfer_steps` builds the engine's transfer steps the
slow way, by enumerating every stage on its own, in their dense form, which
`dense_sweep` runs, and `split_ensemble` splits
a member matrix into distinct heads and tails for the engine's meet in the
middle, by sorting its rows, which `member_rows` joins back.
"""

from __future__ import annotations

import math

import numpy as np

from gibbspress.interaction import Configuration, Interaction
from gibbspress.lattice import Region
from gibbspress.sft import admissible_states
import gibbspress.transfer as transfer
from gibbspress.transfer import LOG_ZERO, ConstrainedRegion


def enumerate_symbols(sites, allowed) -> np.ndarray:
    """(N, n_sites) matrix of every assignment over the allowed sets."""
    sizes = [len(a) for a in allowed]
    total = math.prod(sizes)
    out = np.empty((total, len(sites)), dtype=np.int64)
    idx = np.arange(total)
    stride = total
    for j, choice in enumerate(allowed):
        stride //= sizes[j]
        out[:, j] = np.asarray(choice, dtype=np.int64)[(idx // stride) % sizes[j]]
    return out


def brute_log_partition(cr: ConstrainedRegion, phi: Interaction) -> float:
    """log Z by direct enumeration over the allowed sets."""
    sites = list(cr.region)
    if not sites:
        return 0.0
    full = tuple(range(phi.q))
    allowed = [cr.allowed.get(v, full) for v in sites]
    sym = enumerate_symbols(sites, allowed)
    pos = {v: j for j, v in enumerate(sites)}
    bsym = cr.boundary.symbols
    energy = np.zeros(len(sym))
    for (x, y), j in pos.items():
        for axis, table in enumerate(phi.tables):
            fwd = (x + 1, y) if axis == 0 else (x, y + 1)
            bwd = (x - 1, y) if axis == 0 else (x, y - 1)
            if fwd in pos:
                energy = energy + table[sym[:, j], sym[:, pos[fwd]]]
            elif fwd in bsym:
                energy = energy + table[sym[:, j], bsym[fwd]]
            if bwd not in pos and bwd in bsym:
                energy = energy + table[bsym[bwd], sym[:, j]]
    w = -energy
    m = float(w.max())
    if m == -math.inf:
        return LOG_ZERO
    return m + float(np.log(np.exp(w - m).sum()))


def brute_conditional(event, cr: ConstrainedRegion, phi: Interaction) -> float:
    """Conditional probability of `event` by two brute partitions."""
    denom = brute_log_partition(cr, phi)
    if denom == LOG_ZERO:
        raise ZeroDivisionError("inadmissible boundary")
    allowed = dict(cr.allowed)
    for v, a in event.items():
        current = allowed.get(v, tuple(range(phi.q)))
        allowed[v] = (a,) if a in current else ()
        if not allowed[v]:
            return 0.0
    num = brute_log_partition(
        ConstrainedRegion(cr.region, allowed, cr.boundary), phi
    )
    return float(np.exp(num - denom))


def brute_origin_interval(region, u_config, canopy, deltas, phi, a0):
    """Min/max over an ensemble of the origin conditional, by enumeration."""
    csites = list(canopy)
    lo, hi = math.inf, -math.inf
    for row in deltas:
        merged = dict(u_config.symbols)
        merged.update({v: int(a) for v, a in zip(csites, row)})
        dom = Region(merged)
        cr = ConstrainedRegion(region, {}, Configuration(dom, merged))
        try:
            p = brute_conditional({(0, 0): a0}, cr, phi)
        except ZeroDivisionError:
            continue
        lo, hi = min(lo, p), max(hi, p)
    return lo, hi


#: Rows up to which `brute_strip_log_lambda` forms the dense matrix: every
#: strip of width 4 or less in the gallery.
DENSE_STRIP_ROWS = 625


def brute_strip_log_lambda(m: int, phi: Interaction) -> float:
    """log spectral radius of the row-to-row transfer matrix of the width-m
    strip over all q^m rows; -inf when no row is admissible. Up to
    `DENSE_STRIP_ROWS` rows the dense matrix goes to `np.linalg.eigvals`;
    past it ARPACK (`scipy.sparse.linalg.eigs`) finds the eigenvalues of
    largest modulus, applying the matrix as the row weights times the
    m-fold Kronecker power of the vertical weights."""
    q = phi.q
    sym = enumerate_symbols(range(m), [range(q)] * m)
    h_energy = sum((phi.horizontal[sym[:, j], sym[:, j + 1]] for j in range(m - 1)), np.zeros(len(sym)))
    if len(sym) <= DENSE_STRIP_ROWS:
        v_energy = phi.vertical[sym[:, None, :], sym[None, :, :]].sum(axis=2)
        t = np.exp(-(v_energy + h_energy[None, :]))  # old row -> new row
        rho = float(np.abs(np.linalg.eigvals(t)).max())
        return math.log(rho) if rho > 0 else LOG_ZERO
    from scipy.sparse.linalg import LinearOperator, eigs

    if np.isposinf(h_energy).all():
        return LOG_ZERO
    row_weight, vertical = np.exp(-h_energy), np.exp(-phi.vertical)

    def apply(x):  # x over old rows -> (t^T x) over new rows, with t as above
        x = np.reshape(x, (q,) * m)
        for j in range(m):
            x = np.moveaxis(np.tensordot(x, vertical, axes=([j], [0])), -1, j)
        return row_weight * x.ravel()

    op = LinearOperator((len(sym), len(sym)), matvec=apply, dtype=float)
    values = eigs(op, k=2, which="LM", v0=np.ones(len(sym)), tol=0.0, return_eigenvectors=False)
    return math.log(float(np.abs(values).max()))


def stage_transfer_steps(old, new, table, phi: Interaction, budget: int) -> list:
    """The transfer steps of `transfer._transfer_steps` in their dense
    form, built by enumerating each stage's sites afresh and finding each
    predecessor by `searchsorted` over base-q row codes: one (idx, logw)
    pair per column, both (terms, states), one row per old symbol b (one
    where the old row has no site), logw -inf where b does not extend the
    state or its weight is zero. Stage k holds the new row's sites of the
    first k columns and the old row's sites of the rest, shifted one x
    right, in the engine's order: by the new sites, the first most
    significant, then by the old ones, the last most significant (the
    order of the suffix chain, which enumerates them right to left)."""
    q = phi.q
    old_x, new_x = ({v[0]: v for v in row.sites} for row in (old, new))
    columns = sorted(set(old_x) | set(new_x))
    prev_place = q ** np.arange(len(old.sites) - 1, -1, -1, dtype=np.int64)
    prev = old.configs @ prev_place
    steps = []
    for k, x in enumerate(columns, 1):
        stage = new
        if k < len(columns):
            at = {(u, 0): new_x[u] for u in columns[:k] if u in new_x}
            n_new = len(at)
            at.update({(u + 1, 0): old_x[u] for u in columns[k:] if u in old_x})
            stage = transfer._Row(new.y, list(at))
            stage.configs, _ = admissible_states(stage.sites, phi, budget)
            keys = np.concatenate([stage.configs[:, n_new:].T, stage.configs[:, :n_new][:, ::-1].T])
            stage.configs = stage.configs[np.lexsort(keys)]
        p = sum(u in new_x for u in columns[: k - 1])  # the column's position in both stages
        place = q ** np.arange(len(stage.sites) - 1, -1, -1, dtype=np.int64)
        kept = np.delete(stage.configs, p, axis=1) if x in new_x else stage.configs
        pred = (kept @ (np.delete(prev_place, p) if x in old_x else prev_place))[None, :]
        if x in old_x:
            pred = pred + np.arange(q)[:, None] * prev_place[p]
        logw = -table[:, stage.configs[:, p]] if x in old_x and x in new_x and table is not None else 0.0
        sorter = np.argsort(prev)
        idx = sorter[np.minimum(np.searchsorted(prev, pred, sorter=sorter), len(prev) - 1)]
        steps.append((idx, np.where(prev[idx] == pred, logw, LOG_ZERO)))
        prev, prev_place = stage.configs @ place, place
    return steps


def dense_sweep(v, steps) -> np.ndarray:
    """Run dense (idx, logw) steps, as `stage_transfer_steps` gives them, on
    log-weight vectors along the last axis, in the arithmetic of
    `transfer._run_steps`: every row, dead ones included, is gathered and
    summed in b order, and the same 700 rule picks the linear domain or
    one logsumexp per step."""
    shifts, spreads = [], []
    for idx, logw in steps:
        live = logw[np.isfinite(logw)]
        shifts.append(float(live.max()) if live.size else 0.0)
        spreads.append((float(live.max() - live.min()) if live.size else 0.0) + np.log(len(idx)))
    m = np.max(v, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    d = v - m
    spread = -float(np.where(np.isfinite(d), d, 0.0).min(initial=0.0))
    with np.errstate(divide="ignore"):
        if spread + sum(spreads) <= 700.0:
            e = np.exp(d)
            for (idx, logw), shift in zip(steps, shifts):
                e = (np.take(e, idx, axis=-1) * np.exp(logw - shift)).sum(axis=-2)
            return np.log(e) + (m + sum(shifts))
        for (idx, logw), shift, spread in zip(steps, shifts, spreads):
            if spread <= 700.0:  # the weights go through exp and back, as in the linear steps
                logw = np.log(np.exp(logw - shift)) + shift
            v = transfer.logsumexp(np.take(v, idx, axis=-1) + logw, axis=-2)
    return v


def split_ensemble(engine, sites, members):
    """The head and tail split of a member matrix for `engine`'s meet in the
    middle: head sites are those `engine.is_head` names, tail sites the
    rest. Returns the sites, head sites then tail sites, and the
    `SplitEnsemble` of the distinct heads and tails, each in lexicographic
    order (`np.unique` on rows), with every member in its row order."""
    members = np.asarray(members)
    head = [j for j, v in enumerate(sites) if engine.is_head(v)]
    tail = [j for j in range(len(sites)) if j not in head]
    (heads, head_of), (tails, tail_of) = (
        np.unique(members[:, part], axis=0, return_inverse=True) for part in (head, tail)
    )
    split = transfer.SplitEnsemble(heads, tails, head_of.reshape(-1), tail_of.reshape(-1))
    return [sites[j] for j in head + tail], split


def member_rows(ensemble: transfer.SplitEnsemble) -> np.ndarray:
    """The member matrix of a split ensemble: member i's head columns, then
    its tail columns, in member order."""
    return np.column_stack([ensemble.heads[ensemble.head_of], ensemble.tails[ensemble.tail_of]])
