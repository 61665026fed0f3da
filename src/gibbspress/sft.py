"""Local admissibility, fillability certificates, and periodic points."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress, product
from typing import Sequence

import numpy as np

from .errors import BudgetError, HypothesisError
from .interaction import Configuration, Interaction, energy
from .lattice import NEIGHBOR_OFFSETS, Region, Site

class PeriodicPoint:
    """Fully periodic configuration given by a rectangular cell.

    The cell array is indexed cell[x, y] with shape (p1, p2); the point
    takes value cell[x mod p1, y mod p2] at site (x, y).
    """

    __slots__ = ("cell",)

    def __init__(self, cell):
        arr = np.asarray(cell, dtype=int)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("cell must be a nonempty 2-d array")
        if (arr < 0).any():
            raise ValueError("cell symbols must be nonnegative")
        self.cell = arr

    @property
    def periods(self) -> tuple[int, int]:
        return self.cell.shape  # type: ignore[return-value]

    def value(self, v: Site) -> int:
        p1, p2 = self.cell.shape
        return int(self.cell[v[0] % p1, v[1] % p2])

    def shift(self, v: Site) -> "PeriodicPoint":
        """The point u -> self(u + v), with the same periods."""
        return PeriodicPoint(np.roll(self.cell, (-v[0], -v[1]), axis=(0, 1)))

    def restrict(self, region: Region) -> Configuration:
        return Configuration(region, {v: self.value(v) for v in region})

    def is_point_of(self, phi: Interaction) -> bool:
        """True iff every edge of the periodic extension carries finite energy.

        Checking the p1*p2 horizontal and vertical edge classes of the cell
        covers every edge of the plane by periodicity (equivalently, local
        admissibility on a (2 p1) x (2 p2) window).
        """
        cell = self.cell
        if int(cell.max()) >= phi.q:
            return False
        return bool(
            np.isfinite(phi.horizontal[cell, np.roll(cell, -1, axis=0)]).all()
            and np.isfinite(phi.vertical[cell, np.roll(cell, -1, axis=1)]).all()
        )

    def __repr__(self) -> str:
        return f"PeriodicPoint(periods={self.periods}, cell={self.cell.tolist()!r})"


def orbit_sites(z: PeriodicPoint) -> list[Site]:
    """The sites of the fundamental domain [0,p1) x [0,p2), canonical order."""
    p1, p2 = z.periods
    return [(x, y) for y in range(p2) for x in range(p1)]


def is_locally_admissible(w: Configuration, phi: Interaction) -> bool:
    """True iff w's energy is finite. +inf is absorbing, so that means no
    edge internal to w's region is forbidden, unless finite energies overflow."""
    return math.isfinite(energy(w, phi))


def _scan(mask: np.ndarray):
    """The neighbor configurations where the q^4 `mask` holds, in
    lexicographic scan order."""
    return compress(product(range(len(mask)), repeat=4), mask.ravel().tolist())


@dataclass(frozen=True, eq=False)  # fills is an array: compared by identity
class SsfResult:
    """Outcome of the single-site fillability scan.

    fills[eta + (a,)] is True when the origin's symbol a has finite energy
    on all four edges to the neighbor configuration eta (keyed in
    NEIGHBOR_OFFSETS order). `witness` maps each eta with a fill to the
    smallest symbol filling it, a dict built on first read: at q = 24 it
    holds 331 776 entries, which `witness_count` does not need.
    `counterexample` is the first eta with no fill, in lexicographic scan
    order.
    """

    fills: np.ndarray
    counterexample: tuple[int, ...] | None

    @property
    def satisfied(self) -> bool:
        return self.counterexample is None

    @property
    def witness_count(self) -> int:
        return int(self.fills.any(axis=-1).sum())

    @cached_property
    def witness(self) -> dict[tuple[int, ...], int]:
        filled = self.fills.any(axis=-1)
        return dict(zip(_scan(filled), self.fills.argmax(axis=-1)[filled].tolist()))


def ssf_check(phi: Interaction) -> SsfResult:
    """Scan all q^4 neighbor configurations for single-site fillability.

    Fillability is checked against the supplied tables as-is (the forbidden
    list is the set of +inf entries), so the verdict is list-dependent.
    """
    q = phi.q
    fills = np.ones((q,) * 5, dtype=bool)
    for u, table in phi.edges((0, 0)):
        shape = [1] * 5
        shape[NEIGHBOR_OFFSETS.index(u)] = shape[4] = q
        fills &= np.isfinite(table.T).reshape(shape)
    return SsfResult(fills=fills, counterexample=next(_scan(~fills.any(axis=-1)), None))


def safe_symbol_check(phi: Interaction) -> int | None:
    """Smallest symbol admissible next to every neighbor configuration, if any."""
    safe = np.logical_and.reduce([np.isfinite(table).all(axis=1) for _, table in phi.edges((0, 0))])
    return int(safe.argmax()) if safe.any() else None


def periodic_point_from_ssf(phi: Interaction, b: int) -> PeriodicPoint:
    """The 2x2 parity point with b on odd-parity sites and a fill a on even.

    Requires the fillability scan to pass; a is the smallest symbol filling
    the constant-b neighbor configuration.
    """
    if not 0 <= b < phi.q:
        raise ValueError("symbol out of range")
    result = ssf_check(phi)
    if not result.satisfied:
        raise HypothesisError("SSF prerequisite failed")
    a = result.witness[(b, b, b, b)]
    point = PeriodicPoint(np.array([[a, b], [b, a]]))
    if not point.is_point_of(phi):  # certified by fillability, re-checked anyway
        raise HypothesisError("SSF prerequisite failed")
    return point


def _attractive(logw: np.ndarray) -> bool:
    """True iff rank-indexed log-weights (-inf: forbidden pair) make the
    allowed pairs closed under rankwise min and max, and are supermodular
    on them: for ranks i < i' and j < j' with (i, j') and (i', j) allowed,
    (i, j) and (i', j') are allowed and L[i, j] + L[i', j'] >= L[i, j'] +
    L[i', j]. The sums are compared exactly, as rationals."""
    from fractions import Fraction  # not at module level: keeps the package import lean

    rows, cols = logw.shape
    for i, i2 in combinations(range(rows), 2):
        for j, j2 in combinations(range(cols), 2):
            cross = (logw[i, j2], logw[i2, j])
            if not np.isfinite(cross).all():
                continue
            meet, join = logw[i, j], logw[i2, j2]
            if not (np.isfinite(meet) and np.isfinite(join)):
                return False
            if Fraction(meet) + Fraction(join) < Fraction(cross[0]) + Fraction(cross[1]):
                return False
    return True


def monotone_check(
    phi: Interaction, target: int | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A per-parity symbol order under which phi is attractive, or None.

    Tries the identity order, then the identity on even sites (x + y even)
    with the order reversed on odd sites (the bipartite flip). Returns the
    first that certifies, as (even, odd) tuples of symbols from lowest to
    highest rank:

    - both tables' log-weights -table are supermodular on their finite
      entries under the order, with either parity on the edge's left or
      lower site;
    - the allowed pairs are closed under rankwise min and max (Holley's
      lattice condition), so the support is a distributive lattice;
    - `target`, if given, is the lowest or highest symbol on even sites, so
      that "the origin carries `target`" is a monotone event (always true
      for q = 2).

    Then the conditional probability of that event given a boundary is
    monotone in the boundary (Holley, Comm. Math. Phys. 1974), so over any
    set of boundary configurations it is extremal at the set's rankwise
    bottom and top, when those belong to it.
    """
    identity = tuple(range(phi.q))
    for order in ((identity, identity), (identity, identity[::-1])):
        if target is not None and target not in (order[0][0], order[0][-1]):
            continue
        if all(
            _attractive(-table[np.ix_(first, second)])
            for table in phi.tables
            for first, second in (order, order[::-1])
        ):
            return order
    return None


def diagonal_3coloring_point() -> PeriodicPoint:
    """The 3x3 point (x, y) -> (x - y) mod 3; admissible for the 3-coloring."""
    cell = np.empty((3, 3), dtype=int)
    for i in range(3):
        for j in range(3):
            cell[i, j] = (i - j) % 3
    return PeriodicPoint(cell)


def admissible_levels(sites: Sequence[Site], phi: Interaction, budget: int):
    """The loop of `admissible_states`, one level at a time: yields
    (keep, configs, energies) of the empty configuration (keep None), then
    of the admissible states after each site, where keep[i] = parent * q +
    symbol extends state `parent` of the level before by `symbol`."""
    col = {v: j for j, v in enumerate(sites)}
    k = phi.q
    syms = np.arange(k, dtype=np.int8 if k <= np.iinfo(np.int8).max else np.int64)
    cfg = np.zeros((1, 0), dtype=syms.dtype)
    energies = np.zeros(1)
    yield None, cfg, energies
    for j, v in enumerate(sites):
        if len(cfg) * k > budget:
            raise BudgetError(
                f"needs {len(cfg) * k} states at site {j + 1} of {len(sites)}, "
                f"over the limit {budget}"
            )
        # e[i, s]: energy of state i extended by symbol syms[s]
        e = energies[:, None]
        for u, table in phi.edges(v):
            i = col.get(u)
            if i is not None and i < j:
                e = e + table[syms, cfg[:, i, None]]
        e = np.broadcast_to(e, (len(cfg), k)).ravel()
        keep = np.flatnonzero(~np.isposinf(e))
        cfg = np.column_stack([cfg[keep // k], syms[keep % k]])
        energies = e[keep]
        yield keep, cfg, energies


def admissible_states(
    sites: Sequence[Site],
    phi: Interaction,
    budget: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Locally admissible configurations of `sites`, with their energies.

    States are extended site by site in the given order, with every symbol
    of the alphabet in ascending order. Each new site adds the energy of its
    edges to already-placed sites, and a state is dropped as soon as that
    energy is +inf. Returns the (n, len(sites)) symbol matrix, lexicographic
    with the first site most significant and int8 when q <= 127 (int64
    otherwise), and the n energies.

    This is the package's one enumerator and its one budget rule: the
    states held before a site, times q, must not exceed `budget`. A
    canopy's heads and tails are one call each; an engine row or strip is
    two runs of its loop (`admissible_levels`) in lock step, one each way
    (`transfer._row_chains`), whose levels chain into a transfer's stages.
    Callers that restrict a site to fewer symbols do so afterwards, e.g.
    with `RegionEngine.terms_from_pins`.
    """
    for _, cfg, energies in admissible_levels(sites, phi, budget):
        pass
    return cfg, energies
