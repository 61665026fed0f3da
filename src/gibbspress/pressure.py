"""Certified pressure intervals at periodic-orbit measures.

The estimator brackets the conditional probability of the origin symbol
given the upper-layer part of the boundary by taking min/max over all
locally admissible canopy configurations (or over the ensemble's two
extremes, for a model `monotone_check` certifies, or over nothing where the
upper layer forces the origin symbol), then assembles the per-site
information and edge terms into a certified [lower, upper] interval for the
pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetError, HypothesisError
from .interaction import Configuration, Interaction, per_site_contribution
from .lattice import Region, Site, canopy_decomposition
from .sft import (
    PeriodicPoint,
    admissible_states,
    is_locally_admissible,
    monotone_check,
    orbit_sites,
)
from .transfer import DEFAULT_BUDGET, RegionEngine, SplitEnsemble, logsumexp


@dataclass(frozen=True)
class PInterval:
    """Certified bracket for the origin conditional at one orbit site."""

    lower: float
    upper: float
    n: int
    canopy_count: int
    skipped_count: int
    #: "extremes" when only the ensemble's rankwise bottom and top were
    #: evaluated (`canopy_count` is then 2), "forced" when the upper layer
    #: alone forces the origin symbol and nothing was evaluated (the
    #: bracket is exactly [1, 1], both counts are 0), "ensemble" otherwise.
    canopy_path: str = "ensemble"

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError("interval must satisfy 0 <= lower <= upper <= 1")

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class SiteTerm:
    site: Site
    p: PInterval
    edge_term: float


@dataclass(frozen=True)
class PressureEstimate:
    """Certified pressure interval with per-site diagnostics."""

    lower: float
    upper: float
    per_site: tuple[SiteTerm, ...]
    n: int
    model: str

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("pressure bounds must be finite")
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def canopy_count(self) -> int:
        return sum(t.p.canopy_count for t in self.per_site)

    @property
    def skipped_count(self) -> int:
        return sum(t.p.skipped_count for t in self.per_site)


def admissible_configurations(
    region: Region,
    phi: Interaction,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """All locally admissible configurations on a region, as a symbol matrix.

    One `admissible_states` enumeration over the region's canonical site
    order, under its budget rule: columns follow that order, and rows are
    lexicographic with the first site most significant.
    """
    return admissible_states(list(region), phi, budget)[0]


def _canopy_extremes(
    sites: list[Site], order: tuple[tuple[int, ...], tuple[int, ...]], phi: Interaction
) -> np.ndarray | None:
    """The rankwise bottom and top configurations on `sites` under a
    per-parity symbol order, as a (2, len(sites)) symbol matrix; None when
    either is not locally admissible."""
    parity = [(x + y) % 2 for x, y in sites]
    extremes = np.array([[order[p][k] for p in parity] for k in (0, -1)], dtype=np.int64)
    region = Region(sites)
    for row in extremes:
        if not is_locally_admissible(Configuration(region, dict(zip(sites, row.tolist()))), phi):
            return None
    return extremes


def _pairs(head: Region, heads: np.ndarray, tail: Region, tails: np.ndarray, phi: Interaction, budget: int):
    """The `SplitEnsemble` of the (head, tail) pairs whose head-tail edges
    all have finite energy, over the heads and tails in some pair, in order.
    Refused when the len(heads) x len(tails) candidates exceed the budget."""
    held = len(heads) * len(tails)
    if held > budget:
        raise BudgetError(f"needs {held} states, {len(heads)} heads times {len(tails)} tails, over the limit {budget}")
    ok = np.ones((len(heads), len(tails)), dtype=bool)
    col = {v: j for j, v in enumerate(tail)}
    for i, v in enumerate(head):
        for u, table in phi.edges(v):
            if u in col:
                ok &= np.isfinite(table[heads[:, i, None], tails[None, :, col[u]]])
    kept = ok.any(axis=1), ok.any(axis=0)
    return SplitEnsemble(heads[kept[0]], tails[kept[1]], ok[np.ix_(*kept)])


def _relabelling(source: tuple[int, ...], target: tuple[int, ...], q: int) -> np.ndarray | None:
    """The symbol permutation sigma, as an array, with sigma[source[i]] =
    target[i] for every i and the symbols source leaves out sent in
    increasing order to those target leaves out; None when no injective map
    takes source to target."""
    sigma: dict[int, int] = {}
    for a, b in zip(source, target):
        if sigma.setdefault(a, b) != b:
            return None
    if len(set(sigma.values())) < len(sigma):
        return None
    sigma.update(zip(sorted(set(range(q)) - sigma.keys()), sorted(set(range(q)) - set(sigma.values()))))
    return np.array([sigma[a] for a in range(q)])


def _bracket(zvec: np.ndarray, a0: int, n: int, path: str) -> PInterval:
    """Min/max of the origin conditional over members with a finite
    denominator, those with a finite entry; the others are counted as
    skipped; the logsumexp is row-wise, so kept rows need no copy. p <= 1
    holds in floating point: den = m + log(sum), m >= zvec[:, a0], sum >= 1."""
    ok = np.isfinite(zvec).any(axis=1)
    if not ok.any():
        raise HypothesisError("empty canopy ensemble")
    p = np.exp(zvec[ok, a0] - logsumexp(zvec, axis=1)[ok])
    return PInterval(
        lower=float(p.min()),
        upper=float(p.max()),
        n=n,
        canopy_count=int(ok.sum()),
        skipped_count=int((~ok).sum()),
        canopy_path=path,
    )


class _Canopy:
    """What the orbit sites of one estimate share: the radius-n split, the
    S_n engine and the canopy ensemble, both built on first read, and the
    brackets by (origin symbol, *upper layer in `u_n` order), one computed
    per class of keys that table-preserving symbol permutations map onto
    each other on the ensemble path (`shared`).

    The engine sweeps S_n by its columns, at most n + 1 sites against a
    row's 2n + 1: it runs on S_n transposed, (x, y) -> (y, x), under
    `Interaction.transposed`, and so do the upper layer and canopy sites
    passed to it. The ensemble stays in S_n's own frame, built already
    split for the engine's meet in the middle (`deltas`).
    """

    def __init__(self, n: int, phi: Interaction, budget: int = DEFAULT_BUDGET):
        if n < 1:
            raise ValueError("radius n must be positive")
        self.n, self.phi, self.budget = n, phi, budget
        self.s_n, self.u_n, self.c_n = canopy_decomposition(n)
        self.sites = list(self.c_n)
        self.brackets: dict[tuple[int, ...], PInterval] = {}

    @cached_property
    def engine(self) -> RegionEngine:
        try:
            return RegionEngine(Region((y, x) for x, y in self.s_n), self.phi.transposed(), (0, 0), self.budget)
        except BudgetError as exc:
            raise BudgetError(f"S_n swept by columns (row y=k is column x=k): {exc}") from None

    @cached_property
    def deltas(self) -> tuple[list[Site], SplitEnsemble]:
        """The canopy's head sites (`RegionEngine.is_head`) then tail sites,
        the rest, and its ensemble as the `_pairs` of one
        `admissible_configurations` call on each."""
        head = Region(v for v in self.sites if self.engine.is_head((v[1], v[0])))
        tail = self.c_n.difference(head)
        try:
            heads, tails = (admissible_configurations(part, self.phi, budget=self.budget) for part in (head, tail))
            ensemble = _pairs(head, heads, tail, tails, self.phi, self.budget)
        except BudgetError as exc:
            raise BudgetError(f"canopy ensemble: {exc}") from None
        return [*head, *tail], ensemble

    def shared(self, key: tuple[int, ...]) -> PInterval | None:
        """A stored ensemble bracket that a symbol permutation sigma leaving
        both tables unchanged carries onto `key`, when `key`'s origin symbol
        has no monotone order and so takes the ensemble path too; else None.

        sigma maps the ensemble onto itself and every energy to its own
        value, so for each member delta the conditional of `key` at
        sigma(delta) equals the stored key's at delta: in exact arithmetic
        both take their min and max over the same set of values and skip as
        many members. Until brackets are rounded outward, the shared bracket
        carries the rounding of the stored one's sweep, whose sums run in
        another order than `key`'s own would."""
        for stored, p in self.brackets.items():
            if p.canopy_path != "ensemble":
                continue
            sigma = _relabelling(stored, key, self.phi.q)
            if (
                sigma is not None
                and all(np.array_equal(t[np.ix_(sigma, sigma)], t) for t in self.phi.tables)
                and monotone_check(self.phi, target=key[0]) is None
            ):
                return p
        return None

    def bracket(self, upper: dict[Site, int], a0: int) -> PInterval:
        """The swept bracket of origin symbol a0 under `upper`, U_n's symbols by site."""
        transposed = {(y, x): a for (x, y), a in upper.items()}
        boundary = Configuration(Region(transposed), transposed)

        def sweep(sites: list[Site], members) -> np.ndarray:
            return self.engine.evaluate_deltas(boundary, [(y, x) for x, y in sites], members)

        order = monotone_check(self.phi, target=a0)
        extremes = None if order is None else _canopy_extremes(self.sites, order, self.phi)
        if extremes is not None:
            zvec = sweep(self.sites, extremes)
            if np.isfinite(zvec).any(axis=1).all():
                return _bracket(zvec, a0, self.n, "extremes")
        return _bracket(sweep(*self.deltas), a0, self.n, "ensemble")


def p_interval(
    z: PeriodicPoint,
    v: Site,
    n: int,
    phi: Interaction,
    budget: int = DEFAULT_BUDGET,
    canopy: _Canopy | None = None,
) -> PInterval:
    """Bracket the conditional probability of the origin symbol of the
    v-shift of z, given the upper layer, over the canopy ensemble.

    When `monotone_check` certifies the model for the origin symbol, the
    conditional is monotone in the canopy, so its min and max over the
    ensemble are reached at the ensemble's rankwise bottom and top: only
    those two are evaluated, provided both are locally admissible and both
    denominators are finite. Otherwise the whole ensemble is swept, built
    from its heads and tails (`_Canopy.deltas`); canopy configurations
    whose conditional denominator vanishes are then
    skipped and counted rather than treated as errors; outside
    single-site-fillable models such configurations can legitimately occur.

    When every symbol but the origin's has infinite energy against the
    origin's left or lower neighbour, both in the upper layer, the origin
    symbol is forced: every member with a finite denominator has
    conditional exactly 1, and the shifted point's own canopy is one such
    member, so the bracket is exactly [1, 1] ("forced", both counts 0) and
    no engine, ensemble or sweep is built for it.

    The bracket depends on (z, v) only through its key, the origin symbol
    z(v) and the upper layer z(v + u), u in U_n, both read from z itself.
    `canopy`, shared by the calls of one estimate, holds the engine, the
    ensemble and the brackets already computed: a repeated key returns the
    same PInterval, and so does one that a table-preserving symbol permutation
    maps a stored ensemble bracket's key onto (`_Canopy.shared`: equal in
    exact arithmetic, with the stored bracket's rounding). `canopy` must
    have been built for this n, phi and budget.
    """
    if canopy is None:
        canopy = _Canopy(n, phi, budget)
    elif (canopy.n, canopy.budget) != (n, budget) or canopy.phi is not phi:
        raise ValueError("shared canopy state was built for another n, phi or budget")
    if not z.is_point_of(phi):
        raise HypothesisError("point not in the underlying constraint set")
    a0 = z.value(v)
    upper = {u: z.value((v[0] + u[0], v[1] + u[1])) for u in canopy.u_n}
    key = (a0, *upper.values())
    if key not in canopy.brackets:
        # the symbols with finite energy against both neighbours: a0 is one,
        # since z is a point of phi
        (left, t_left), _, (below, t_below), _ = phi.edges((0, 0))
        fits = np.isfinite(t_left[:, upper[left]]) & np.isfinite(t_below[:, upper[below]])
        if np.count_nonzero(fits) == 1:
            canopy.brackets[key] = PInterval(1.0, 1.0, n, 0, 0, "forced")
        else:
            canopy.brackets[key] = canopy.shared(key) or canopy.bracket(upper, a0)
    return canopy.brackets[key]


def gk_pressure(
    z: PeriodicPoint,
    n: int,
    phi: Interaction,
    budget: int = DEFAULT_BUDGET,
) -> PressureEstimate:
    """Certified pressure interval from the orbit measure of z at radius n.

    All orbit sites share one S_n engine, one canopy ensemble and one
    bracket per distinct shift, or per symbol-symmetry class of shifts on
    the ensemble path (see `p_interval`). A per-site UPPER bound on
    the conditional becomes a LOWER pressure contribution through -log, and
    vice versa.
    """
    canopy = _Canopy(n, phi, budget)
    terms = []
    for v in orbit_sites(z):
        pi = p_interval(z, v, n, phi, budget=budget, canopy=canopy)
        if pi.lower <= 0.0:
            raise HypothesisError("positivity violated")
        terms.append(SiteTerm(site=v, p=pi, edge_term=per_site_contribution(z, v, phi)))
    return assemble_pressure_interval(terms, n, phi.name)


def assemble_pressure_interval(terms: list[SiteTerm], n: int, model: str) -> PressureEstimate:
    """Assemble a PressureEstimate from per-site brackets (inversion logic)."""
    count = len(terms)
    lower = sum(-math.log(t.p.upper) + t.edge_term for t in terms) / count
    upper = sum(-math.log(t.p.lower) + t.edge_term for t in terms) / count
    return PressureEstimate(lower=lower, upper=upper, per_site=tuple(terms), n=n, model=model)
