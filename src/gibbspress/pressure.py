"""Certified pressure intervals at periodic-orbit measures.

The estimator brackets the conditional probability of the origin symbol
given the upper-layer part of the boundary by taking min/max over all
locally admissible canopy configurations (or over the ensemble's two
extremes, for a model `monotone_check` certifies), then assembles the per-site
information and edge terms into a certified [lower, upper] interval for the
pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, HypothesisError
from .interaction import Configuration, Interaction, per_site_contribution
from .lattice import Region, Site, boundary, box, canopy_decomposition, past_in_box
from .sft import (
    PeriodicPoint,
    admissible_states,
    is_locally_admissible,
    monotone_check,
    orbit_sites,
    region_components,
)
from .transfer import DEFAULT_BUDGET, RegionEngine, logsumexp, product_matrix


@dataclass(frozen=True)
class PInterval:
    """Certified bracket for the origin conditional at one orbit site."""

    lower: float
    upper: float
    n: int
    canopy_count: int
    skipped_count: int
    #: "extremes" when only the ensemble's rankwise bottom and top were
    #: evaluated (`canopy_count` is then 2), "ensemble" otherwise.
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
        if self.lower > self.upper + 1e-15:
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
    context: dict[Site, int] | None = None,
) -> np.ndarray:
    """All locally admissible configurations on a region, as a symbol matrix.

    Rows are configurations, columns follow the region's canonical site
    order. `context` pins exterior (or interior) sites that constrain the
    enumeration. The order is deterministic: each connected component's
    states are extended site by site in canonical order with symbols
    ascending, and the components are combined as a cartesian product in
    canonical component order. The budget bounds the states held per
    component and the size of the product.
    """
    sites = list(region)
    col_of = {s: j for j, s in enumerate(sites)}

    # components only interact through the fixed context, so enumerate each
    # one separately and take the cartesian product
    comps = []
    for comp in region_components(region):
        comp_sites = list(comp)
        rows, _ = admissible_states(comp_sites, phi, budget, fixed=context)
        comps.append((comp_sites, rows))
    total = math.prod(len(rows) for _, rows in comps)
    if total == 0:
        return np.zeros((0, len(sites)), dtype=np.int64)
    if total > budget:
        raise BudgetError(
            f"enumeration yields {total} configurations, over the budget {budget}"
        )
    pick = product_matrix([np.arange(len(rows)) for _, rows in comps])
    out = np.empty((total, len(sites)), dtype=np.int64)
    for k, (comp_sites, rows) in enumerate(comps):
        out[:, [col_of[s] for s in comp_sites]] = rows[pick[:, k]]
    return out


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


def _bracket(zvec: np.ndarray, a0: int, n: int, path: str) -> PInterval:
    """Min/max of the origin conditional over members with a finite
    denominator; the others are counted as skipped."""
    den = logsumexp(zvec, axis=1)
    ok = np.isfinite(den)
    if not ok.any():
        raise HypothesisError("empty canopy ensemble")
    p = np.exp(np.minimum(zvec[ok, a0] - den[ok], 0.0))
    return PInterval(
        lower=float(p.min()),
        upper=float(p.max()),
        n=n,
        canopy_count=int(ok.sum()),
        skipped_count=int((~ok).sum()),
        canopy_path=path,
    )


def p_interval(
    z: PeriodicPoint,
    v: Site,
    n: int,
    phi: Interaction,
    budget: int = DEFAULT_BUDGET,
) -> PInterval:
    """Bracket the conditional probability of the origin symbol of the
    v-shift of z, given the upper layer, over the canopy ensemble.

    When `monotone_check` certifies the model for the origin symbol, the
    conditional is monotone in the canopy, so its min and max over the
    ensemble are reached at the ensemble's rankwise bottom and top: only
    those two are evaluated, provided both are locally admissible and both
    denominators are finite. Otherwise the whole ensemble is enumerated;
    canopy configurations whose conditional denominator vanishes are then
    skipped and counted rather than treated as errors; outside
    single-site-fillable models such configurations can legitimately occur.
    """
    if n < 1:
        raise ValueError("radius n must be positive")
    if not z.is_point_of(phi):
        raise HypothesisError("point not in the underlying constraint set")
    s_n, u_n, c_n = canopy_decomposition(n)
    x = z.shift(v)
    x_u = x.restrict(u_n)
    a0 = x.value((0, 0))
    csites = list(c_n)
    order = monotone_check(phi, target=a0)
    extremes = None if order is None else _canopy_extremes(csites, order, phi)
    engine = None
    if extremes is not None:
        engine = RegionEngine(s_n, phi, target=(0, 0), budget=budget)
        zvec = engine.evaluate_deltas([engine.terms_from_boundary(x_u)], csites, extremes)
        if np.isfinite(logsumexp(zvec, axis=1)).all():
            return _bracket(zvec, a0, n, "extremes")
    try:
        deltas = admissible_configurations(c_n, phi, budget=budget)
    except BudgetError as exc:
        raise BudgetError(f"canopy ensemble: {exc}") from None
    if engine is None:
        engine = RegionEngine(s_n, phi, target=(0, 0), budget=budget)
    zvec = engine.evaluate_deltas([engine.terms_from_boundary(x_u)], csites, deltas)
    return _bracket(zvec, a0, n, "ensemble")


def gk_pressure(
    z: PeriodicPoint,
    n: int,
    phi: Interaction,
    budget: int = DEFAULT_BUDGET,
) -> PressureEstimate:
    """Certified pressure interval from the orbit measure of z at radius n.

    A per-site UPPER bound on the conditional becomes a LOWER pressure
    contribution through -log, and vice versa.
    """
    terms = []
    for v in orbit_sites(z):
        pi = p_interval(z, v, n, phi, budget=budget)
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


def finite_positivity_probe(
    z: PeriodicPoint,
    n: int,
    phi: Interaction,
    past_radius: int = 2,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Certified lower bound for the finite-past positivity constant.

    For every orbit site and every subset S of the past within radius
    `past_radius`, the conditional of the origin symbol given the point's
    values on S is a weighted average over boundary configurations on the
    enclosing box(n) ring; the probe returns the minimum over all of these
    of the bracket's lower end. Subsets are deduplicated by their
    intersection with box(n) and its ring, which leaves the value unchanged
    (farther sites are screened by the ring).
    """
    if not z.is_point_of(phi):
        raise HypothesisError("point not in the underlying constraint set")
    b_n = box(n)
    ring = boundary(b_n)
    domain = [s for s in past_in_box(past_radius) if s in b_n or s in ring]
    best = math.inf
    evals = 0
    engine = RegionEngine(b_n, phi, budget=budget)
    for v in orbit_sites(z):
        x = z.shift(v)
        a0 = x.value((0, 0))
        pin0 = engine.terms_from_pins({(0, 0): a0})
        for mask in range(1 << len(domain)):
            chosen = [domain[i] for i in range(len(domain)) if mask >> i & 1]
            pins_in = {s: x.value(s) for s in chosen if s in b_n}
            ring_pins = {s: x.value(s) for s in chosen if s in ring}
            free_ring = Region(ring.sites - set(ring_pins))
            deltas = admissible_configurations(
                free_ring, phi, budget=budget, context=ring_pins
            )
            evals += max(len(deltas), 1)
            if evals > budget:
                raise BudgetError(
                    f"positivity probe needs more than {budget} evaluations"
                )
            if len(deltas) == 0:
                continue
            static = [
                engine.terms_from_boundary(Configuration(Region(ring_pins), ring_pins)),
                engine.terms_from_pins(pins_in),
            ]
            csites = list(free_ring)
            den = engine.evaluate_deltas(static, csites, deltas)
            num = engine.evaluate_deltas(static + [pin0], csites, deltas)
            ok = np.isfinite(den)
            if not ok.any():
                continue
            p = np.exp(np.minimum(num[ok] - den[ok], 0.0))
            best = min(best, float(p.min()))
    if not math.isfinite(best):
        raise HypothesisError("no admissible bracket found")
    return best
