import math
import tracemalloc

import numpy as np
import pytest

from gibbspress.errors import BudgetError, HypothesisError
from gibbspress.interaction import (
    Alphabet,
    Configuration,
    Interaction,
    build_checkerboard,
    build_full_shift,
    build_hard_square,
    build_ising,
    constant_configuration,
)
from gibbspress.lattice import Region, boundary, box, canopy_decomposition
from gibbspress.pressure import _canopy_extremes, _Canopy, admissible_configurations, gk_pressure, p_interval
import gibbspress.transfer as transfer
from gibbspress.sft import PeriodicPoint, diagonal_3coloring_point, monotone_check, periodic_point_from_ssf
from gibbspress.transfer import (
    LOG_ZERO,
    ConstrainedRegion,
    RegionEngine,
    box_log_partition,
    conditional_probability,
    conditional_sum_check,
    log_partition,
    logsumexp,
    strip_pressure,
    strip_sequence,
)

from conftest import model_gallery, random_interaction
from oracles import brute_log_partition, brute_origin_interval, brute_strip_log_lambda, stage_transfer_steps

GOLDEN_RATIO_LOG = math.log((1 + math.sqrt(5)) / 2)

SMALL_REGIONS = [
    Region([(0, 0)]),
    Region([(0, 0), (1, 0)]),
    Region([(0, 0), (0, 1)]),
    Region([(0, 0), (1, 0), (0, 1)]),  # L tromino
    Region([(0, 0), (1, 0), (2, 0), (1, 1)]),  # T tetromino
    Region([(0, 0), (1, 0), (1, 1), (2, 1)]),  # S tetromino
    Region([(0, 0), (1, 0), (3, 0), (4, 0)]),  # row with a gap
    Region([(0, 0), (2, 2)]),  # disconnected
    Region([(0, 0), (1, 0), (0, 1), (1, 1)]),  # 2x2
    box(1),
    Region([(x, y) for x in range(2) for y in range(3)]),  # 2x3
    Region([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]),  # staircase
]


def test_logsumexp_edge_cases():
    assert logsumexp(np.array([]), axis=0) == LOG_ZERO
    assert logsumexp(np.array([-np.inf, -np.inf]), axis=0) == LOG_ZERO
    assert logsumexp(np.array([0.0, 0.0]), axis=0) == pytest.approx(math.log(2))
    arr = np.array([[0.0, -np.inf], [1.0, 2.0]])
    out = logsumexp(arr, axis=1)
    assert out[0] == pytest.approx(0.0)
    assert out[1] == pytest.approx(math.log(math.e + math.e**2))
    empty = logsumexp(np.zeros((3, 0)), axis=1)
    assert empty.shape == (3,) and (empty == LOG_ZERO).all()


def test_log_partition_examples():
    hs = build_hard_square(1.0)
    square = Region([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert log_partition(ConstrainedRegion(square), hs) == pytest.approx(math.log(7), abs=1e-12)

    cb3 = build_checkerboard(3)
    assert log_partition(ConstrainedRegion(square), cb3) == pytest.approx(math.log(18), abs=1e-12)

    cb2 = build_checkerboard(2)
    assert log_partition(ConstrainedRegion(square), cb2) == pytest.approx(math.log(2), abs=1e-12)

    origin = Region([(0, 0)])
    pinned = ConstrainedRegion(
        origin,
        {(0, 0): (1,)},
        constant_configuration(boundary(origin), 1),
    )
    assert log_partition(pinned, hs) == LOG_ZERO


def test_log_partition_single_site_free():
    for phi in (build_hard_square(1.0), build_full_shift(3)):
        got = log_partition(ConstrainedRegion(Region([(5, -3)])), phi)
        assert got == pytest.approx(math.log(phi.q), abs=1e-12)


def test_log_partition_empty_region_is_log_one():
    assert log_partition(ConstrainedRegion(Region([])), build_ising(0.3)) == 0.0


def test_ising_two_site_partition():
    beta = 0.45
    got = log_partition(ConstrainedRegion(Region([(0, 0), (1, 0)])), build_ising(beta))
    assert got == pytest.approx(math.log(2 * math.exp(beta) + 2 * math.exp(-beta)), abs=1e-12)


@pytest.mark.parametrize("region", SMALL_REGIONS)
def test_dp_matches_brute_force_free(region):
    for phi in model_gallery():
        if phi.q ** len(region) > 300000:
            continue
        cr = ConstrainedRegion(region)
        assert log_partition(cr, phi) == pytest.approx(brute_log_partition(cr, phi), abs=1e-10)


def test_dp_matches_brute_force_with_constraints(rng):
    for trial in range(25):
        q = int(rng.integers(2, 4))
        phi = random_interaction(q, rng)
        region = SMALL_REGIONS[int(rng.integers(len(SMALL_REGIONS)))]
        ring = boundary(region)
        ring_sites = [v for v in ring if rng.random() < 0.6]
        bcfg = Configuration(
            Region(ring_sites), {v: int(rng.integers(q)) for v in ring_sites}
        )
        allowed = {}
        for v in region:
            if rng.random() < 0.3:
                size = int(rng.integers(1, q + 1))
                allowed[v] = tuple(sorted(rng.choice(q, size=size, replace=False).tolist()))
        cr = ConstrainedRegion(region, allowed, bcfg)
        assert log_partition(cr, phi) == pytest.approx(brute_log_partition(cr, phi), abs=1e-10)


def test_dp_matches_brute_with_hard_constraints_and_boundary(rng):
    hs = build_hard_square(2.0)
    cb = build_checkerboard(3)
    for phi in (hs, cb):
        for region in SMALL_REGIONS:
            ring = boundary(region)
            bcfg = Configuration(ring, {v: int(rng.integers(phi.q)) for v in ring})
            cr = ConstrainedRegion(region, {}, bcfg)
            got = log_partition(cr, phi)
            want = brute_log_partition(cr, phi)
            if want == LOG_ZERO:
                assert got == LOG_ZERO
            else:
                assert got == pytest.approx(want, abs=1e-10)


def test_conditional_probability_examples():
    hs = build_hard_square(1.0)
    origin = Region([(0, 0)])
    ring = boundary(origin)
    all_zero = constant_configuration(ring, 0)
    cr = ConstrainedRegion(origin, {}, all_zero)
    assert conditional_probability({(0, 0): 1}, cr, hs) == pytest.approx(0.5, abs=1e-14)

    with_one = Configuration(ring, {(1, 0): 1, (-1, 0): 0, (0, 1): 0, (0, -1): 0})
    cr = ConstrainedRegion(origin, {}, with_one)
    assert conditional_probability({(0, 0): 1}, cr, hs) == 0.0

    cb3 = build_checkerboard(3)
    forced = Configuration(ring, {(0, -1): 1, (-1, 0): 2, (0, 1): 1, (1, 0): 1})
    cr = ConstrainedRegion(origin, {}, forced)
    assert conditional_probability({(0, 0): 0}, cr, cb3) == pytest.approx(1.0, abs=1e-14)


def test_conditional_probability_requires_admissible_boundary():
    hs = build_hard_square(1.0)
    origin = Region([(0, 0)])
    ring = boundary(origin)
    cr = ConstrainedRegion(origin, {(0, 0): (1,)}, constant_configuration(ring, 1))
    with pytest.raises(HypothesisError, match="boundary condition inadmissible"):
        conditional_probability({(0, 0): 1}, cr, hs)


def test_conditional_probability_requires_full_boundary():
    hs = build_hard_square(1.0)
    origin = Region([(0, 0)])
    partial = Configuration(Region([(1, 0)]), {(1, 0): 0})
    with pytest.raises(ValueError, match="full exterior boundary"):
        conditional_probability({(0, 0): 1}, ConstrainedRegion(origin, {}, partial), hs)


def test_conditional_sum_check_examples():
    origin = Region([(0, 0)])
    ring = boundary(origin)
    all_zero = constant_configuration(ring, 0)

    dist = conditional_sum_check(ConstrainedRegion(origin, {}, all_zero), build_hard_square(1.0), (0, 0))
    assert dist == pytest.approx([0.5, 0.5], abs=1e-14)

    dist = conditional_sum_check(ConstrainedRegion(origin, {}, all_zero), build_hard_square(2.0), (0, 0))
    assert dist == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    forced = Configuration(ring, {(0, -1): 1, (-1, 0): 2, (0, 1): 1, (1, 0): 1})
    dist = conditional_sum_check(ConstrainedRegion(origin, {}, forced), build_checkerboard(3), (0, 0))
    assert dist == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)


def test_conditional_sum_check_normalization_across_gallery(rng):
    region = box(1)
    ring = boundary(region)
    from gibbspress.sft import random_locally_admissible

    for phi in model_gallery():
        cfg = random_locally_admissible(ring, phi, rng)
        try:
            dist = conditional_sum_check(ConstrainedRegion(region, {}, cfg), phi, (0, 0))
        except HypothesisError:
            continue
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_mrf_joint_conditional_matches_direct_formula(rng):
    """DP joint conditional on box(1) equals the explicit Gibbs weight."""
    from gibbspress.interaction import energy_with_boundary
    from gibbspress.sft import random_locally_admissible

    region = box(1)
    ring = boundary(region)
    for phi in (build_hard_square(1.0), build_ising(0.3), build_checkerboard(3)):
        for _ in range(50):
            delta = random_locally_admissible(ring, phi, rng)
            cr = ConstrainedRegion(region, {}, delta)
            denom = brute_log_partition(cr, phi)
            if denom != LOG_ZERO:
                break
        else:
            pytest.fail("no admissible boundary found")
        for _ in range(20):
            w = {v: int(rng.integers(phi.q)) for v in region}
            direct_energy = energy_with_boundary(Configuration(region, w), delta, phi)
            direct = 0.0 if direct_energy == math.inf else math.exp(-direct_energy - denom)
            via_dp = conditional_probability(w, cr, phi)
            assert via_dp == pytest.approx(direct, abs=1e-12)


def test_strip_width_one_is_golden_ratio():
    sb = strip_pressure(1, build_hard_square(1.0))
    assert sb.per_site_lower == pytest.approx(GOLDEN_RATIO_LOG, abs=1e-9)
    assert sb.per_site_upper == pytest.approx(GOLDEN_RATIO_LOG, abs=1e-9)
    assert sb.per_site_lower <= sb.per_site_upper


def test_strip_matches_dense_eigenvalue(rng):
    """The strip bracket contains log lambda_max of the dense q^m x q^m row
    transfer matrix, at widths 1-4."""
    inf = math.inf
    # symbol 2 sits only on 0, and 0 never sits next to 0: from width 2 on,
    # the admissible row (2, 2) has no admissible predecessor
    orphan = Interaction(
        Alphabet(3),
        [[inf, 0, 0], [0, 0.5, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, inf], [0, 0.3, inf]],
        name="orphan",
    )
    # a 0 must be followed by a 1 and a 1 by nothing: no row of width 3
    dead_end = Interaction(Alphabet(2), [[inf, 0], [inf, inf]], np.zeros((2, 2)), name="dead-end")
    randoms = [random_interaction(q, rng) for q in (2, 2, 3, 3)]
    for phi in model_gallery() + randoms + [orphan, dead_end]:
        for m in (1, 2, 3, 4):
            want = brute_strip_log_lambda(m, phi)
            sb = strip_pressure(m, phi)
            if want == LOG_ZERO:
                assert sb.log_lambda_lower == sb.log_lambda_upper == LOG_ZERO, (phi.name, m)
                continue
            assert sb.log_lambda_lower - 1e-12 <= want <= sb.log_lambda_upper + 1e-12, (phi.name, m)
            assert sb.log_lambda_upper - sb.log_lambda_lower < 1e-9, (phi.name, m)


def test_strip_bounds_ordered_across_gallery():
    for phi in model_gallery():
        sb = strip_pressure(2, phi, tol=1e-9, max_iter=20000)
        assert sb.per_site_lower <= sb.per_site_upper


def test_strip_checkerboard2_is_frozen():
    cb2 = build_checkerboard(2)
    for m in (1, 2, 3, 62):  # two rows at any width; 2^62 base-2 codes fit int64
        sb = strip_pressure(m, cb2)
        assert sb.per_site_lower == pytest.approx(0.0, abs=1e-12)
        assert sb.per_site_upper == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(BudgetError, match="int64"):
        strip_pressure(63, cb2)


def test_strip_budget_guard():
    with pytest.raises(BudgetError, match="transfer states"):
        strip_pressure(8, build_checkerboard(5), budget=10000)


def test_strip_sequence_ratio_cancels_surface_term():
    hs = build_hard_square(1.0)
    points = strip_sequence(hs, [5, 6])
    by_width = {p.width: p for p in points}
    # raw per-site values carry the O(1/m) surface term
    assert by_width[6].bounds.per_site_upper - by_width[6].ratio_upper > 0.005
    # ratio estimates at close widths agree tightly
    assert by_width[6].ratio_lower <= by_width[5].ratio_upper + 1e-4
    assert abs(by_width[6].ratio_upper - by_width[5].ratio_upper) < 1e-4
    assert by_width[5].ratio_lower is not None
    single = strip_sequence(hs, [1])
    assert single[0].ratio_lower is None and single[0].ratio_upper is None


def test_hard_square_folding_convention():
    """Edge folding: the free single site ignores the activity entirely,
    while a fully pinned neighborhood reproduces the vertex weight exactly."""
    origin = Region([(0, 0)])
    ring = boundary(origin)
    for lam in (0.5, 1.0, 3.0):
        phi = build_hard_square(lam)
        free = log_partition(ConstrainedRegion(origin), phi)
        assert free == pytest.approx(math.log(2), abs=1e-12)
        if lam == 1.0:
            assert free == pytest.approx(math.log(1 + lam), abs=1e-12)
        cr = ConstrainedRegion(origin, {}, constant_configuration(ring, 0))
        dist = conditional_sum_check(cr, phi, (0, 0))
        assert dist[1] == pytest.approx(lam / (1 + lam), abs=1e-12)


def test_strip_self_convergence_at_large_widths():
    """Ratio estimates at widths 8 and 12 agree far inside 2e-3."""
    hs = build_hard_square(1.0)
    points = {p.width: p for p in strip_sequence(hs, [8, 12])}
    mid = lambda p: (p.ratio_lower + p.ratio_upper) / 2
    assert abs(mid(points[8]) - mid(points[12])) < 2e-3


def test_checkerboard3_strip_approaches_literature_value():
    """External cross-check only: the converged strip value sits near the
    closed-form residual entropy (3/2) log(4/3)."""
    cb3 = build_checkerboard(3)
    point = strip_sequence(cb3, [9])[0]
    mid = (point.ratio_lower + point.ratio_upper) / 2
    assert abs(mid - 1.5 * math.log(4 / 3)) < 5e-3


def test_ising_strip_matches_closed_form():
    """External cross-check against the exact square-lattice free energy."""
    quad = pytest.importorskip("scipy.integrate").quad
    beta = 0.3

    def exact_log_z_per_site():
        k = 1.0 / (math.sinh(2 * beta) ** 2)

        def integrand(t):
            res = math.cosh(2 * beta) ** 2
            res += math.sqrt(1.0 + k * k - 2 * k * math.cos(2 * t)) / k
            return math.log(res)

        return quad(integrand, 0.0, math.pi)[0] / (2 * math.pi) + 0.5 * math.log(2.0)

    point = strip_sequence(build_ising(beta), [8])[0]
    mid = (point.ratio_lower + point.ratio_upper) / 2
    assert abs(mid - exact_log_z_per_site()) < 1e-6


def test_box_log_partition_examples():
    hs = build_hard_square(1.0)
    assert box_log_partition(1, hs) == pytest.approx(math.log(2), abs=1e-12)
    assert box_log_partition(2, hs) == pytest.approx(math.log(7) / 4, abs=1e-12)


def test_box_values_decrease_toward_strip_value():
    hs = build_hard_square(1.0)
    # one-member sweeps: every width runs its transitions as steps
    values = [box_log_partition(m, hs) for m in (1, 2, 3, 4, 5, 17, 20)]
    assert all(a > b for a, b in zip(values, values[1:]))
    ratio = strip_sequence(hs, [8])[0]
    assert values[-1] > ratio.ratio_lower  # free boxes approach from above


def test_log_domain_hygiene_with_huge_energies():
    beta = 300.0
    phi = build_ising(beta)
    region = Region([(0, 0), (1, 0), (0, 1), (1, 1)])
    cr = ConstrainedRegion(region)
    got = log_partition(cr, phi)
    want = brute_log_partition(cr, phi)
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12)
    # 4-cycle energy levels: 2 ground states, 12 mid, 2 fully frustrated
    expected = 4 * beta + math.log(2 + 12 * math.exp(-4 * beta) + 2 * math.exp(-8 * beta))
    assert got == pytest.approx(expected, rel=1e-12)


def test_row_state_budget_guard():
    region = Region([(x, 0) for x in range(30)])
    with pytest.raises(BudgetError, match="states"):
        log_partition(ConstrainedRegion(region), build_full_shift(3), budget=1000)


def test_budgets_count_the_states_held():
    """The budget bounds the pruned states held, not q^sites."""
    row = Region([(x, 0) for x in range(20)])  # 2^20 rows, F(22) of them admissible
    got = log_partition(ConstrainedRegion(row), build_hard_square(1.0), budget=1 << 15)
    assert got == pytest.approx(math.log(17711), abs=1e-12)
    cb3 = build_checkerboard(3)  # 3^12 rows, 3 * 2^11 admissible
    assert strip_pressure(12, cb3, budget=1 << 15) == strip_pressure(12, cb3)
    # a transfer step holds the new row's prefixes times the old row's
    # suffixes before its column's site: 3 * 2^4 * 3 * 2^5 * 3 = 13 824 at
    # width 12, and F(3) * F(14) * 2 = 1508 for the hard-square box 14
    assert strip_pressure(12, cb3, budget=13824) == strip_pressure(12, cb3)
    with pytest.raises(BudgetError, match="transfer states of row y=0: needs 13824 states"):
        strip_pressure(12, cb3, budget=13823)
    hs = build_hard_square(1.0)
    assert box_log_partition(14, hs, budget=1508) == box_log_partition(14, hs)
    with pytest.raises(BudgetError, match="transfer states of row y=.*: needs 1508 states"):
        box_log_partition(14, hs, budget=1507)
    # 2^14 canopy configurations at n = 3, 1360 of them admissible
    zeros = PeriodicPoint([[0]])
    assert len(admissible_configurations(canopy_decomposition(3)[2], hs, budget=2000)) == 1360
    got = p_interval(zeros, (0, 0), 3, hs, budget=2000)
    assert got == p_interval(zeros, (0, 0), 3, hs)
    # the extremes path enumerates no canopy; S_3 swept by its columns needs 12
    assert p_interval(zeros, (0, 0), 3, hs, budget=12) == got
    with pytest.raises(BudgetError, match="needs 12 states"):
        p_interval(zeros, (0, 0), 3, hs, budget=11)
    # the 3-colouring sweeps its ensemble: 3^10 canopy configurations at
    # n = 2, 3456 of them admissible; one enumeration over the canopy holds
    # at most 1728 states before a site, so it needs a budget of 3 * 1728
    cb3, diag = build_checkerboard(3), diagonal_3coloring_point()
    with pytest.raises(BudgetError, match="canopy ensemble: needs 5184 states"):
        p_interval(diag, (0, 0), 2, cb3, budget=5000)
    got = p_interval(diag, (0, 0), 2, cb3, budget=6000)
    assert got == p_interval(diag, (0, 0), 2, cb3)
    assert got.canopy_path == "ensemble" and got.canopy_count + got.skipped_count == 3456


def test_constrained_region_validation():
    region = Region([(0, 0)])
    with pytest.raises(ValueError):
        ConstrainedRegion(region, {(5, 5): (0,)})
    with pytest.raises(ValueError):
        ConstrainedRegion(region, {(0, 0): ()})
    with pytest.raises(ValueError):
        ConstrainedRegion(region, {}, Configuration(region, {(0, 0): 0}))


def test_engine_is_deterministic():
    phi = build_hard_square(1.0)
    region = box(1)
    ring = boundary(region)
    cfg = constant_configuration(ring, 0)
    a = log_partition(ConstrainedRegion(region, {}, cfg), phi)
    b = log_partition(ConstrainedRegion(region, {}, cfg), phi)
    assert a == b


def test_engine_target_vector_matches_pinned_runs():
    phi = build_checkerboard(3)
    region = Region([(0, 0), (1, 0), (0, 1), (1, 1)])
    engine = RegionEngine(region, phi, target=(0, 0))
    zvec = engine.evaluate(engine.terms_from_boundary(Configuration(Region([]), {})))
    for a in range(3):
        pinned = log_partition(ConstrainedRegion(region, {(0, 0): (a,)}), phi)
        assert zvec[a] == pytest.approx(pinned, abs=1e-12)


def test_evaluate_is_a_one_member_ensemble(rng):
    """evaluate on boundary terms equals evaluate_deltas on the same
    symbols as a one-member ensemble, exactly, also with pinned sites."""

    def check(engine, symbols, pins=None):
        sites = list(symbols)
        static = [engine.terms_from_pins(pins or {})]
        one = engine.evaluate(engine.terms_from_boundary(Configuration(Region(sites), symbols)), *static)
        ens = engine.evaluate_deltas(static, sites, [[symbols[v] for v in sites]])
        assert ens.shape[0] == 1
        if engine.target is None:
            assert isinstance(one, float) and one == ens[0]
        else:
            assert np.array_equal(one, ens[0])
        return one

    for trial in range(40):
        q = int(rng.integers(2, 4))
        phi = random_interaction(q, rng)
        region = SMALL_REGIONS[int(rng.integers(len(SMALL_REGIONS)))]
        allowed = {v: (int(rng.integers(q)),) for v in region if rng.random() < 0.2}
        target = min(region, key=lambda v: (v[1], v[0])) if trial % 2 else None
        engine = RegionEngine(region, phi, target=target)
        ring = [v for v in boundary(region) if rng.random() < 0.7]
        check(engine, {v: int(rng.integers(q)) for v in ring}, allowed)

    hs = build_hard_square(1.0)
    # only the horizontal pair (0, 1) is allowed, so no 3-site row is admissible
    only01 = Interaction(Alphabet(2), [[np.inf, 0.0], [np.inf, np.inf]], np.zeros((2, 2)))
    row = Region([(0, 0), (1, 0), (2, 0)])
    for target in (None, (0, 0)):
        infeasible = RegionEngine(row, only01, target=target)
        assert infeasible.infeasible
        assert np.all(check(infeasible, {(0, 1): 0, (3, 0): 1}) == LOG_ZERO)
        excluded = RegionEngine(row, hs, target=target)
        assert not excluded.infeasible
        assert np.all(check(excluded, {(0, 1): 0, (3, 0): 1}, {(0, 0): (1,), (1, 0): (1,)}) == LOG_ZERO)
    assert check(RegionEngine(Region([]), hs), {(0, 0): 1}) == 0.0


def test_allowed_sets_are_set_valued_pins(monkeypatch):
    """A pin to a set of symbols is the logsumexp of the pins to each one,
    and out-of-range symbols are refused. Rows ignore allowed sets, so an
    allowed set never splits a shared transition."""
    region = Region([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)])
    ring = boundary(region)
    for phi in (build_ising(0.4), build_checkerboard(3)):
        engine = RegionEngine(region, phi)
        bterms = engine.terms_from_boundary(Configuration(ring, {v: (v[0] + v[1]) % 2 for v in ring}))
        pins = {(1, 0): tuple(range(phi.q - 1, -1, -1)), (0, 1): 1}
        both = engine.evaluate(bterms, engine.terms_from_pins(pins))
        singles = [engine.evaluate(bterms, engine.terms_from_pins({**pins, (1, 0): a})) for a in pins[(1, 0)]]
        assert math.isfinite(both)
        assert both == pytest.approx(logsumexp(singles, axis=0), rel=0, abs=1e-12)
    with pytest.raises(ValueError, match="alphabet"):
        log_partition(ConstrainedRegion(region, {(1, 0): (0, 2)}), build_ising(0.4))

    calls = []
    steps = transfer._transfer_steps
    monkeypatch.setattr(transfer, "_transfer_steps", lambda *args: calls.append(args) or steps(*args))
    box6 = Region((x, y) for x in range(6) for y in range(6))
    assert math.isfinite(log_partition(ConstrainedRegion(box6, {(2, 3): (0,)}), build_hard_square(1.0)))
    assert len(calls) == 1


def test_transfer_steps_and_matrices_agree(rng, monkeypatch):
    """Forward sweeps run the steps and build no log-weight matrix; only an
    ensemble that meets in the middle builds its transitions' log-weights,
    and both arithmetics agree."""
    taken = _spy_combine(monkeypatch)
    hs = build_hard_square(1.0)
    box12 = box_log_partition(12, hs)
    engine = RegionEngine(Region((x, y) for x in range(12) for y in range(12)), hs)
    assert engine.evaluate() == pytest.approx(144 * box12, abs=1e-12)
    assert taken == [] and all(logw is None for _, logw in engine._trans)
    # 377 equal members and 377 states per row: the combine builds the one
    # matrix the 11 equal row pairs share
    many = engine.evaluate_deltas([], [], np.zeros((377, 0), dtype=np.int64))
    built = {id(logw): logw for _, logw in engine._trans}
    assert taken == [True] and [logw.shape for logw in built.values()] == [(377, 377)]
    np.testing.assert_allclose(many, 144 * box12, rtol=1e-12, atol=0)

    s_3, u_3, c_3 = canopy_decomposition(3)
    deltas = admissible_configurations(c_3, hs)
    assert len(deltas) == 1360
    upper = PeriodicPoint([[0]]).restrict(u_3)
    ensemble, single = (RegionEngine(s_3, hs, target=(0, 0)) for _ in range(2))
    assert max(len(row.configs) for row in ensemble.rows) == 34
    got = ensemble.evaluate_deltas([ensemble.terms_from_boundary(upper)], list(c_3), deltas)
    assert all(logw is not None for _, logw in ensemble._trans)
    static = [single.terms_from_boundary(upper)]
    ones = np.concatenate([single.evaluate_deltas(static, list(c_3), d[None]) for d in deltas])
    assert all(logw is None for _, logw in single._trans)
    np.testing.assert_allclose(got, ones, rtol=0, atol=1e-12)

    # random members mostly decline the combine and run the steps; a
    # transition has its log-weights exactly when its ensemble was combined
    combined = 0
    for trial in range(30):
        q = int(rng.integers(2, 4))
        phi = random_interaction(q, rng)
        region = SMALL_REGIONS[int(rng.integers(len(SMALL_REGIONS)))]
        allowed = {
            v: tuple(sorted(rng.choice(q, size=int(rng.integers(1, q + 1)), replace=False).tolist(), reverse=True))
            for v in region
            if rng.random() < 0.5
        }
        ring = [v for v in boundary(region) if rng.random() < 0.6]
        target = min(region, key=lambda v: (v[1], v[0])) if trial % 2 else None
        ensemble, single = (RegionEngine(region, phi, target=target) for _ in range(2))
        members = max(len(row.configs) for row in ensemble.rows)  # at least S_r for every transition
        deltas = rng.integers(q, size=(members, len(ring)))
        taken.clear()
        got = ensemble.evaluate_deltas([ensemble.terms_from_pins(allowed)], ring, deltas)
        assert all((logw is not None) == bool(taken) for _, logw in ensemble._trans)
        for d, row in zip(deltas, got):
            bcfg = Configuration(Region(ring), dict(zip(ring, d.tolist())))
            one = single.evaluate(single.terms_from_boundary(bcfg), single.terms_from_pins(allowed))
            np.testing.assert_allclose(row, one, rtol=1e-12, atol=1e-12)
            want = brute_log_partition(ConstrainedRegion(region, allowed, bcfg), phi)
            assert logsumexp(np.atleast_1d(one), axis=0) == pytest.approx(want, abs=1e-10)
        assert all(logw is None for _, logw in single._trans)  # also for one-state rows
        combined += bool(taken)
    assert combined == 3

    # the box oracle, the extremes path and evaluate do not combine, so they
    # build no log-weights either
    taken.clear()
    assert 0.4074 < box_log_partition(14, hs) < box12  # decreasing toward log kappa = 0.40749...
    for n in range(1, 6):
        assert p_interval(PeriodicPoint([[0]]), (0, 0), n, hs).canopy_path == "extremes"
    assert math.isfinite(engine.evaluate(engine.terms_from_pins({(5, 5): 1})))
    assert taken == [] and {id(logw) for _, logw in engine._trans} == set(built)


@pytest.mark.parametrize("target", [(1, 2), (0, 1), (1, 0)], ids=["top", "middle", "lowest"])
def test_target_may_sit_in_any_row(target, rng, monkeypatch):
    """The sweeps split by the target's symbol at whichever row holds it:
    the forward steps and the combine both equal direct enumeration with
    the target pinned, zero weights included."""
    taken = _spy_combine(monkeypatch)
    q = 3
    random = random_interaction(q, rng)
    horizontal = random.horizontal.copy()
    np.fill_diagonal(horizontal, np.inf)  # so that some members weigh zero
    phi = Interaction(Alphabet(q), horizontal, random.vertical)
    region = Region((x, y) for x in range(2) for y in range(3))
    ring = list(boundary(region))
    engine = RegionEngine(region, phi, target=target)
    # members repeat their head and their tail, so that the combine pays
    head = [j for j, v in enumerate(ring) if v[1] >= 2]
    members = np.empty((24, len(ring)), dtype=np.int64)
    for part, pool in ((head, 3), ([j for j in range(len(ring)) if j not in head], 4)):
        members[:, part] = rng.integers(q, size=(pool, len(part)))[rng.integers(pool, size=24)]
    bcfgs = [Configuration(Region(ring), dict(zip(ring, d.tolist()))) for d in members]
    want = np.array([
        [brute_log_partition(ConstrainedRegion(region, {target: (a,)}, bcfg), phi) for a in range(q)] for bcfg in bcfgs
    ])
    assert np.isinf(want).any() and np.isfinite(want).any()
    combined = engine.evaluate_deltas([], ring, members)
    assert taken == [True]
    monkeypatch.setattr(RegionEngine, "_halves", lambda *args: None)
    for got in (combined, engine.evaluate_deltas([], ring, members)):
        assert np.array_equal(np.isinf(got), np.isinf(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_rows_with_equal_x_columns_share_one_enumeration():
    """Rows y = 1..n of S_n, and every row of a box, have the same x
    columns: they share one configs and internal array."""
    hs = build_hard_square(1.0)
    engine = RegionEngine(canopy_decomposition(3)[0], hs, target=(0, 0))
    assert [row.y for row in engine.rows] == [3, 2, 1, 0]
    top, *middle, origin = engine.rows
    for row in middle:
        assert row.configs is top.configs and row.internal is top.internal
    assert origin.configs is not top.configs and len(origin.configs) == 8

    box8 = RegionEngine(Region((x, y) for x in range(8) for y in range(8)), hs)
    assert all(row.configs is box8.rows[0].configs and row.internal is box8.rows[0].internal for row in box8.rows)
    assert box8.evaluate() == pytest.approx(64 * box_log_partition(8, hs), abs=1e-12)


def test_forward_sweep_holds_one_rows_member_vectors():
    """The forward sweep gathers each row's exterior edges when it reaches
    that row: at hard-square parity n = 16, the two canopy extremes' sweep
    allocates less, above where it started, than every row's member vectors
    held at once (8 bytes a float)."""
    hs = build_hard_square(1.0)
    canopy = _Canopy(16, hs)
    shifted = periodic_point_from_ssf(hs, 1).shift((1, 0))
    a0 = shifted.value((0, 0))
    engine = canopy.engine()
    upper = {(y, x): a for (x, y), a in shifted.restrict(canopy.u_n).symbols.items()}
    terms = engine.terms_from_boundary(Configuration(Region(upper), upper))
    extremes = _canopy_extremes(canopy.sites, monotone_check(hs, target=a0), hs)
    sites = [(y, x) for x, y in canopy.sites]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        zvec = engine.evaluate_deltas([terms], sites, extremes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(zvec).all()
    assert peak - start < 8 * len(extremes) * sum(len(row.configs) for row in engine.rows)


def test_small_sweep_ignores_a_matrix_an_earlier_sweep_built():
    """A forward sweep runs the steps also after a combine built the shared
    engine's matrices, so a small sweep on a shared engine equals, bit for
    bit, the same sweep on a fresh one."""
    hs = build_hard_square(1.0)
    s_3, u_3, c_3 = canopy_decomposition(3)
    deltas = admissible_configurations(c_3, hs)
    shared, fresh = (RegionEngine(s_3, hs, target=(0, 0)) for _ in range(2))
    static = [shared.terms_from_boundary(PeriodicPoint([[0]]).restrict(u_3))]
    shared.evaluate_deltas(static, list(c_3), deltas)
    assert all(logw is not None for _, logw in shared._trans)
    few = deltas[[0, -1]]
    got = shared.evaluate_deltas(static, list(c_3), few)
    assert np.array_equal(got, fresh.evaluate_deltas(static, list(c_3), few))
    assert all(logw is None for _, logw in fresh._trans)


def _spy_combine(monkeypatch) -> list[bool]:
    """Record a True per `_combine` call, which always returns the
    ensemble."""
    taken = []
    combine = RegionEngine._combine

    def spy(self, *args):
        taken.append(True)
        return combine(self, *args)

    monkeypatch.setattr(RegionEngine, "_combine", spy)
    return taken


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("target", [(0, 0), None])
@pytest.mark.parametrize("pinned", [False, True])
def test_combine_matches_per_member_forward_evaluate(q, target, pinned, rng, monkeypatch):
    """The meet-in-the-middle path equals one forward `evaluate` per member,
    zeros included, for ensembles over head and tail sites, head sites only
    and tail sites only. Members repeat their head (or tail) so that the
    combine costs fewer flops than the forward sweep."""
    taken = _spy_combine(monkeypatch)
    random = random_interaction(q, rng)
    # equal neighbours forbidden, so that some members weigh zero: a weighted
    # 3-colouring, and for q = 2 along rows only (both would freeze the model)
    horizontal, vertical = random.horizontal.copy(), random.vertical.copy()
    for table in (horizontal, vertical) if q == 3 else (horizontal,):
        np.fill_diagonal(table, np.inf)
    phi = Interaction(Alphabet(q), horizontal, vertical)
    s_1, u_1, c_1 = canopy_decomposition(1)
    engine = RegionEngine(s_1, phi, target=target)
    # (-1, 0) touches both rows: a tail site whose terms reach the top row
    corner = (-1, 0)
    static = []
    if pinned:
        upper = Region(v for v in u_1 if v != corner)
        upper = Configuration(upper, {v: int(a) for v, a in zip(upper, rng.integers(q, size=len(upper)))})
        static = [engine.terms_from_boundary(upper), engine.terms_from_pins({(1, 1): (0, 1), (-1, 1): 1})]
    head = [v for v in c_1 if v[1] >= 1]  # the canopy's top row and the side sites beside row y = 1
    tail = [v for v in c_1 if v not in head] + [corner]
    pool = rng.integers(q, size=(6, len(head)))
    members = np.column_stack([pool[rng.integers(6, size=60)], rng.integers(q, size=(60, len(tail)))])
    outs = []
    for sites, cols in ((head + tail, slice(None)), (head, slice(0, len(head))), (tail, slice(len(head), None))):
        got = engine.evaluate_deltas(static, sites, members[:, cols])
        outs.append(got.ravel())
        want = np.array([
            engine.evaluate(*static, engine.terms_from_boundary(
                Configuration(Region(sites), {v: int(a) for v, a in zip(sites, row)})
            ))
            for row in members[:, cols]
        ])
        assert np.array_equal(np.isinf(got), np.isinf(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert taken == [True] * 3
    assert np.isinf(np.concatenate(outs)).any() and np.isfinite(np.concatenate(outs)).any()


@pytest.mark.parametrize("k", [3, 4])
def test_combine_matches_brute_origin_interval(k, monkeypatch):
    """At n = 1 the combined ensemble brackets the 3- and 4-colourings'
    origin conditional as direct enumeration does, and skips the members
    the forward sweep skips."""
    taken = _spy_combine(monkeypatch)
    phi = build_checkerboard(k)
    point = diagonal_3coloring_point() if k == 3 else PeriodicPoint([[0, 1], [1, 0]])
    s_1, u_1, c_1 = canopy_decomposition(1)
    pi = p_interval(point, (0, 0), 1, phi)
    assert taken == [True] and pi.canopy_path == "ensemble"
    lo, hi = brute_origin_interval(s_1, point.restrict(u_1), c_1, admissible_configurations(c_1, phi), phi, point.value((0, 0)))
    assert (pi.lower, pi.upper) == (pytest.approx(lo, abs=1e-12), pytest.approx(hi, abs=1e-12))
    monkeypatch.setattr(RegionEngine, "_halves", lambda *args: None)
    forward = p_interval(point, (0, 0), 1, phi)
    assert (pi.canopy_count, pi.skipped_count) == (forward.canopy_count, forward.skipped_count)
    assert pi.skipped_count > 0 if k == 3 else pi.skipped_count == 0


@pytest.mark.parametrize("n, combined", [(1, False), (3, True)])
def test_combine_runs_only_below_the_forward_flops(n, combined, monkeypatch):
    """Only at n = 3 (1360 members) do the hard-square canopy ensemble's
    distinct heads and tails cost fewer flops to combine than a forward
    sweep per member; at n = 1 (30 members, rows of 5 and 3 states) the
    steps run and no log-weights are built."""
    taken = _spy_combine(monkeypatch)
    hs = build_hard_square(1.0)
    s_n, u_n, c_n = canopy_decomposition(n)
    engine = RegionEngine(s_n, hs, target=(0, 0))
    static = [engine.terms_from_boundary(PeriodicPoint([[0]]).restrict(u_n))]
    got = engine.evaluate_deltas(static, list(c_n), admissible_configurations(c_n, hs))
    assert all((logw is not None) == combined for _, logw in engine._trans)
    assert taken == ([True] if combined else [])
    monkeypatch.setattr(RegionEngine, "_halves", lambda *args: None)
    np.testing.assert_allclose(got, engine.evaluate_deltas(static, list(c_n), admissible_configurations(c_n, hs)), rtol=1e-12)


def _forbid_forward_sweeps(monkeypatch):
    """Make a forward sweep raise; returns the real `_sweep`."""

    def forward(self, *args):
        raise AssertionError("a forward sweep ran")

    sweep = RegionEngine._sweep
    monkeypatch.setattr(RegionEngine, "_sweep", forward)
    return sweep


def _assert_same_log_weights(got, want):
    assert np.array_equal(np.isinf(got), np.isinf(want))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_wide_spread_combines_in_the_log_domain(rng, monkeypatch):
    """Horizontal energies of scale 300 spread the head and backward vectors
    past 700 together, so each member joins its pair by a logsumexp, and it
    equals the forward steps."""
    q = 3
    phi = Interaction(Alphabet(q), random_interaction(q, rng, scale=300.0).horizontal, random_interaction(q, rng).vertical)
    s_1, _, c_1 = canopy_decomposition(1)
    deltas = admissible_configurations(c_1, phi)
    engine = RegionEngine(s_1, phi, target=(0, 0))
    taken = _spy_combine(monkeypatch)
    sweep = _forbid_forward_sweeps(monkeypatch)
    got = engine.evaluate_deltas([], list(c_1), deltas)
    assert taken == [True] and all(logw is not None for _, logw in engine._trans)
    monkeypatch.setattr(RegionEngine, "_sweep", sweep)
    monkeypatch.setattr(RegionEngine, "_halves", lambda *args: None)
    _assert_same_log_weights(got, engine.evaluate_deltas([], list(c_1), deltas))


_SOFT = [[np.inf, 0, 300], [300, np.inf, 0], [0, 300, np.inf]]  # 3-colouring energies 0 and 300
_HARD = [[np.inf, 0, 0], [0, np.inf, 0], [0, 0, np.inf]]


def _diag3_ensembles(phi, n, monkeypatch):
    """(estimate, [(engine, args, out)] per ensemble `evaluate_deltas` call)
    of `gk_pressure` at diag3 with forward sweeps forbidden; returns the real
    `evaluate_deltas` and `_sweep` too."""
    calls = []
    evaluate_deltas = RegionEngine.evaluate_deltas

    def spy(self, *args):
        out = evaluate_deltas(self, *args)
        calls.append((self, args, out))
        return out

    monkeypatch.setattr(RegionEngine, "evaluate_deltas", spy)
    sweep = _forbid_forward_sweeps(monkeypatch)
    est = gk_pressure(diagonal_3coloring_point(), n, phi)
    ensembles = [(engine, args, out) for engine, args, out in calls if len(out) > 1]
    assert ensembles
    return est, ensembles, evaluate_deltas, sweep


def test_soft_3_colouring_combines_in_the_log_domain(monkeypatch):
    """A 3-colouring with horizontal energies 0 and 300 spreads diag3's head
    and backward vectors past 700 at n = 2: its brackets still combine, to
    exactly [0, 0], with no forward sweep, and each ensemble equals the
    forward steps."""
    soft3 = Interaction(Alphabet(3), _SOFT, _HARD)
    est, ensembles, evaluate_deltas, sweep = _diag3_ensembles(soft3, 2, monkeypatch)
    assert (est.lower, est.upper) == (0.0, 0.0)
    # 6912 members, past one block of 4096, join block by block
    engine, (static, sites, members), out = ensembles[0]
    both = evaluate_deltas(engine, static, sites, np.concatenate([members, members[::-1]]))
    assert len(members) == 3456 and np.array_equal(both, np.concatenate([out, out[::-1]]))
    monkeypatch.setattr(RegionEngine, "_sweep", sweep)
    monkeypatch.setattr(RegionEngine, "_halves", lambda *args: None)
    for engine, args, out in ensembles:
        _assert_same_log_weights(out, evaluate_deltas(engine, *args))


@pytest.mark.parametrize("soft", ["vertical", "horizontal"])
def test_soft_3_colouring_sweeps_backward_in_the_log_domain(soft, monkeypatch):
    """With the energies 0 and 300 on either table, diag3's brackets at
    n = 2 combine, to exactly [-300, -300] on the vertical table and
    [0, 0] on the horizontal one, with no forward sweep, and each ensemble
    equals the forward steps. The engine sweeps S_n by its columns, so S_n's
    horizontal table lands on its transitions: their own log-weights then
    spread past 700, and the backward sweeps take the logsumexp branch."""
    soft3 = Interaction(Alphabet(3), _HARD, _SOFT) if soft == "vertical" else Interaction(Alphabet(3), _SOFT, _HARD)
    est, ensembles, evaluate_deltas, sweep = _diag3_ensembles(soft3, 2, monkeypatch)
    assert (est.lower, est.upper) == ((-300.0, -300.0) if soft == "vertical" else (0.0, 0.0))
    spread = max(transfer._exp_shifted(logw)[2] for engine, _, _ in ensembles for _, logw in engine._trans)
    assert (spread > 700) == (soft == "horizontal")
    monkeypatch.setattr(RegionEngine, "_sweep", sweep)
    monkeypatch.setattr(RegionEngine, "_halves", lambda *args: None)
    for engine, args, out in ensembles:
        _assert_same_log_weights(out, evaluate_deltas(engine, *args))


@pytest.mark.parametrize(
    "spread_a, spread_b, gemm",
    [(5.0, 10.0, True), (150.0, 550.0, True), (300.0, 550.0, False), (0.0, 800.0, False)],
)
@pytest.mark.parametrize("block", [4, 4096])
def test_log_products_branches_agree_with_logsumexp(spread_a, spread_b, gemm, block, rng, monkeypatch):
    """Both branches of the one log-domain product, the exp-shifted GEMM up
    to a summed row spread of 700 (also past a single spread of 400) and the
    chunked logsumexp beyond, equal a direct logsumexp for every pair and at
    requested pairs, -inf entries and all-zero rows included."""
    k = 12

    def log_weights(shape, spread):
        w = rng.uniform(-spread, 0.0, size=(*shape, k))
        w[..., 0], w[..., 1] = 0.0, -spread  # every finite row spreads exactly `spread`
        w[..., 2:][rng.random((*shape, k - 2)) < 0.3] = LOG_ZERO
        return w + 5.0

    a, b = log_weights((7,), spread_a), log_weights((5, 3), spread_b)
    a[3] = LOG_ZERO
    b[2, 1] = LOG_ZERO
    assert transfer._exp_shifted(a)[2] + transfer._exp_shifted(b.reshape(-1, k))[2] == pytest.approx(spread_a + spread_b)
    want = logsumexp(a[:, None, None, :] + b[None], axis=-1)
    calls = []
    monkeypatch.setattr(transfer, "logsumexp", lambda *args, **kw: calls.append(1) or logsumexp(*args, **kw))
    i, j = rng.integers(7, size=40), rng.integers(5, size=40)
    for got, ref in ((transfer._log_products(a, b, block), want), (transfer._log_products(a, b, block, (i, j)), want[i, j])):
        _assert_same_log_weights(got, ref)
        assert np.isinf(got).any() and np.isfinite(got).any()
    assert (calls == []) == gemm


@pytest.mark.parametrize(
    "v_spread, spreads, terms, linear",
    [
        (5.0, [10.0, 20.0, 30.0], 3, True),
        (100.0, [250.0, 350.0], 1, True),  # exactly 700: one-term steps add log 1 = 0
        (100.0, [250.0, 351.0], 1, False),
        (0.0, [349.0, 349.0], 3, False),  # log 3 per step tips 698 past 700
        (0.0, [300.0, 300.0, 300.0], 2, False),  # each step below 700, their sum above
        (5.0, [1.0, 800.0, 1.0], 3, False),  # one step over 700 on its own
        (750.0, [1.0, 1.0], 2, False),  # the input vectors over 700
    ],
)
def test_run_steps_branches_agree_with_logsumexp(v_spread, spreads, terms, linear, rng, monkeypatch):
    """Both branches of `_run_steps`, the linear-domain steps up to a summed
    spread of 700 (input vectors' rows plus each step's weights and log of
    its terms) and the logsumexp steps beyond, equal a direct logsumexp per
    step, -inf entries and all-zero rows included."""
    states = 8
    pairs = []
    for spread in spreads:
        logw = rng.uniform(-spread, 0.0, size=(terms, states))
        logw[rng.random(logw.shape) < 0.25] = LOG_ZERO
        logw.flat[:2] = 0.0, -spread  # every step spreads exactly `spread`
        pairs.append((rng.integers(states, size=(terms, states)).astype(np.int32), logw + 3.0))
    v = rng.uniform(-v_spread, 0.0, size=(4, 2, states))
    v[..., 2:][rng.random((4, 2, states - 2)) < 0.25] = LOG_ZERO
    v[..., 0], v[..., 1] = 0.0, -v_spread
    v[1, 0] = LOG_ZERO
    v += 7.0
    want = v
    for idx, logw in pairs:
        want = logsumexp(np.take(want, idx, axis=-1) + logw, axis=-2)
    steps = [transfer._step(idx, logw) for idx, logw in pairs]
    total = transfer._exp_shifted(v)[2] + sum(step[3] for step in steps)
    assert total == pytest.approx(v_spread + sum(spreads) + len(spreads) * math.log(terms))
    assert (total <= 700) == linear
    # a step over 700 keeps its log-weights, the others weights in [0, 1] with largest 1
    for step, (_, logw), spread in zip(steps, pairs, spreads):
        assert step[1] is logw if spread > 700 else (step[1].max(), step[1].min() >= 0.0) == (1.0, True)
    calls = []
    monkeypatch.setattr(transfer, "logsumexp", lambda *args, **kw: calls.append(1) or logsumexp(*args, **kw))
    got = transfer._run_steps(v, steps)
    _assert_same_log_weights(got, want)
    assert np.isinf(got).any() and np.isfinite(got).any()
    assert (calls == []) == linear


def test_strip_with_energies_of_800_takes_the_log_steps(monkeypatch):
    """Rows alternate 0101... and 1010..., a column turning 0 into 1 costs
    800 and one turning 1 into 0 costs 0. The steps' weights spread 800, so
    they run as logsumexp steps, and every even width m gives exactly
    log lambda = -400 m, which underflowing linear steps would lose."""
    inf = math.inf
    phi = Interaction(Alphabet(2), [[inf, 0], [0, inf]], [[inf, 800], [0, inf]])
    calls = []
    monkeypatch.setattr(transfer, "logsumexp", lambda *args, **kw: calls.append(1) or logsumexp(*args, **kw))
    for m in (2, 4, 6):
        sb = strip_pressure(m, phi)
        assert (sb.log_lambda_lower, sb.log_lambda_upper, sb.iterations) == (-400.0 * m, -400.0 * m, 1)
    assert calls


def test_diag3_sweeps_backward_once_per_tail_and_symbol(monkeypatch):
    """At n = 3 each of diag3's three brackets runs its backward sweep on one
    vector per distinct tail and origin symbol, not on the 55 296 canopy
    members, and runs no forward sweep. S_n is swept by its columns from
    the rightmost one, so the tail is the canopy sites that do not touch
    that column."""
    backward, vectors = RegionEngine._backward, []

    def spy(self, *args):
        out = backward(self, *args)
        vectors.append(len(out))
        return out

    monkeypatch.setattr(RegionEngine, "_backward", spy)
    _forbid_forward_sweeps(monkeypatch)
    n, cb3 = 3, build_checkerboard(3)
    c_n = canopy_decomposition(n)[2]
    deltas = admissible_configurations(c_n, cb3)
    tail = [j for j, (x, y) in enumerate(c_n) if x < n]
    tails = len(np.unique(deltas[:, tail], axis=0))
    est = gk_pressure(diagonal_3coloring_point(), n, cb3)
    assert (est.lower, est.upper) == (0.0, 0.0)
    assert len(deltas) == 55296 and tails == 1152
    assert vectors == [tails * 3] * 3


@pytest.mark.parametrize(
    "phi",
    [
        build_hard_square(1.0),
        build_hard_square(3.0),
        build_checkerboard(3),
        build_ising(0.4),
        # not symmetric, hard and soft entries: a suffix read the wrong way round shows
        Interaction(Alphabet(2), [[0, math.inf], [0, 0.5]], [[0, 1.5], [0, 0]]),
        # steps spread 800, past the 700 rule
        Interaction(Alphabet(2), [[math.inf, 0], [0, math.inf]], [[math.inf, 800], [0, math.inf]]),
    ],
    ids=["hs1", "hs3", "cb3", "ising", "asym", "e800"],
)
def test_steps_match_the_per_stage_reference(phi, rng):
    """The steps built from the prefix and suffix chains sweep exactly as
    those built by enumerating every stage and searching its row codes:
    strips, box rows, and S_n in both orientations, whose rows differ in
    length, so that some columns lie in one row only."""
    pairs = []
    for m in range(1, 8):
        row = transfer._Row(0, [(x, 0) for x in range(m)])
        transfer._enumerate_row(row, phi, transfer.DEFAULT_BUDGET)
        pairs.append((row, row, phi.vertical))
    regions = [Region((x, y) for x in range(5) for y in range(5))]
    for n in (1, 2, 3):
        s_n = canopy_decomposition(n)[0]
        regions += [s_n, Region((y, x) for x, y in s_n)]
    for region in regions:
        engine = RegionEngine(region, phi)
        pairs += [(r, s, phi.vertical.T if r.y - s.y == 1 else None) for r, s in zip(engine.rows, engine.rows[1:])]
    for old, new, table in pairs:
        if not len(old.configs):
            continue
        steps = transfer._transfer_steps(old, new, table, phi, transfer.DEFAULT_BUDGET)
        reference = stage_transfer_steps(old, new, table, phi, transfer.DEFAULT_BUDGET)
        v = rng.normal(scale=5.0, size=(2, 3, len(old.configs)))
        v[rng.random(v.shape) < 0.3] = LOG_ZERO
        got, want = transfer._run_steps(v, steps), transfer._run_steps(v, reference)
        assert np.array_equal(np.isinf(got), np.isinf(want)) and np.array_equal(got, want)


def test_step_indices_are_int32():
    hs = build_hard_square(1.0)
    engine = RegionEngine(canopy_decomposition(4)[0], hs, target=(0, 0))
    assert all(idx.dtype == np.int32 for steps, _ in engine._trans for idx, *_ in steps)


def test_engine_rows_share_the_int64_code_limit(monkeypatch):
    cb2 = build_checkerboard(2)  # two configurations on any connected region
    wide = Region((x, y) for x in range(62) for y in range(2))
    assert log_partition(ConstrainedRegion(wide), cb2) == pytest.approx(math.log(2), abs=1e-12)
    wider = Region((x, y) for x in range(63) for y in range(2))
    with pytest.raises(BudgetError, match="int64"):
        log_partition(ConstrainedRegion(wider), cb2)

    # refused before any row is enumerated
    def enumerate_row(*args):
        raise AssertionError("a row was enumerated")

    monkeypatch.setattr(transfer, "_enumerate_row", enumerate_row)
    with pytest.raises(BudgetError, match="int64"):
        box_log_partition(63, cb2)

    # and the box oracle refuses before it builds its m^2 sites
    def region(*args):
        raise AssertionError("a region was built")

    monkeypatch.setattr(transfer, "Region", region)
    with pytest.raises(BudgetError, match="int64"):
        box_log_partition(63, cb2)


def test_out_of_range_inputs_are_refused():
    hs = build_hard_square(1.0)
    origin = Region([(0, 0)])
    cr = ConstrainedRegion(origin, {}, constant_configuration(boundary(origin), 0))
    with pytest.raises(ValueError, match="outside the region"):
        conditional_sum_check(cr, hs, (5, 5))
    with pytest.raises(ValueError, match="alphabet"):
        conditional_probability({(0, 0): 7}, cr, hs)
    engine = RegionEngine(origin, hs)
    with pytest.raises(ValueError, match="alphabet"):
        engine.terms_from_pins({(0, 0): -1})
