import math

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
from gibbspress.pressure import admissible_configurations, p_interval
from gibbspress.sft import PeriodicPoint
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
from oracles import brute_log_partition, brute_strip_log_lambda

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
    assert logsumexp(np.array([])) == LOG_ZERO
    assert logsumexp(np.array([-np.inf, -np.inf])) == LOG_ZERO
    assert logsumexp(np.array([0.0, 0.0])) == pytest.approx(math.log(2))
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
    # from width 17 on a transition's matrix is over the default budget
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
    # 2^14 canopy configurations at n = 3, 1360 of them admissible
    zeros = PeriodicPoint([[0]])
    hs = build_hard_square(1.0)
    got = p_interval(zeros, (0, 0), 3, hs, budget=2000)
    assert got == p_interval(zeros, (0, 0), 3, hs)
    assert got.canopy_count + got.skipped_count == 1360


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
    symbols as a one-member ensemble, exactly."""

    def check(engine, symbols):
        sites = list(symbols)
        one = engine.evaluate(engine.terms_from_boundary(Configuration(Region(sites), symbols)))
        ens = engine.evaluate_deltas([], sites, [[symbols[v] for v in sites]])
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
        engine = RegionEngine(region, phi, allowed=allowed, target=target)
        ring = [v for v in boundary(region) if rng.random() < 0.7]
        check(engine, {v: int(rng.integers(q)) for v in ring})

    hs = build_hard_square(1.0)
    row = Region([(0, 0), (1, 0)])
    for target in (None, (0, 0)):
        infeasible = RegionEngine(row, hs, allowed={(0, 0): (1,), (1, 0): (1,)}, target=target)
        assert infeasible.infeasible
        assert np.all(check(infeasible, {(0, 1): 0, (2, 0): 1}) == LOG_ZERO)
    assert check(RegionEngine(Region([]), hs), {(0, 0): 1}) == 0.0


def test_transfer_steps_and_matrices_agree(rng):
    """A transition run as site-by-site steps (its matrix over the budget)
    agrees with the same transition run as a matrix."""
    hs = build_hard_square(1.0)
    # 377 states per row: 377^2 entries are over a budget of 100000
    assert box_log_partition(12, hs, budget=100_000) == pytest.approx(box_log_partition(12, hs), abs=1e-12)

    s_3, u_3, c_3 = canopy_decomposition(3)
    deltas = admissible_configurations(c_3, hs)
    upper = PeriodicPoint([[0]]).restrict(u_3)
    got = []
    for budget in (1000, 1 << 24):  # 34 states in the widest row
        engine = RegionEngine(s_3, hs, target=(0, 0), budget=budget)
        got.append(engine.evaluate_deltas([engine.terms_from_boundary(upper)], list(c_3), deltas))
    np.testing.assert_allclose(got[0], got[1], rtol=0, atol=1e-12)

    # rows of at most 3 columns; a budget of q^3 holds every state but sends
    # the larger transitions through their steps
    regions = [r for r in SMALL_REGIONS if len({x for x, _ in r}) <= 3]
    for trial in range(30):
        q = int(rng.integers(2, 4))
        phi = random_interaction(q, rng)
        region = regions[int(rng.integers(len(regions)))]
        allowed = {
            v: tuple(sorted(rng.choice(q, size=int(rng.integers(1, q + 1)), replace=False).tolist(), reverse=True))
            for v in region
            if rng.random() < 0.5
        }
        ring = [v for v in boundary(region) if rng.random() < 0.6]
        bcfg = Configuration(Region(ring), {v: int(rng.integers(q)) for v in ring})
        cr = ConstrainedRegion(region, allowed, bcfg)
        want = brute_log_partition(cr, phi)
        for budget in (q**3, 1 << 24):
            assert log_partition(cr, phi, budget=budget) == pytest.approx(want, abs=1e-10)
        target = min(region, key=lambda v: (v[1], v[0]))
        small, large = (RegionEngine(region, phi, allowed=allowed, target=target, budget=b) for b in (q**3, 1 << 24))
        np.testing.assert_allclose(
            small.evaluate(small.terms_from_boundary(bcfg)),
            large.evaluate(large.terms_from_boundary(bcfg)),
            rtol=1e-12,
            atol=0,
        )


def test_engine_rows_share_the_int64_code_limit():
    cb2 = build_checkerboard(2)  # two configurations on any connected region
    wide = Region((x, y) for x in range(62) for y in range(2))
    assert log_partition(ConstrainedRegion(wide), cb2) == pytest.approx(math.log(2), abs=1e-12)
    wider = Region((x, y) for x in range(63) for y in range(2))
    with pytest.raises(BudgetError, match="int64"):
        log_partition(ConstrainedRegion(wider), cb2)


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
