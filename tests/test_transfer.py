import math
import tracemalloc

import numpy as np
import pytest

from gibbspress.errors import BudgetError, HypothesisError
from gibbspress.interaction import (
    EMPTY_CONFIGURATION,
    Alphabet,
    Configuration,
    Interaction,
    build_checkerboard,
    build_full_shift,
    build_hard_square,
    build_ising,
)
from gibbspress.lattice import Region, boundary, box, canopy_decomposition
from gibbspress.pressure import _canopy_extremes, _Canopy, admissible_configurations, gk_pressure, p_interval
import gibbspress.transfer as transfer
from gibbspress.sft import PeriodicPoint, diagonal_3coloring_point, monotone_check, orbit_sites, periodic_point_from_ssf
from gibbspress.transfer import (
    LOG_ZERO,
    ConstrainedRegion,
    RegionEngine,
    SplitEnsemble,
    box_log_partition,
    conditional_probability,
    conditional_sum_check,
    log_partition,
    logsumexp,
    strip_pressure,
    strip_sequence,
)

from conftest import constant_configuration, model_gallery, random_interaction, random_locally_admissible
from oracles import (
    brute_log_partition,
    brute_origin_interval,
    brute_strip_log_lambda,
    dense_sweep,
    member_rows,
    split_ensemble,
    stage_transfer_steps,
)

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


# a non-symmetric q = 4 table whose strips converge slowly under plain power
# iteration: 596 applications at width 8
_RAND4 = Interaction(
    Alphabet(4),
    [[1.6, -0.64, 1.55, 1.6], [-1.46, -1.0, 1.08, -1.15], [-0.51, 0.21, 0.31, 0.9], [0.19, 1.76, -1.19, 0.89]],
    [[-0.11, -1.05, 1.63, -0.63], [0.51, 1.41, 0.57, -1.85], [0.39, 1.58, 1.89, 0.29], [-1.29, 1.65, -0.44, -0.98]],
    name="rand4",
)
# forbids a 0 left of a 1, so its rows read left to right and right to
# left are different sets
_ASYM = Interaction(Alphabet(2), [[0, math.inf], [0, 0.5]], [[0, 1.5], [0, 0]], name="asym")


def _spy_restarts(monkeypatch) -> list[bool]:
    """Whether each restart of `strip_pressure` got a Ritz vector. Every
    restart's iterates and images share one support."""
    outcomes, ritz = [], transfer._ritz

    def spy(pairs):
        support = pairs[0][0] > 0
        assert all(np.array_equal(v > 0, support) for pair in pairs for v in pair)
        out = ritz(pairs)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(transfer, "_ritz", spy)
    return outcomes


def test_strip_matches_dense_eigenvalue(rng, monkeypatch):
    """The strip bracket contains log lambda_max of the q^m x q^m row
    transfer matrix, at widths 1-8 up to 3^8 rows (the q = 4 table up to
    width 6). From width 5 on, most strips run restarts, and most of those
    get a Ritz vector."""
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
    # from width 6 on, the iterate's spread soon joins the steps' and the
    # row weights' past 700, and it turns to log-weights mid-iteration
    stiff = Interaction(Alphabet(2), [[0, 30], [30, 0]], [[0, 60], [60, 0]], name="stiff")
    randoms = [random_interaction(q, rng) for q in (2, 2, 3, 3)]
    outcomes = _spy_restarts(monkeypatch)
    restarted = []
    for phi in model_gallery() + randoms + [orphan, dead_end, build_ising(0.4), _RAND4, _ASYM, stiff]:
        for m in range(1, 9):
            if phi.q**m > 3**8:
                continue
            want = brute_strip_log_lambda(m, phi)
            outcomes.clear()
            sb = strip_pressure(m, phi)
            if m >= 5:
                restarted.append(any(outcomes))
            if want == LOG_ZERO:
                assert sb.log_lambda_lower == sb.log_lambda_upper == LOG_ZERO, (phi.name, m)
                continue
            assert sb.log_lambda_lower - 1e-12 <= want <= sb.log_lambda_upper + 1e-12, (phi.name, m)
            assert sb.log_lambda_upper - sb.log_lambda_lower < 1e-9, (phi.name, m)
    assert sum(restarted) > len(restarted) / 2


def test_strip_restarts_halve_the_power_steps(monkeypatch):
    """Restarts cut the 3-colouring at width 11 from 42 applications to at
    most 25, the hard square at width 12 from 26 to at most 20, the q = 4
    table at width 7 from 429 to at most 150 and Ising beta = 0.4 at widths
    7-9 from 23-27 to at most 20. With every restart declined, the
    iteration is plain power iteration."""
    cb3, hs = build_checkerboard(3), build_hard_square(1.0)
    assert strip_pressure(11, cb3).iterations <= 25
    assert strip_pressure(12, hs).iterations <= 20
    assert strip_pressure(7, _RAND4).iterations <= 150
    assert all(strip_pressure(m, build_ising(0.4)).iterations <= 20 for m in (7, 8, 9))
    monkeypatch.setattr(transfer, "_ritz", lambda pairs: None)
    assert strip_pressure(11, cb3).iterations == 42
    assert strip_pressure(12, hs).iterations == 26


def test_a_poor_restart_costs_one_application(monkeypatch):
    """A restart whose vector does not narrow the bracket is undone: the
    iteration goes on from the power iterate it replaced, and restarts
    again. So every restart failing gives the plain power iteration's
    bracket, one application later per restart tried."""
    models = [(build_checkerboard(3), 11), (build_hard_square(1.0), 12), (build_ising(0.4), 10)]
    monkeypatch.setattr(transfer, "_ritz", lambda pairs: None)
    plain = [strip_pressure(m, phi) for phi, m in models]
    noise = np.random.default_rng(5)
    tried = []

    def poor(pairs):  # positive on the iterates' support, log-weights spread over 30
        x = pairs[-1][0]
        tried.append(1)
        return np.where(x > 0, np.exp(-30.0 * noise.random(len(x))), 0.0)

    monkeypatch.setattr(transfer, "_ritz", poor)
    for (phi, m), want in zip(models, plain):
        tried.clear()
        sb = strip_pressure(m, phi)
        assert len(tried) > 1, phi.name
        assert (sb.log_lambda_upper - sb.log_lambda_lower) / m < 1e-10
        assert (sb.log_lambda_lower, sb.log_lambda_upper) == (want.log_lambda_lower, want.log_lambda_upper)
        assert sb.iterations == want.iterations + len(tried)


def test_ritz_declines_a_collapsed_span_and_a_vector_that_is_not_positive():
    def pairs(a, xs):
        return [(x, a @ x) for x in xs]

    # three iterates of a 2-state operator span two dimensions; two give
    # its Perron vector (lambda - 1, 1), lambda = (3 + 5^(1/2)) / 2
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    xs = [np.ones(2)]
    for _ in range(2):
        xs.append(a @ xs[-1])
    perron = np.array([(1 + math.sqrt(5)) / 2, 1.0]) / ((1 + math.sqrt(5)) / 2)
    np.testing.assert_allclose(transfer._ritz(pairs(a, xs[:2])), perron, rtol=0, atol=1e-12)
    assert transfer._ritz(pairs(a, xs)) is None
    # the support is kept
    padded = [(np.append(x, 0.0), np.append(y, 0.0)) for x, y in pairs(a, xs[:2])]
    np.testing.assert_allclose(transfer._ritz(padded), np.append(perron, 0.0), rtol=0, atol=1e-12)
    # [[3, -1], [-1, 3]] maps (1, 1) and (1, 1/2) to positive vectors, but
    # its dominant eigenvector is (1, -1)
    b = np.array([[3.0, -1.0], [-1.0, 3.0]])
    assert transfer._ritz(pairs(b, [np.ones(2), np.array([1.0, 0.5])])) is None


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


def test_strip_sequence_enumerates_once_to_the_same_brackets(monkeypatch):
    """`strip_sequence` enumerates the widest row once in each direction,
    and every width's bracket equals a lone `strip_pressure` call exactly:
    on the gallery, the q = 4 table and a table that is not symmetric."""
    levels = transfer.admissible_levels
    for phi in model_gallery() + [_RAND4, _ASYM]:
        widths = [m for m in range(1, 9) if phi.q**m <= 3**8]
        want = [strip_pressure(m, phi) for m in widths]
        runs = []
        with monkeypatch.context() as patch:
            patch.setattr(transfer, "admissible_levels", lambda sites, *args: runs.append(len(sites)) or levels(sites, *args))
            got = [point.bounds for point in strip_sequence(phi, widths)]
        assert got == want, phi.name
        assert runs == [widths[-1]] * 2, phi.name


def test_strip_sequence_refuses_a_width_in_its_own_terms():
    """The shared run covers 8 sites, but the 5-colouring is refused at
    width 7, the first width it cannot hold, as that width's own run is."""
    with pytest.raises(BudgetError) as refusal:
        strip_sequence(build_checkerboard(5), [8], budget=10000)
    assert str(refusal.value) == (
        "strip of width 7: transfer states of row y=0: needs 25600 states at site 7 of 7, over the limit 10000"
    )


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
    # the 3-colouring sweeps its ensemble at the parity point, whose origin
    # is not forced: 3^10 canopy configurations at n = 2, 3456 of them
    # admissible; one enumeration over the canopy holds at most 1728 states
    # before a site, so it needs a budget of 3 * 1728
    cb3, parity = build_checkerboard(3), PeriodicPoint([[0, 1], [1, 0]])
    with pytest.raises(BudgetError, match="canopy ensemble: needs 5184 states"):
        p_interval(parity, (0, 0), 2, cb3, budget=5000)
    got = p_interval(parity, (0, 0), 2, cb3, budget=6000)
    assert got == p_interval(parity, (0, 0), 2, cb3)
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
    zvec = engine.evaluate(Configuration(Region([]), {}))
    for a in range(3):
        pinned = log_partition(ConstrainedRegion(region, {(0, 0): (a,)}), phi)
        assert zvec[a] == pytest.approx(pinned, abs=1e-12)


def test_evaluate_is_a_one_member_ensemble(rng):
    """evaluate on a boundary configuration equals evaluate_deltas on the
    same symbols as a one-member ensemble, exactly, also with pinned sites."""

    def check(engine, symbols, pins=None):
        sites = list(symbols)
        one = engine.evaluate(Configuration(Region(sites), symbols), pins or {})
        ens = engine.evaluate_deltas(EMPTY_CONFIGURATION, sites, [[symbols[v] for v in sites]], pins or {})
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
        bcfg = Configuration(ring, {v: (v[0] + v[1]) % 2 for v in ring})
        pins = {(1, 0): tuple(range(phi.q - 1, -1, -1)), (0, 1): 1}
        both = engine.evaluate(bcfg, pins)
        singles = [engine.evaluate(bcfg, {**pins, (1, 0): a}) for a in pins[(1, 0)]]
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
    """Forward sweeps run the steps and build no log-weight matrix; every
    split ensemble meets in the middle and builds its transitions'
    log-weights, and both arithmetics agree."""
    taken = _spy_combine(monkeypatch)
    hs = build_hard_square(1.0)
    box12 = box_log_partition(12, hs)
    engine = RegionEngine(Region((x, y) for x in range(12) for y in range(12)), hs)
    assert engine.evaluate() == pytest.approx(144 * box12, abs=1e-12)
    assert taken == [] and all(logw is None for _, logw in engine._trans)
    # 377 equal members and 377 states per row: the combine builds the one
    # matrix the 11 equal row pairs share
    many = engine.evaluate_deltas(EMPTY_CONFIGURATION, *split_ensemble(engine, [], np.zeros((377, 0), dtype=np.int64)))
    built = {id(logw): logw for _, logw in engine._trans}
    assert taken == [True] and [logw.shape for logw in built.values()] == [(377, 377)]
    np.testing.assert_allclose(many, 144 * box12, rtol=1e-12, atol=0)

    s_3, u_3, c_3 = canopy_decomposition(3)
    deltas = admissible_configurations(c_3, hs)
    assert len(deltas) == 1360
    upper = PeriodicPoint([[0]]).restrict(u_3)
    ensemble, single = (RegionEngine(s_3, hs, target=(0, 0)) for _ in range(2))
    assert max(len(row.configs) for row in ensemble.rows) == 34
    got = ensemble.evaluate_deltas(upper, *split_ensemble(ensemble, list(c_3), deltas))
    assert all(logw is not None for _, logw in ensemble._trans)
    ones = np.concatenate([single.evaluate_deltas(upper, list(c_3), d[None]) for d in deltas])
    assert all(logw is None for _, logw in single._trans)
    np.testing.assert_allclose(got, ones, rtol=0, atol=1e-12)

    # every random split ensemble is combined, and only its engine builds
    # log-weights
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
        members = max(len(row.configs) for row in ensemble.rows)
        deltas = rng.integers(q, size=(members, len(ring)))
        taken.clear()
        got = ensemble.evaluate_deltas(EMPTY_CONFIGURATION, *split_ensemble(ensemble, ring, deltas), allowed)
        assert taken == [True] and all(logw is not None for _, logw in ensemble._trans)
        for d, row in zip(deltas, got):
            bcfg = Configuration(Region(ring), dict(zip(ring, d.tolist())))
            one = single.evaluate(bcfg, allowed)
            np.testing.assert_allclose(row, one, rtol=1e-12, atol=1e-12)
            want = brute_log_partition(ConstrainedRegion(region, allowed, bcfg), phi)
            assert logsumexp(np.atleast_1d(one), axis=0) == pytest.approx(want, abs=1e-10)
        assert all(logw is None for _, logw in single._trans)  # also for one-state rows

    # the box oracle, the extremes path and evaluate do not combine, so they
    # build no log-weights either
    taken.clear()
    assert 0.4074 < box_log_partition(14, hs) < box12  # decreasing toward log kappa = 0.40749...
    for n in range(1, 6):
        assert p_interval(PeriodicPoint([[0]]), (0, 0), n, hs).canopy_path == "extremes"
    assert math.isfinite(engine.evaluate(EMPTY_CONFIGURATION, {(5, 5): 1}))
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
    # members repeat their head and their tail, which the combine shares
    head = [j for j, v in enumerate(ring) if v[1] >= 2]
    members = np.empty((24, len(ring)), dtype=np.int64)
    for part, pool in ((head, 3), ([j for j in range(len(ring)) if j not in head], 4)):
        members[:, part] = rng.integers(q, size=(pool, len(part)))[rng.integers(pool, size=24)]
    bcfgs = [Configuration(Region(ring), dict(zip(ring, d.tolist()))) for d in members]
    want = np.array([
        [brute_log_partition(ConstrainedRegion(region, {target: (a,)}, bcfg), phi) for a in range(q)] for bcfg in bcfgs
    ])
    assert np.isinf(want).any() and np.isfinite(want).any()
    combined = engine.evaluate_deltas(EMPTY_CONFIGURATION, *split_ensemble(engine, ring, members))
    forward = engine.evaluate_deltas(EMPTY_CONFIGURATION, ring, members)  # a member matrix runs the steps
    assert taken == [True]
    for got in (combined, forward):
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
    engine = canopy.engine
    upper = {(y, x): a for (x, y), a in shifted.restrict(canopy.u_n).symbols.items()}
    bcfg = Configuration(Region(upper), upper)
    extremes = _canopy_extremes(canopy.sites, monotone_check(hs, target=a0), hs)
    sites = [(y, x) for x, y in canopy.sites]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        zvec = engine.evaluate_deltas(bcfg, sites, extremes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(zvec).all()
    assert peak - start < 8 * len(extremes) * sum(len(row.configs) for row in engine.rows)


def test_boundary_rows_are_gathered_as_the_sweep_reaches_them(monkeypatch):
    """The engine forms a boundary's per-row vectors only as the forward
    sweep reaches their rows: on a box with its whole ring pinned, when the
    steps into row i run, the boundary has yielded no row past i."""
    hs = build_hard_square(1.0)
    region = Region((x, y) for x in range(4) for y in range(5))
    ring = boundary(region)
    cfg = Configuration(ring, {v: (v[0] + v[1]) % 2 for v in ring})
    engine = RegionEngine(region, hs)
    yielded, reached = [], []
    exterior, run_steps = RegionEngine._exterior, transfer._run_steps

    def spy_exterior(self, sites, symbols):
        for i, vec in enumerate(exterior(self, sites, symbols)):
            if len(sites):  # the boundary's rows, not the empty ensemble's
                yielded.append(i)
            yield vec

    def spy_steps(v, steps):
        reached.append(max(yielded))
        return run_steps(v, steps)

    monkeypatch.setattr(RegionEngine, "_exterior", spy_exterior)
    monkeypatch.setattr(transfer, "_run_steps", spy_steps)
    value = engine.evaluate(cfg)
    assert yielded == list(range(len(engine.rows)))
    assert len(reached) == len(engine.rows) - 1
    assert all(last <= i for i, last in enumerate(reached, 1))
    monkeypatch.undo()
    assert value == log_partition(ConstrainedRegion(region, {}, cfg), hs)


def test_small_sweep_ignores_a_matrix_an_earlier_sweep_built():
    """A forward sweep runs the steps also after a combine built the shared
    engine's matrices, so a small sweep on a shared engine equals, bit for
    bit, the same sweep on a fresh one."""
    hs = build_hard_square(1.0)
    s_3, u_3, c_3 = canopy_decomposition(3)
    deltas = admissible_configurations(c_3, hs)
    shared, fresh = (RegionEngine(s_3, hs, target=(0, 0)) for _ in range(2))
    upper = PeriodicPoint([[0]]).restrict(u_3)
    shared.evaluate_deltas(upper, *split_ensemble(shared, list(c_3), deltas))
    assert all(logw is not None for _, logw in shared._trans)
    few = deltas[[0, -1]]
    got = shared.evaluate_deltas(upper, list(c_3), few)
    assert np.array_equal(got, fresh.evaluate_deltas(upper, list(c_3), few))
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
    zeros included, for split ensembles over head and tail sites, head
    sites only and tail sites only. Members repeat their head (or tail),
    which the combine shares."""
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
    upper, pins = EMPTY_CONFIGURATION, {}
    if pinned:
        upper = Region(v for v in u_1 if v != corner)
        upper = Configuration(upper, {v: int(a) for v, a in zip(upper, rng.integers(q, size=len(upper)))})
        pins = {(1, 1): (0, 1), (-1, 1): 1}
    head = [v for v in c_1 if v[1] >= 1]  # the canopy's top row and the side sites beside row y = 1
    tail = [v for v in c_1 if v not in head] + [corner]
    pool = rng.integers(q, size=(6, len(head)))
    members = np.column_stack([pool[rng.integers(6, size=60)], rng.integers(q, size=(60, len(tail)))])
    outs = []
    for sites, cols in ((head + tail, slice(None)), (head, slice(0, len(head))), (tail, slice(len(head), None))):
        got = engine.evaluate_deltas(upper, *split_ensemble(engine, sites, members[:, cols]), pins)
        outs.append(got.ravel())
        want = np.array([
            engine.evaluate(Configuration(Region([*upper.symbols, *sites]), {
                **upper.symbols, **{v: int(a) for v, a in zip(sites, row)}
            }), pins)
            for row in members[:, cols]
        ])
        assert np.array_equal(np.isinf(got), np.isinf(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert taken == [True] * 3
    assert np.isinf(np.concatenate(outs)).any() and np.isfinite(np.concatenate(outs)).any()


@pytest.mark.parametrize("soft", [False, True], ids=["gemm", "logsumexp"])
def test_combine_skips_dead_rows_and_empty_live_sets(soft, monkeypatch):
    """A member whose backward vector is all -inf joins nothing. The
    3-colouring's canopy ensemble at n = 1 has members with every target
    symbol live, with none and with some: the combine equals one forward
    `evaluate` per member. With the lowest row pinned infeasible no row is
    live at any transition or join, and every member gives -inf. Vertical
    energies 0 and 400 spread each transition past 700, so the products
    take the logsumexp branch, which cannot run on an empty set."""
    taken = _spy_combine(monkeypatch)
    calls = []
    monkeypatch.setattr(transfer, "logsumexp", lambda *args, **kw: calls.append(1) or logsumexp(*args, **kw))
    vertical = [[np.inf, 0, 400], [400, np.inf, 0], [0, 400, np.inf]] if soft else _HARD
    phi = Interaction(Alphabet(3), _HARD, vertical)
    s_1, _, c_1 = canopy_decomposition(1)
    engine = RegionEngine(s_1, phi, target=(0, 0))
    sites, members = list(c_1), admissible_configurations(c_1, phi)
    got = engine.evaluate_deltas(EMPTY_CONFIGURATION, *split_ensemble(engine, sites, members))
    assert (calls != []) == soft
    calls.clear()
    lowest = engine.rows[-1].sites
    dead = {lowest[0]: 0, lowest[1]: 0}  # two neighbours of one colour
    none = engine.evaluate_deltas(EMPTY_CONFIGURATION, *split_ensemble(engine, sites, members), dead)
    assert taken == [True, True] and np.isneginf(none).all() and calls == []
    live = np.isfinite(got)
    assert [int(x.sum()) for x in (live.all(1), ~live.any(1), live.any(1) & ~live.all(1))] == [48, 12, 156]
    want = np.array([
        engine.evaluate(Configuration(Region(sites), dict(zip(sites, row.tolist()))))
        for row in members
    ])
    _assert_same_log_weights(got, want)


@pytest.mark.parametrize("soft", [False, True], ids=["gemm", "logsumexp"])
def test_combine_gives_dead_heads_minus_inf(soft, rng, monkeypatch):
    """A head that no top-row state admits joins nothing. On a 2 x 2 box
    under a 3-colouring, a head that colours the exterior neighbours of
    each top-row site 0 and 1 leaves both sites colour 2, which they cannot
    share: that head's vector is all -inf. Every member equals one forward
    `evaluate`, and those with a dead head give -inf for every target
    symbol. Vertical energies 0 and 400 take the logsumexp branch."""
    taken = _spy_combine(monkeypatch)
    calls = []
    monkeypatch.setattr(transfer, "logsumexp", lambda *args, **kw: calls.append(1) or logsumexp(*args, **kw))
    vertical = [[np.inf, 0, 400], [400, np.inf, 0], [0, 400, np.inf]] if soft else _HARD
    phi = Interaction(Alphabet(3), _HARD, vertical)
    region = Region([(0, 0), (1, 0), (0, 1), (1, 1)])
    engine = RegionEngine(region, phi, target=(0, 0))
    sites = sorted(boundary(region))
    heads = np.array(list(np.ndindex(*[3] * 4)))
    members = np.zeros((len(heads), len(sites)), dtype=int)
    head_cols = [j for j, v in enumerate(sites) if engine.is_head(v)]
    tail_cols = [j for j in range(len(sites)) if j not in head_cols]
    members[:, head_cols] = heads
    members[:, tail_cols] = rng.integers(3, size=(len(heads), len(tail_cols)))
    split_sites, ensemble = split_ensemble(engine, sites, members)
    head_vecs = next(engine._exterior(split_sites[: len(head_cols)], ensemble.heads))
    dead = ~np.isfinite(head_vecs).any(-1)
    assert 0 < dead.sum() < len(dead)
    got = engine.evaluate_deltas(EMPTY_CONFIGURATION, split_sites, ensemble)
    assert taken == [True] and (calls != []) == soft
    assert np.isneginf(got[dead[ensemble.head_of]]).all() and np.isfinite(got).any()
    want = np.array([
        engine.evaluate(Configuration(Region(sites), dict(zip(sites, row.tolist()))))
        for row in members
    ])
    _assert_same_log_weights(got, want)


@pytest.mark.parametrize("n, counts", [(2, ((681, 2775), (1681, 1775))), (3, ((6974, 48322), (25553, 29743)))])
def test_diag3_brackets_keep_their_skipped_counts(n, counts):
    """Live-row compaction drops no member that counts: every bracket
    brackets and skips as many canopy members as before it. The upper layer
    forces diag3's origins, so the estimate evaluates nothing and its
    brackets are swept here by `_Canopy.bracket`; the parity point, whose
    origins the third colour leaves free, sweeps the same canopy through
    p_interval."""
    cb3 = build_checkerboard(3)
    assert {(p.canopy_count, p.skipped_count, p.lower, p.upper) for p in _diag3_brackets(cb3, n)} == {(*counts[0], 1.0, 1.0)}
    est = gk_pressure(diagonal_3coloring_point(), n, cb3)
    assert (est.lower, est.upper, est.canopy_count, est.skipped_count) == (0.0, 0.0, 0, 0)
    assert {(p.canopy_count, p.skipped_count, p.lower, p.upper) for p in _parity_brackets(cb3, n)} == {(*counts[1], 0.0, 1.0)}


def test_one_split_per_canopy_ensemble(monkeypatch):
    """diag3's three distinct brackets at n = 2, each computed by
    `_Canopy.bracket` of one canopy state, pass one canopy ensemble, already
    split into heads and tails, to one engine, which combines it as it is:
    no member is coded or sorted (`np.unique` never runs), and no member row
    can be built: a split ensemble has no indexing (the tests'
    `member_rows` builds them)."""
    unique = []
    np_unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kw: unique.append(1) or np_unique(*args, **kw))
    calls, _, _ = _spy_ensembles(monkeypatch)
    _diag3_brackets(build_checkerboard(3), 2)
    ensembles = [(engine, args, out) for engine, args, out in calls if len(out) > 1]
    assert len(ensembles) == 3 and len({id(engine) for engine, _, _ in ensembles}) == 1
    members = ensembles[0][1][2]
    assert isinstance(members, SplitEnsemble) and all(args[2] is members for _, args, _ in ensembles)
    assert (len(members.heads), len(members.tails), len(members)) == (36, 144, 3456)
    assert unique == [] and not hasattr(SplitEnsemble, "__getitem__")


@pytest.mark.parametrize("k", [3, 4])
def test_combine_matches_brute_origin_interval(k, monkeypatch):
    """At n = 1 the combined ensemble brackets the 3- and 4-colourings'
    origin conditional at the parity point, which neither forces, as direct
    enumeration does, and skips the members that a forward sweep of its
    member rows skips."""
    taken = _spy_combine(monkeypatch)
    phi = build_checkerboard(k)
    point = PeriodicPoint([[0, 1], [1, 0]])
    canopy = _Canopy(1, phi)
    pi = p_interval(point, (0, 0), 1, phi, canopy=canopy)
    assert taken == [True] and pi.canopy_path == "ensemble"
    s_1, u_1, c_1 = canopy.s_n, canopy.u_n, canopy.c_n
    lo, hi = brute_origin_interval(s_1, point.restrict(u_1), c_1, admissible_configurations(c_1, phi), phi, point.value((0, 0)))
    assert (pi.lower, pi.upper) == (pytest.approx(lo, abs=1e-12), pytest.approx(hi, abs=1e-12))
    engine, (sites, ensemble) = canopy.engine, canopy.deltas
    upper = {(y, x): a for (x, y), a in point.restrict(u_1).symbols.items()}
    bcfg = Configuration(Region(upper), upper)
    forward = engine.evaluate_deltas(bcfg, [(y, x) for x, y in sites], member_rows(ensemble))
    assert taken == [True]
    live = np.isfinite(forward).any(axis=1)
    assert (pi.canopy_count, pi.skipped_count) == (live.sum(), (~live).sum())
    assert pi.skipped_count > 0 if k == 3 else pi.skipped_count == 0


@pytest.mark.parametrize("n", [1, 3])
def test_every_split_ensemble_meets_in_the_middle(n, monkeypatch):
    """The hard-square canopy ensemble, split into heads and tails, meets in
    the middle at n = 1 (30 members, rows of 5 and 3 states) as at n = 3
    (1360 members): it builds its transitions' log-weights and equals the
    forward sweep of the same members."""
    taken = _spy_combine(monkeypatch)
    hs = build_hard_square(1.0)
    s_n, u_n, c_n = canopy_decomposition(n)
    engine = RegionEngine(s_n, hs, target=(0, 0))
    upper = PeriodicPoint([[0]]).restrict(u_n)
    deltas = admissible_configurations(c_n, hs)
    got = engine.evaluate_deltas(upper, *split_ensemble(engine, list(c_n), deltas))
    assert taken == [True] and all(logw is not None for _, logw in engine._trans)
    np.testing.assert_allclose(got, engine.evaluate_deltas(upper, list(c_n), deltas), rtol=1e-12)


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
    got = engine.evaluate_deltas(EMPTY_CONFIGURATION, *split_ensemble(engine, list(c_1), deltas))
    assert taken == [True] and all(logw is not None for _, logw in engine._trans)
    monkeypatch.setattr(RegionEngine, "_sweep", sweep)
    _assert_same_log_weights(got, engine.evaluate_deltas(EMPTY_CONFIGURATION, list(c_1), deltas))


_SOFT = [[np.inf, 0, 300], [300, np.inf, 0], [0, 300, np.inf]]  # 3-colouring energies 0 and 300
_HARD = [[np.inf, 0, 0], [0, np.inf, 0], [0, 0, np.inf]]


def _spy_ensembles(monkeypatch):
    """Record (engine, args, out) per `evaluate_deltas` call, with forward
    sweeps forbidden; returns the record and the real `evaluate_deltas` and
    `_sweep`."""
    calls = []
    evaluate_deltas = RegionEngine.evaluate_deltas

    def spy(self, *args):
        out = evaluate_deltas(self, *args)
        calls.append((self, args, out))
        return out

    monkeypatch.setattr(RegionEngine, "evaluate_deltas", spy)
    return calls, evaluate_deltas, _forbid_forward_sweeps(monkeypatch)


def _diag3_brackets(phi, n):
    """The brackets of diag3's shifts with origin symbols 0, 1 and 2, each
    computed by `_Canopy.bracket` of one canopy state, so that none is
    shared with another."""
    z, canopy = diagonal_3coloring_point(), _Canopy(n, phi)
    return [canopy.bracket(z.shift(v).restrict(canopy.u_n).symbols, z.value(v)) for v in ((0, 0), (1, 0), (2, 0))]


def _parity_brackets(phi, n):
    """The p_interval brackets of the parity point's orbit sites, sharing
    one canopy state as `gk_pressure` does; under a 3-colouring the
    estimate itself stops at a lower bound of 0 ("positivity violated")."""
    z, canopy = PeriodicPoint([[0, 1], [1, 0]]), _Canopy(n, phi)
    return [p_interval(z, v, n, phi, canopy=canopy) for v in orbit_sites(z)]


def _parity_ensembles(phi, n, monkeypatch):
    """(`_parity_brackets`, [(engine, args, out)] per ensemble
    `evaluate_deltas` call) with forward sweeps forbidden; returns the real
    `evaluate_deltas` and `_sweep` too."""
    calls, evaluate_deltas, sweep = _spy_ensembles(monkeypatch)
    brackets = _parity_brackets(phi, n)
    ensembles = [(engine, args, out) for engine, args, out in calls if len(out) > 1]
    assert ensembles
    return brackets, ensembles, evaluate_deltas, sweep


def _assert_diag3_forced(phi, interval):
    """diag3's estimate at n = 2 is exactly `interval`, on the forced path at
    every site; its brackets swept by `_Canopy.bracket`, with forward sweeps
    still forbidden, are exactly [1, 1]."""
    est = gk_pressure(diagonal_3coloring_point(), 2, phi)
    assert (est.lower, est.upper) == interval
    assert {(t.p.lower, t.p.upper, t.p.canopy_path) for t in est.per_site} == {(1.0, 1.0, "forced")}
    assert [(p.lower, p.upper, p.canopy_path) for p in _diag3_brackets(phi, 2)] == [(1.0, 1.0, "ensemble")] * 3


def test_soft_3_colouring_combines_in_the_log_domain(monkeypatch):
    """A 3-colouring with horizontal energies 0 and 300 spreads the parity
    point's head and backward vectors past 700 at n = 2: its brackets still
    combine, to exactly [0, 1], with no forward sweep, and each ensemble
    equals the forward steps. diag3's origins are forced: its estimate is
    exactly [0, 0], and its brackets swept on their own are exactly [1, 1]."""
    soft3 = Interaction(Alphabet(3), _SOFT, _HARD)
    brackets, ensembles, evaluate_deltas, sweep = _parity_ensembles(soft3, 2, monkeypatch)
    assert {(p.lower, p.upper, p.canopy_path) for p in brackets} == {(0.0, 1.0, "ensemble")}
    _assert_diag3_forced(soft3, (0.0, 0.0))
    # members listed twice, in both orders, take their own pairs of the one join
    engine, (upper, sites, members), out = ensembles[0]
    twice = [np.concatenate([a, a[::-1]]) for a in (members.head_of, members.tail_of)]
    both = evaluate_deltas(engine, upper, sites, SplitEnsemble(members.heads, members.tails, *twice))
    assert len(members) == 3456 and np.array_equal(both, np.concatenate([out, out[::-1]]))
    monkeypatch.setattr(RegionEngine, "_sweep", sweep)
    for engine, (upper, sites, members), out in ensembles:  # member rows run the forward steps
        _assert_same_log_weights(out, evaluate_deltas(engine, upper, sites, member_rows(members)))


@pytest.mark.parametrize("soft", ["vertical", "horizontal"])
def test_soft_3_colouring_sweeps_backward_in_the_log_domain(soft, monkeypatch):
    """With the energies 0 and 300 on either table, the parity point's
    brackets at n = 2 combine, to exactly [0, 1], with no forward sweep,
    and each ensemble equals the forward steps. The engine sweeps S_n by
    its columns, so S_n's horizontal table lands on its transitions: their
    own log-weights then spread past 700, and the backward sweeps take the
    logsumexp branch. diag3's origins are forced: its estimate is exactly
    [-300, -300] on the vertical table and [0, 0] on the horizontal one, and
    its brackets swept on their own are exactly [1, 1]."""
    soft3 = Interaction(Alphabet(3), _HARD, _SOFT) if soft == "vertical" else Interaction(Alphabet(3), _SOFT, _HARD)
    brackets, ensembles, evaluate_deltas, sweep = _parity_ensembles(soft3, 2, monkeypatch)
    assert {(p.lower, p.upper, p.canopy_path) for p in brackets} == {(0.0, 1.0, "ensemble")}
    _assert_diag3_forced(soft3, (-300.0, -300.0) if soft == "vertical" else (0.0, 0.0))
    spread = max(transfer._exp_shifted(logw)[2] for engine, _, _ in ensembles for _, logw in engine._trans)
    assert (spread > 700) == (soft == "horizontal")
    monkeypatch.setattr(RegionEngine, "_sweep", sweep)
    for engine, (upper, sites, members), out in ensembles:  # member rows run the forward steps
        _assert_same_log_weights(out, evaluate_deltas(engine, upper, sites, member_rows(members)))


@pytest.mark.parametrize(
    "spread_a, spread_b, gemm",
    [(5.0, 10.0, True), (150.0, 550.0, True), (300.0, 550.0, False), (0.0, 800.0, False)],
)
@pytest.mark.parametrize("entries", [4, 400, 4096])
def test_log_products_branches_agree_with_logsumexp(spread_a, spread_b, gemm, entries, rng, monkeypatch):
    """Both branches of the one log-domain product, the exp-shifted GEMM up
    to a summed row spread of 700 (also past a single spread of 400) and the
    blocked logsumexp beyond, equal a direct logsumexp for every pair, -inf
    entries included. A row of -inf on either side gives -inf without a
    product. The logsumexp runs over blocks of at most `entries` entries,
    or of one row of `a` when a row alone holds more: with 14 live rows of
    12 entries on the `b` side, 4 takes one row per block, 400 two and 4096
    all six live rows of `a` at once."""
    k = 12

    def log_weights(shape, spread):
        w = rng.uniform(-spread, 0.0, size=(*shape, k))
        w[..., 0], w[..., 1] = 0.0, -spread  # every finite row spreads exactly `spread`
        w[..., 2:][rng.random((*shape, k - 2)) < 0.3] = LOG_ZERO
        return w + 5.0

    a, b = log_weights((7,), spread_a), log_weights((15,), spread_b)
    a[3] = LOG_ZERO
    b[7] = LOG_ZERO
    assert transfer._exp_shifted(a)[2] + transfer._exp_shifted(b)[2] == pytest.approx(spread_a + spread_b)
    want = logsumexp(a[:, None, :] + b[None], axis=-1)
    inputs = []
    monkeypatch.setattr(transfer, "logsumexp", lambda x, **kw: inputs.append(x) or logsumexp(x, **kw))
    monkeypatch.setattr(transfer, "_ENTRIES", entries)
    got = transfer._log_products(a, b)
    _assert_same_log_weights(got, want)
    assert np.isneginf(got[3]).all() and np.isneginf(got[:, 7]).all() and np.isfinite(got).any()
    if gemm:
        assert inputs == []
        return
    assert [len(x) for x in inputs] == {4: [1] * 6, 400: [2] * 3, 4096: [6]}[entries]
    assert all(x.size <= max(entries, 14 * k) for x in inputs)
    live_a, live_b = np.delete(a, 3, axis=0), np.delete(b, 7, axis=0)
    assert np.array_equal(np.concatenate(inputs), live_a[:, None, :] + live_b[None])


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
    step, -inf entries and all-zero rows included. A step's index 0 is the
    zero slot in front of every vector, which its column 0 and its padding
    entries, those of log-weight -inf, gather."""
    states = 8
    pairs = []
    for spread in spreads:
        idx = rng.integers(1, states + 1, size=(terms, 1 + states))
        logw = rng.uniform(-spread, 0.0, size=(terms, 1 + states))
        dead = rng.random(logw.shape) < 0.25
        dead[:, 0], dead.flat[1:3] = True, False
        logw.flat[1:3] = 0.0, -spread  # every step spreads exactly `spread`
        idx[dead], logw[dead] = 0, LOG_ZERO
        pairs.append((idx.astype(np.int32), logw + 3.0))
    v = rng.uniform(-v_spread, 0.0, size=(4, 2, states))
    v[..., 2:][rng.random((4, 2, states - 2)) < 0.25] = LOG_ZERO
    v[..., 0], v[..., 1] = 0.0, -v_spread
    v[1, 0] = LOG_ZERO
    v += 7.0
    want = v
    for idx, logw in pairs:
        slotted = np.concatenate([np.full((4, 2, 1), LOG_ZERO), want], axis=-1)
        want = logsumexp(np.take(slotted, idx, axis=-1) + logw, axis=-2)[..., 1:]
    # (idx, w, shift, spread): w exp-shifted by the largest log-weight, or
    # the log-weights themselves past 700
    steps = []
    for (idx, logw), spread in zip(pairs, spreads):
        shift = logw[np.isfinite(logw)].max()
        spread += math.log(terms)
        steps.append((idx, logw if spread > 700 else np.exp(logw - shift), shift, spread))
    total = transfer._exp_shifted(v)[2] + sum(step[3] for step in steps)
    assert total == pytest.approx(v_spread + sum(spreads) + len(spreads) * math.log(terms))
    assert (total <= 700) == linear
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
    log lambda = -400 m, which underflowing linear steps would lose. The
    3-colouring's iterate stays linear: at width 11 no logsumexp runs."""
    inf = math.inf
    phi = Interaction(Alphabet(2), [[inf, 0], [0, inf]], [[inf, 800], [0, inf]])
    calls = []
    monkeypatch.setattr(transfer, "logsumexp", lambda *args, **kw: calls.append(1) or logsumexp(*args, **kw))
    for m in (2, 4, 6):
        sb = strip_pressure(m, phi)
        assert (sb.log_lambda_lower, sb.log_lambda_upper, sb.iterations) == (-400.0 * m, -400.0 * m, 1)
    assert calls
    calls.clear()
    strip_pressure(11, build_checkerboard(3))
    assert calls == []


def test_diag3_sweeps_backward_once_per_tail_and_symbol(monkeypatch):
    """At n = 3 each of diag3's three brackets, computed on its own by
    `_Canopy.bracket`, runs its backward sweep on one vector per distinct
    tail and origin symbol, not on the 55 296 canopy members, and runs no
    forward sweep. The estimate, whose origins the upper layer forces, runs
    no sweep; the parity point's shifts, which are not forced and share one
    bracket, run one. S_n is swept by its columns from the rightmost one, so
    the tail is the canopy sites that do not touch that column."""
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
    own = _diag3_brackets(cb3, n)
    assert {(p.lower, p.upper, p.canopy_count, p.skipped_count, p.canopy_path) for p in own} == {
        (1.0, 1.0, 6974, 48322, "ensemble")
    }
    assert len(deltas) == 55296 and tails == 1152
    assert vectors == [tails * 3] * 3
    est = gk_pressure(diagonal_3coloring_point(), n, cb3)
    assert (est.lower, est.upper) == (0.0, 0.0)
    assert vectors == [tails * 3] * 3
    assert {(p.lower, p.upper, p.canopy_path) for p in _parity_brackets(cb3, n)} == {(0.0, 1.0, "ensemble")}
    assert vectors == [tails * 3] * 4


def _chains(row, phi: Interaction) -> list:
    """Every entry of `_row_chains` for `row`, at the default budget: the
    last is the row's own."""
    return list(transfer._row_chains(row, phi, transfer.DEFAULT_BUDGET))


#: Two-row regions whose rows have gaps: sites 0, 1, 3 over 0, 1, 4, and
#: 0, 1, 2 over 0, 1, 3. A row's right-to-left run then holds more states
#: than its left-to-right run: 3 then 1 share no edge, 0 and 1 do.
_GAPPED_013_014 = [(0, 1), (1, 1), (3, 1), (0, 0), (1, 0), (4, 0)]
_GAPPED_012_013 = [(0, 1), (1, 1), (2, 1), (0, 0), (1, 0), (3, 0)]


def test_gapped_rows_are_refused_by_their_own_runs():
    """A row's chains come from one lock-step run in both directions, so a
    row is refused by the larger of its two runs, and the refusal names
    that row. The hard square's gapped row 0, 1, 3 holds 6 states, but
    its right-to-left run needs 8 before site 0; the 0, 1, 2 over 0, 1, 3
    region is refused by its lower row's right-to-left run before any
    column of its transfer, which needs 8 states at column 2. Either region
    is built exactly from budget 8 (27 for the 3-colouring) on."""
    hs, cb3 = build_hard_square(1.0), build_checkerboard(3)
    want = {
        (6, 0): "transfer states of row y=1: needs 8 states at site 3 of 3, over the limit 6",
        (7, 0): "transfer states of row y=1: needs 8 states at site 3 of 3, over the limit 7",
        (6, 1): "transfer states of row y=0: needs 8 states at site 3 of 3, over the limit 6",
        (7, 1): "transfer states of row y=0: needs 8 states at site 3 of 3, over the limit 7",
    }
    for i, sites in enumerate([_GAPPED_013_014, _GAPPED_012_013]):
        for budget in (6, 7):
            with pytest.raises(BudgetError) as refusal:
                RegionEngine(Region(sites), hs, budget=budget)
            assert str(refusal.value) == want[budget, i]
        for phi, least in ((hs, 8), (cb3, 27)):
            for budget in range(1, 40):
                try:
                    RegionEngine(Region(sites), phi, budget=budget)
                    built = True
                except BudgetError:
                    built = False
                assert built == (budget >= least), (phi.name, sites, budget)


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
    """The steps built from the prefix and suffix chains are those built by
    enumerating every stage and searching its row codes, with the dead
    entries dropped: strips of every width from one shared run, box rows,
    S_n in both orientations, whose rows differ in length, so that some
    columns lie in one row only, and rows with gaps, whose two runs differ
    in shape. Step by step, the reference's live entries, in b order and
    padded with the zero slot, are the compact step entry for entry, with
    the same shift, spread and weights; and both sweep random vectors
    bit-identically, the reference over every one of its rows."""
    pairs = []
    strip = transfer._Row(0, [(x, 0) for x in range(7)])
    for m, (prefix, configs, _, suffix, reversed_configs) in enumerate(_chains(strip, phi), 1):
        row, below = transfer._Row(0, strip.sites[:m]), transfer._Row(-1, [(x, -1) for x in range(m)])
        row.configs = below.configs = configs
        pairs.append((below, row, prefix, (suffix, transfer._rank(reversed_configs)), phi.vertical))
    regions = [Region((x, y) for x in range(5) for y in range(5))]
    for n in (1, 2, 3):
        s_n = canopy_decomposition(n)[0]
        regions += [s_n, Region((y, x) for x, y in s_n)]
    regions += [Region(_GAPPED_013_014), Region(_GAPPED_012_013)]
    for region in regions:
        engine = RegionEngine(region, phi)
        for r, s in zip(engine.rows, engine.rows[1:]):  # the engine holds no chain once built
            (_, _, _, suffix, reversed_configs), (prefix, *_) = (_chains(row, phi)[-1] for row in (r, s))
            pairs.append((r, s, prefix, (suffix, transfer._rank(reversed_configs)), phi.vertical.T if r.y - s.y == 1 else None))
    for old, new, prefix, suffix, table in pairs:
        if not len(old.configs):
            continue
        steps = transfer._transfer_steps(old, new, prefix, suffix, phi, transfer.DEFAULT_BUDGET)
        reference = stage_transfer_steps(old, new, table, phi, transfer.DEFAULT_BUDGET)
        for (idx, w, shift, spread), (ref_idx, ref_logw) in zip(steps, reference, strict=True):
            live = np.isfinite(ref_logw)
            order = np.argsort(~live, axis=0, kind="stable")[: len(idx)]  # live rows first, in b order
            kept = np.take_along_axis(live, order, axis=0)
            assert len(idx) == max(live.sum(axis=0).max(), 1)
            want = np.where(kept, np.take_along_axis(ref_idx, order, axis=0) + 1, 0)
            assert np.array_equal(idx, np.column_stack([np.zeros(len(idx), dtype=idx.dtype), want]))
            logw = np.column_stack([np.full(len(idx), LOG_ZERO), np.take_along_axis(ref_logw, order, axis=0)])
            values = ref_logw[live]
            assert spread == (np.ptp(values) if values.size else 0.0) + np.log(len(ref_idx))
            if values.size:
                assert shift == values.max()
            if w is None:
                assert values.size == 0 or values.min() == values.max()
            else:
                assert np.array_equal(w, logw if spread > 700 else np.exp(logw - shift))
        v = rng.normal(scale=5.0, size=(2, 3, len(old.configs)))
        v[rng.random(v.shape) < 0.3] = LOG_ZERO
        got, want = transfer._run_steps(v, steps), dense_sweep(v, reference)
        assert np.array_equal(np.isinf(got), np.isinf(want)) and np.array_equal(got, want)


def test_step_indices_are_int32():
    hs = build_hard_square(1.0)
    engine = RegionEngine(canopy_decomposition(4)[0], hs, target=(0, 0))
    assert all(idx.dtype == np.int32 for steps, _ in engine._trans for idx, *_ in steps)


def test_steps_past_the_int32_indices_are_refused_under_any_budget(monkeypatch):
    """A column whose held states pass the int32 index limit is refused by
    name, also under a budget that admits them; the limit is set small so
    that no state past 2^31 is allocated. The 3-colouring strip at width 12
    holds at most 13 824 states, and the hard-square box 14 at most 1508
    (`test_budgets_count_the_states_held`)."""
    cb3, hs, budget = build_checkerboard(3), build_hard_square(1.0), 1 << 30
    want = strip_pressure(12, cb3)
    monkeypatch.setattr(transfer, "_INDEX_LIMIT", 13824)
    assert strip_pressure(12, cb3, budget=budget) == want
    monkeypatch.setattr(transfer, "_INDEX_LIMIT", 13823)
    with pytest.raises(BudgetError, match=r"needs 13824 states at column 2 of 12, over the int32 index limit 13823$"):
        strip_pressure(12, cb3, budget=budget)
    monkeypatch.setattr(transfer, "_INDEX_LIMIT", 1507)
    with pytest.raises(BudgetError, match="transfer states of row y=.*: needs 1508 states at column .* int32 index limit 1507"):
        box_log_partition(14, hs, budget=budget)


def test_split_ensemble_heads_must_touch_the_top_row_only():
    """A split ensemble whose head columns include a site beside a lower
    row is refused, not swept; with that site as a tail it combines."""
    hs = build_hard_square(1.0)
    engine = RegionEngine(box(1), hs)
    top, low = (-1, 2), (-1, -2)  # beside the top row y = 1, beside the lowest row y = -1
    assert engine.is_head(top) and not engine.is_head(low)
    one = np.zeros((1, 1), dtype=np.int64)
    both = SplitEnsemble(np.zeros((1, 2), dtype=np.int64), one[:, :0], np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))
    with pytest.raises(ValueError, match="head sites"):
        engine.evaluate_deltas(EMPTY_CONFIGURATION, [top, low], both)
    split = SplitEnsemble(one, one, np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))
    got = engine.evaluate_deltas(EMPTY_CONFIGURATION, [top, low], split)
    assert got[0] == engine.evaluate(Configuration(Region([top, low]), {top: 0, low: 0}))


def _strip_steps(m: int, phi: Interaction) -> list:
    """The steps of the width-m strip's transfer from its row, one step
    down, to itself."""
    budget = transfer.DEFAULT_BUDGET
    row, below = transfer._Row(0, [(x, 0) for x in range(m)]), transfer._Row(-1, [(x, -1) for x in range(m)])
    prefix, row.configs, _, suffix, reversed_configs = _chains(row, phi)[-1]
    return transfer._transfer_steps(below, row, prefix, (suffix, transfer._rank(reversed_configs)), phi, budget)


def test_steps_keep_live_predecessors_and_weights_only_where_they_differ():
    """A step holds at most q index rows, each state's live predecessors
    first; every dead entry, and column 0, index the zero slot. Models
    whose every weight is one (hard square at lambda = 1, colourings) store
    no weights; the others do, and past the 700 rule they are log-weights.
    The width-11 3-colouring strip's 4608-state steps hold 2 rows, not 3:
    of the 3 old symbols, the new symbol and the suffix's first symbol each
    rule one out."""
    inf = math.inf
    e800 = Interaction(Alphabet(2), [[inf, 0], [0, inf]], [[inf, 800], [0, inf]])
    box5 = Region((x, y) for x in range(5) for y in range(5))
    gallery = [
        (build_hard_square(1.0), False),
        (build_checkerboard(3), False),
        (build_hard_square(2.5), True),
        (build_ising(0.4), True),
        (e800, True),
    ]
    for phi, weighed in gallery:
        steps = [step for steps, _ in RegionEngine(box5, phi)._trans for step in steps] + _strip_steps(6, phi)
        assert any(w is not None for _, w, _, _ in steps) == weighed
        for idx, w, _, spread in steps:
            assert 1 <= len(idx) <= phi.q
            assert not idx[:, 0].any()
            assert not ((idx[:-1] == 0) & (idx[1:] > 0)).any()  # padding comes last
            if w is not None:
                dead = np.isneginf(w) if spread > 700 else w == 0
                assert np.array_equal(dead, idx == 0)
        if phi is e800:
            logw = [w for _, w, _, spread in steps if w is not None and spread > 700]
            assert len(logw) == sum(w is not None for _, w, _, _ in steps) > 0
            assert all(set(w[np.isfinite(w)]) == {0.0, -800.0} for w in logw)
    shapes = {idx.shape for idx, *_ in _strip_steps(11, build_checkerboard(3))}
    assert (2, 1 + 4608) in shapes and all(rows == 2 for rows, states in shapes if states == 1 + 4608)


def test_engine_runs_each_column_set_once_per_direction(monkeypatch):
    """The S_5 engine, swept by its columns as `_Canopy` builds it, has
    three distinct transfers, 6 sites to 6, 6 to 5 and 5 to 5, between
    rows of two distinct x-column sets; `admissible_levels` runs once per
    direction per set, and its chains serve every transfer into and out of
    the set's rows."""
    runs = []
    levels = transfer.admissible_levels
    monkeypatch.setattr(transfer, "admissible_levels", lambda sites, *args: runs.append(len(sites)) or levels(sites, *args))
    s_5 = canopy_decomposition(5)[0]
    engine = RegionEngine(Region((y, x) for x, y in s_5), build_hard_square(1.0), target=(0, 0))
    assert len({id(pair) for pair in engine._trans}) == 3
    assert sorted(runs) == [5, 5, 6, 6]


def test_engine_rows_share_the_int64_code_limit(monkeypatch):
    cb2 = build_checkerboard(2)  # two configurations on any connected region
    wide = Region((x, y) for x in range(62) for y in range(2))
    assert log_partition(ConstrainedRegion(wide), cb2) == pytest.approx(math.log(2), abs=1e-12)
    wider = Region((x, y) for x in range(63) for y in range(2))
    with pytest.raises(BudgetError, match="int64"):
        log_partition(ConstrainedRegion(wider), cb2)

    # refused before any row is enumerated
    def row_chains(*args):
        raise AssertionError("a row was enumerated")

    monkeypatch.setattr(transfer, "_row_chains", row_chains)
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
        engine.evaluate(EMPTY_CONFIGURATION, {(0, 0): -1})
