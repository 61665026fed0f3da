import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gibbspress.pressure as pressure_mod
from gibbspress.errors import BudgetError, HypothesisError
from gibbspress.interaction import (
    Alphabet,
    Configuration,
    Interaction,
    build_checkerboard,
    build_full_shift,
    build_hard_square,
    build_ising,
    per_site_contribution,
)
from gibbspress.lattice import Region, canopy_decomposition
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
    is_locally_admissible,
    monotone_check,
    orbit_sites,
    periodic_point_from_ssf,
)
from gibbspress.transfer import DEFAULT_BUDGET, RegionEngine, logsumexp

from conftest import random_interaction
from oracles import brute_origin_interval, member_rows, split_ensemble

ZEROS = PeriodicPoint([[0]])
PARITY = PeriodicPoint([[0, 1], [1, 0]])


def ensemble_interval(z, v, n, phi):
    """The origin bracket over the whole canopy ensemble, computed here from
    admissible_configurations and one RegionEngine sweep."""
    s_n, u_n, c_n = canopy_decomposition(n)
    x = z.shift(v)
    a0 = x.value((0, 0))
    deltas = admissible_configurations(c_n, phi)
    engine = RegionEngine(s_n, phi, target=(0, 0))
    zvec = engine.evaluate_deltas(x.restrict(u_n), list(c_n), deltas)
    den = logsumexp(zvec, axis=1)
    ok = np.isfinite(den)
    p = np.exp(zvec[ok, a0] - den[ok])
    return PInterval(
        lower=float(p.min()), upper=float(p.max()), n=n,
        canopy_count=int(ok.sum()), skipped_count=int((~ok).sum()),
    )


def test_pinterval_validation():
    with pytest.raises(ValueError):
        PInterval(lower=0.7, upper=0.3, n=1, canopy_count=1, skipped_count=0)
    with pytest.raises(ValueError):
        PInterval(lower=-0.1, upper=0.3, n=1, canopy_count=1, skipped_count=0)


def test_admissible_configurations_counts():
    _, _, c1 = canopy_decomposition(1)
    # components of the n=1 canopy: one isolated site, a 2-path, a 3-path
    assert len(admissible_configurations(c1, build_hard_square(1.0))) == 2 * 3 * 5
    assert len(admissible_configurations(c1, build_full_shift(2))) == 2**6
    assert len(admissible_configurations(c1, build_checkerboard(3))) == 3 * 6 * 12


def test_admissible_configurations_are_admissible_and_deterministic():
    from gibbspress.sft import is_locally_admissible

    _, _, c1 = canopy_decomposition(1)
    cb = build_checkerboard(3)
    rows_a = admissible_configurations(c1, cb)
    rows_b = admissible_configurations(c1, cb)
    assert np.array_equal(rows_a, rows_b)
    sites = list(c1)
    for row in rows_a:
        cfg = Configuration(c1, {v: int(a) for v, a in zip(sites, row)})
        assert is_locally_admissible(cfg, cb)
    # strictly increasing in lexicographic order, first site most significant
    rows = [tuple(r) for r in rows_a.tolist()]
    assert rows == sorted(set(rows))


def test_admissible_configurations_budget():
    _, _, c2 = canopy_decomposition(2)
    with pytest.raises(BudgetError):
        admissible_configurations(c2, build_full_shift(3), budget=100)


def test_p_interval_brute_validation_hard_square():
    hs = build_hard_square(1.0)
    s1, u1, c1 = canopy_decomposition(1)
    deltas = admissible_configurations(c1, hs)
    x_u = ZEROS.restrict(u1)
    lo, hi = brute_origin_interval(s1, x_u, c1, deltas, hs, 0)
    pi = p_interval(ZEROS, (0, 0), 1, hs)
    assert pi.lower == pytest.approx(lo, abs=1e-12)
    assert pi.upper == pytest.approx(hi, abs=1e-12)
    assert (pi.lower, pi.upper) == (pytest.approx(0.5, abs=1e-12), pytest.approx(0.8, abs=1e-12))
    # the hard square is monotone, so p_interval evaluates the two extremes;
    # the whole ensemble has 30 members, none skipped, and the same bracket
    assert (pi.canopy_path, pi.canopy_count, pi.skipped_count) == ("extremes", 2, 0)
    ens = ensemble_interval(ZEROS, (0, 0), 1, hs)
    assert ens.canopy_count == 30 and ens.skipped_count == 0
    assert (ens.lower, ens.upper) == (pytest.approx(lo, abs=1e-12), pytest.approx(hi, abs=1e-12))


def test_p_interval_brute_validation_random_model(rng):
    """Also on rectangular points with periods (3, 2) and (1, 3), at every
    orbit site: p_interval reads the origin and upper layer from the cell,
    the reference from its own shift and restrict, negative offsets
    included."""
    from conftest import random_interaction

    phi = random_interaction(2, rng)
    s1, u1, c1 = canopy_decomposition(1)
    deltas = admissible_configurations(c1, phi)
    rectangles = [PeriodicPoint([[0, 1], [1, 1], [1, 0]]), PeriodicPoint([[1, 0, 0]])]
    cases = [(PARITY, [(0, 0), (1, 0)])] + [(z, orbit_sites(z)) for z in rectangles]
    assert [z.periods for z, _ in cases[1:]] == [(3, 2), (1, 3)]
    for z, sites in cases:
        for v in sites:
            x = z.shift(v)
            lo, hi = brute_origin_interval(s1, x.restrict(u1), c1, deltas, phi, x.value((0, 0)))
            pi = p_interval(z, v, 1, phi)
            assert pi.lower == pytest.approx(lo, abs=1e-12)
            assert pi.upper == pytest.approx(hi, abs=1e-12)


def test_p_interval_frozen_point_is_pinned_to_one():
    """The upper layer forces every origin symbol of the frozen diag3 point:
    each bracket is exactly [1, 1], with nothing evaluated."""
    cb = build_checkerboard(3)
    diag = diagonal_3coloring_point()
    for n in (1, 2):
        for v in [(0, 0), (1, 0), (2, 1)]:
            pi = p_interval(diag, v, n, cb)
            assert (pi.lower, pi.upper, pi.canopy_count, pi.skipped_count, pi.canopy_path) == (1.0, 1.0, 0, 0, "forced")


def test_p_interval_widths_shrink_with_n():
    hs = build_hard_square(1.0)
    widths = [p_interval(ZEROS, (0, 0), n, hs).width for n in (1, 2, 3)]
    assert widths[0] >= widths[1] >= widths[2]


def test_p_interval_rejects_bad_point():
    hs = build_hard_square(1.0)
    with pytest.raises(HypothesisError):
        p_interval(PeriodicPoint([[1]]), (0, 0), 1, hs)


def test_p_interval_budget_guard():
    # the middle symbol of three is no monotone event, so the ensemble is enumerated
    with pytest.raises(BudgetError, match="canopy ensemble"):
        p_interval(PeriodicPoint([[1]]), (0, 0), 3, build_full_shift(3), budget=1000)


def test_empty_canopy_ensemble_raises(monkeypatch):
    cb = build_checkerboard(3)  # not monotone, and a parity origin is not forced: p_interval enumerates the ensemble

    def empty(region, phi, budget=0):
        return np.zeros((0, len(region)), dtype=np.int64)

    monkeypatch.setattr(pressure_mod, "admissible_configurations", empty)
    with pytest.raises(HypothesisError, match="empty canopy ensemble"):
        p_interval(PARITY, (0, 0), 1, cb)


def test_gk_pressure_product_measure_exact():
    for q in (2, 3):
        phi = build_full_shift(q)
        for point in (ZEROS, PeriodicPoint([[0, 1], [1, 0]])):
            for n in (1, 2):
                est = gk_pressure(point, n, phi)
                assert est.lower == pytest.approx(math.log(q), abs=1e-12)
                assert est.upper == pytest.approx(math.log(q), abs=1e-12)


def test_gk_pressure_constant_tables_equal_true_pressure():
    c = 0.37
    q = 2
    phi = Interaction(Alphabet(q), np.full((q, q), c), np.full((q, q), c), name="const")
    est = gk_pressure(ZEROS, 1, phi)
    assert est.width < 1e-12
    assert est.lower == pytest.approx(math.log(q) - 2 * c, abs=1e-12)


def test_gk_pressure_interval_contains_reference_value():
    hs = build_hard_square(1.0)
    from gibbspress.transfer import strip_sequence

    ref = strip_sequence(hs, [8])[0]
    for n in (1, 2, 3):
        est = gk_pressure(ZEROS, n, hs)
        assert est.lower <= ref.ratio_lower <= ref.ratio_upper <= est.upper


def test_gk_pressure_counterexample_is_exactly_zero():
    cb = build_checkerboard(3)
    diag = diagonal_3coloring_point()
    for n in (1, 2):
        est = gk_pressure(diag, n, cb)
        assert est.lower == 0.0 and est.upper == 0.0
        assert est.canopy_count == est.skipped_count == 0
        assert {t.p.canopy_path for t in est.per_site} == {"forced"}


def test_gk_pressure_positivity_violation(monkeypatch):
    hs = build_hard_square(1.0)

    def zero_interval(z, v, n, phi, **kwargs):
        return PInterval(lower=0.0, upper=0.5, n=n, canopy_count=1, skipped_count=0)

    monkeypatch.setattr(pressure_mod, "p_interval", zero_interval)
    with pytest.raises(HypothesisError, match="positivity violated"):
        gk_pressure(ZEROS, 1, hs)


def test_inversion_per_site_bounds():
    """Pressure lower bound comes from the p upper bound and vice versa."""
    hs = build_hard_square(1.0)
    est = gk_pressure(ZEROS, 1, hs)
    term = est.per_site[0]
    assert est.lower == pytest.approx(-math.log(term.p.upper) + term.edge_term)
    assert est.upper == pytest.approx(-math.log(term.p.lower) + term.edge_term)


def test_gk_pressure_inverts_through_assemble():
    """The estimate is assemble_pressure_interval of its own per-site terms,
    bit for bit equal to a running -log sum over the orbit sites."""
    cb5 = build_checkerboard(5)
    cases = [(ZEROS, n, build_hard_square(1.0)) for n in (1, 2, 3, 4)]
    cases += [(diagonal_3coloring_point(), n, build_checkerboard(3)) for n in (1, 2)]
    cases += [(periodic_point_from_ssf(cb5, 1), 1, cb5)]
    for z, n, phi in cases:
        est = gk_pressure(z, n, phi)
        assert est == assemble_pressure_interval(list(est.per_site), n, phi.name)
        lower = upper = 0.0
        for t in est.per_site:
            lower += -math.log(t.p.upper) + t.edge_term
            upper += -math.log(t.p.lower) + t.edge_term
        count = len(est.per_site)
        assert (est.lower, est.upper) == (lower / count, upper / count)


def _spy(monkeypatch, owner, name):
    """Count the calls of owner.name, passing them through."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


INF = math.inf
#: 3-colourings whose tables every symbol rotation leaves unchanged, with
#: energies 0 and 300 on one table (the CI smoke's soft3 and soft3v models)
SOFT3 = Interaction(Alphabet(3), [[INF, 0, 300], [300, INF, 0], [0, 300, INF]], [[INF, 0, 0], [0, INF, 0], [0, 0, INF]])
SOFT3V = Interaction(Alphabet(3), SOFT3.vertical, SOFT3.horizontal)
#: a soft 3-colouring that no symbol permutation but the identity leaves unchanged
SKEW3 = Interaction(Alphabet(3), [[INF, 0, 1], [2, INF, 3], [4, 5, INF]], SOFT3.vertical)
#: symbol 2 may have no left neighbour and symbol 3 no right one, so some
#: canopy heads and tails pair with nothing across a head-tail edge
ENDS = Interaction(
    Alphabet(4),
    [[0, 0.5, INF, 0.7], [0.3, 0, INF, 0.1], [0.2, 0.4, INF, 0.6], [INF, INF, INF, INF]],
    [[0, 1, 0.5, 0.2], [1, 0, 0.2, 0.3], [0.5, 0.2, 0, 0.4], [0.1, 0.3, 0.6, 0]],
)
#: not symmetric, hard and soft entries; the point [[1, 0], [1, 0]]'s two
#: rows of shifts are each other's symbol swap
ASYM = Interaction(Alphabet(2), [[0, INF], [0, 0.5]], [[0, 1.5], [0, 0]])
ASYM_POINT = PeriodicPoint([[1, 0], [1, 0]])

#: a 1 may not sit below a 0, so each column reads 0s up to some height
#: and 1s above; its point COLUMNS carries x mod 2 at (x, y)
STACKED = Interaction(Alphabet(2), np.zeros((2, 2)), [[0, 0], [INF, 0]], name="stacked")
COLUMNS = PeriodicPoint([[0], [1]])


def _with_a_fourth_colour(table) -> np.ndarray:
    """A 3-colouring table extended by a colour 3 that is free (energy 0)
    against the other three and forbidden against itself."""
    out = np.zeros((4, 4))
    out[:3, :3] = table
    out[3, 3] = INF
    return out


#: 4-colourings whose tables every rotation of the colours 0, 1, 2 leaves
#: unchanged; no diag3 origin is forced, as colour 3 fits beside any two
CB4 = build_checkerboard(4)
SOFT4 = Interaction(Alphabet(4), _with_a_fourth_colour(SOFT3.horizontal), _with_a_fourth_colour(SOFT3.vertical))
SOFT4V = Interaction(Alphabet(4), SOFT4.vertical, SOFT4.horizontal)
#: a soft 4-colouring that no rotation of the colours 0, 1, 2 leaves unchanged
SKEW4 = Interaction(Alphabet(4), _with_a_fourth_colour(SKEW3.horizontal), SOFT4.vertical)
#: the 5-colouring with a horizontal 0-1 edge of energy 1 and a 1-0 edge of
#: energy 0, which swapping 0 and 1 changes
CB5 = build_checkerboard(5)
_H5 = CB5.horizontal.copy()
_H5[0, 1] = 1.0
SKEW5 = Interaction(Alphabet(5), _H5, CB5.vertical)


@pytest.mark.parametrize(
    "z, n, phi, enumerations, sweeps, distinct",
    [
        # 9 orbit sites with 3 distinct shifts, each a colour rotation of the
        # others: one class, on the ensemble path, which enumerates the
        # canopy's heads and its tails
        pytest.param(diagonal_3coloring_point(), 2, CB4, 2, 1, 1, id="diag3"),
        # the same shifts under tables no rotation leaves unchanged: 3 classes
        pytest.param(diagonal_3coloring_point(), 2, SKEW4, 2, 3, 3, id="diag3-skew"),
        # 4 orbit sites with 2 distinct shifts: the one with origin 0 is
        # forced, the other takes the extremes path
        pytest.param(PARITY, 3, build_hard_square(1.0), 0, 1, 2, id="hardsquare-parity"),
    ],
)
def test_gk_pressure_shares_engine_ensemble_and_equal_shifts(monkeypatch, z, n, phi, enumerations, sweeps, distinct):
    """One estimate builds one S_n engine, enumerates the canopy's heads and
    tails at most once each and sweeps once per distinct shift that is not
    forced, or per symbol-symmetry class of shifts on the ensemble path; the
    estimate equals, field for field, the one assembled from each distinct
    shift's own p_interval call, which shares nothing."""
    builds = _spy(monkeypatch, RegionEngine, "__init__")
    enums = _spy(monkeypatch, pressure_mod, "admissible_configurations")
    evals = _spy(monkeypatch, RegionEngine, "evaluate_deltas")
    est = gk_pressure(z, n, phi)
    assert (len(builds), len(enums), len(evals)) == (1, enumerations, sweeps)
    assert len({id(t.p) for t in est.per_site}) == distinct  # equal shifts share one PInterval

    own = {}  # by shifted point
    for v in orbit_sites(z):
        if z.shift(v).cell.tobytes() not in own:
            own[z.shift(v).cell.tobytes()] = p_interval(z, v, n, phi)
    terms = [SiteTerm(site=v, p=own[z.shift(v).cell.tobytes()], edge_term=per_site_contribution(z, v, phi)) for v in orbit_sites(z)]
    assert len(builds) == 1 + sum(p.canopy_path != "forced" for p in own.values())
    assert est == assemble_pressure_interval(terms, n, phi.name)


def _sweeps_and_brackets(monkeypatch, z, n, phi):
    """(estimate, ensemble or extremes sweeps, distinct PIntervals) of one
    gk_pressure call."""
    sweeps = _spy(monkeypatch, RegionEngine, "evaluate_deltas")
    est = gk_pressure(z, n, phi)
    return est, len(sweeps), len({id(t.p) for t in est.per_site})


@pytest.mark.parametrize(
    "phi, n, path",
    [
        *(
            pytest.param(phi, n, "forced", id=f"{name}-{n}")
            for name, phi in (("cb3", build_checkerboard(3)), ("soft3", SOFT3), ("soft3v", SOFT3V))
            for n in (1, 2, 3)
        ),
        *(
            pytest.param(phi, n, "ensemble", id=f"{name}-{n}")
            for name, phi in (("cb4", CB4), ("soft4", SOFT4), ("soft4v", SOFT4V))
            for n in (1, 2)
        ),
    ],
)
def test_diag3_colour_rotations_share_one_bracket(phi, n, path, monkeypatch):
    """diag3's three shifts are colour rotations of each other, and
    rotations leave these tables unchanged. Under the 3-colourings the upper
    layer forces every origin symbol: no sweep, and every site gets the
    forced [1, 1]. Under the 4-colourings nothing is forced: one ensemble
    sweep per n, shared by all nine sites. Each shift's own bracket,
    computed with nothing shared, equals the shared one field for field."""
    z = diagonal_3coloring_point()
    sweeps = _spy(monkeypatch, RegionEngine, "evaluate_deltas")
    canopy = pressure_mod._Canopy(n, phi)
    brackets = {p_interval(z, v, n, phi, canopy=canopy) for v in orbit_sites(z)}
    assert len(sweeps) == (path == "ensemble") and len(brackets) == 1
    (shared,) = brackets
    assert shared.canopy_path == path
    for v in ((0, 0), (1, 0), (2, 0)):  # origin symbols 0, 1, 2
        assert p_interval(z, v, n, phi) == shared
    if path == "forced":
        assert (shared.lower, shared.upper, shared.canopy_count, shared.skipped_count) == (1.0, 1.0, 0, 0)


@pytest.mark.parametrize("n", [1, 2])
def test_4_colouring_parity_shares_with_the_unmapped_symbols_in_order(n, monkeypatch):
    """The parity point's two shifts use only colours 0 and 1: swapping them
    and sending 2 and 3 to themselves leaves the 4-colouring's tables
    unchanged, so both shifts share one bracket, equal to each one's own."""
    cb4 = build_checkerboard(4)
    est, sweeps, distinct = _sweeps_and_brackets(monkeypatch, PARITY, n, cb4)
    assert (sweeps, distinct) == (1, 1)
    assert all(p_interval(PARITY, v, n, cb4) == est.per_site[0].p for v in orbit_sites(PARITY))


@pytest.mark.parametrize("force_ensemble", [False, True], ids=["own-path", "ensemble"])
@pytest.mark.parametrize(
    "z, n, phi, own_path, forced",
    [
        (PARITY, 2, build_hard_square(1.0), "extremes", 0),
        (ASYM_POINT, 2, ASYM, "extremes", 0),
        (PARITY, 1, SKEW5, "ensemble", None),
    ],
    ids=["hardsquare-parity", "asym", "skew5-parity"],
)
def test_symbol_swap_that_changes_a_table_shares_nothing(z, n, phi, own_path, forced, force_ensemble, monkeypatch):
    """Each point's two classes of shifts are each other's symbol swap, and
    the swap changes a table (the hard square's 1-1 exclusion, the
    asymmetric model's entries, the skewed 5-colouring's 0-1 edge): two
    brackets, also when no monotone order is found. The upper layer forces
    the origin 0 of the hard square's and the asymmetric model's shifts, so
    only the 5-colouring has both classes on the ensemble path."""
    if force_ensemble:
        monkeypatch.setattr(pressure_mod, "monotone_check", lambda phi, target=None: None)
    est, _, distinct = _sweeps_and_brackets(monkeypatch, z, n, phi)
    assert distinct == 2
    path = "ensemble" if force_ensemble else own_path
    assert {z.value(t.site): t.p.canopy_path for t in est.per_site} == {a: "forced" if a == forced else path for a in (0, 1)}


def test_an_origin_symbol_with_a_monotone_order_is_not_shared(monkeypatch):
    """Sharing needs the new key's origin symbol to take the ensemble path
    without trying extremes. With an order given for symbol 1 only, the
    4-colouring's diag3 shift with origin 1 computes its own bracket (its
    rankwise bottom, all 0, is not a colouring, so it still ends on the
    ensemble), and the shift with origin 2 shares the first one's."""
    order = ((0, 1, 2, 3), (0, 1, 2, 3))
    monkeypatch.setattr(pressure_mod, "monotone_check", lambda phi, target=None: order if target == 1 else None)
    z = diagonal_3coloring_point()
    est, sweeps, distinct = _sweeps_and_brackets(monkeypatch, z, 2, CB4)
    assert (sweeps, distinct) == (2, 2)
    by_origin = {z.value(t.site): t.p for t in est.per_site}
    assert by_origin[2] is by_origin[0] and by_origin[1] is not by_origin[0]
    assert by_origin[1] == by_origin[0]


def test_an_extremes_bracket_is_not_shared():
    """The 3-symbol full shift's tables are all zero, so swapping 0 and 1
    keeps them, and the parity point's shifts with origins 0 and 1 are each
    other's swap. Origin 0 has a monotone order and takes the two extremes;
    origin 1 has none and sweeps the whole ensemble on its own rather than
    share a bracket with another path and other counts."""
    est = gk_pressure(PARITY, 1, build_full_shift(3))
    by_origin = {PARITY.value(t.site): t.p for t in est.per_site}
    assert (by_origin[0].canopy_path, by_origin[0].canopy_count) == ("extremes", 2)
    assert (by_origin[1].canopy_path, by_origin[1].canopy_count) == ("ensemble", 729)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "z, phi, forced",
    [
        pytest.param(diagonal_3coloring_point(), build_checkerboard(3), set(orbit_sites(diagonal_3coloring_point())), id="cb3-diag3"),
        pytest.param(diagonal_3coloring_point(), SOFT3, set(orbit_sites(diagonal_3coloring_point())), id="soft3-diag3"),
        pytest.param(diagonal_3coloring_point(), SOFT3V, set(orbit_sites(diagonal_3coloring_point())), id="soft3v-diag3"),
        pytest.param(PARITY, build_hard_square(1.0), {(0, 0), (1, 1)}, id="hardsquare-parity"),
        pytest.param(PARITY, build_checkerboard(2), set(orbit_sites(PARITY)), id="cb2-parity"),
        pytest.param(COLUMNS, STACKED, {(1, 0)}, id="stacked-columns"),
        pytest.param(ASYM_POINT, ASYM, {(0, 1), (1, 1)}, id="asym"),
    ],
)
def test_forced_origins_are_exactly_one_with_nothing_evaluated(z, phi, forced, n, monkeypatch):
    """Where every symbol but the origin's has infinite energy against the
    origin's left or lower neighbour, p_interval returns exactly [1, 1] on
    the forced path with both counts 0, and builds no engine for it. The
    sweep it replaces agrees: `_Canopy.bracket` on the same key brackets
    members with a finite denominator to exactly [1, 1] too. With every
    orbit site forced, gk_pressure builds no engine and no ensemble, so no
    budget is spent, and it runs at a budget of 1 at n and at 4n."""
    canopy = pressure_mod._Canopy(n, phi)
    brackets = {v: p_interval(z, v, n, phi, canopy=canopy) for v in orbit_sites(z)}
    assert {v for v, p in brackets.items() if p.canopy_path == "forced"} == forced
    assert ("engine" not in vars(canopy)) == (forced == set(brackets))
    for v in forced:
        p = brackets[v]
        assert (p.lower, p.upper, p.canopy_count, p.skipped_count) == (1.0, 1.0, 0, 0)
        x = z.shift(v)
        swept = canopy.bracket(x.restrict(canopy.u_n).symbols, x.value((0, 0)))
        assert (swept.lower, swept.upper) == (1.0, 1.0) and swept.canopy_count > 0
    if forced != set(brackets):
        return

    def refuse(self):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(pressure_mod._Canopy, "engine", property(refuse))
    for m in (n, 4 * n):
        est = gk_pressure(z, m, phi, budget=1)
        assert {t.p.canopy_path for t in est.per_site} == {"forced"}
        assert est == gk_pressure(z, m, phi)


def test_gk_pressure_reads_each_key_from_the_point(monkeypatch):
    """p_interval reads an orbit site's origin symbol and upper layer
    straight from the point's cell: over diag3 under the 3-colouring, whose
    nine sites are all forced, gk_pressure constructs no PeriodicPoint and
    no Configuration at all."""
    z, cb3 = diagonal_3coloring_point(), build_checkerboard(3)
    points = _spy(monkeypatch, PeriodicPoint, "__init__")
    configurations = _spy(monkeypatch, Configuration, "__init__")
    est = gk_pressure(z, 3, cb3)
    assert len(est.per_site) == 9 and {t.p.canopy_path for t in est.per_site} == {"forced"}
    assert (len(points), len(configurations)) == (0, 0)


@pytest.mark.parametrize(
    "z, phi",
    [
        pytest.param(PARITY, build_ising(0.4), id="ising-parity"),
        pytest.param(ZEROS, build_ising(0.4), id="ising-zeros"),
        pytest.param(diagonal_3coloring_point(), CB4, id="cb4-diag3"),
        pytest.param(diagonal_3coloring_point(), SOFT4, id="soft4-diag3"),
        pytest.param(PARITY, CB5, id="cb5-parity"),
        pytest.param(ZEROS, build_hard_square(1.0), id="hardsquare-zeros"),
    ],
)
def test_no_origin_is_forced_where_another_symbol_fits_both_neighbours(z, phi):
    """Where some symbol other than the origin's has finite energy against
    both the origin's left and lower neighbours, the rule never fires."""
    for v in orbit_sites(z):
        x = z.shift(v)
        a0, left, below = x.value((0, 0)), x.value((-1, 0)), x.value((0, -1))
        assert any(np.isfinite(phi.horizontal[left, b]) and np.isfinite(phi.vertical[below, b]) for b in range(phi.q) if b != a0)
        assert p_interval(z, v, 1, phi).canopy_path != "forced"


def test_relabelling_is_fixed_by_the_keys():
    """sigma maps each source symbol to the target symbol at its place; a
    symbol mapped two ways or two symbols mapped to one are refused, and the
    unmapped symbols go in increasing order to the unused ones."""
    relabelling = pressure_mod._relabelling
    assert relabelling((0, 1, 2), (1, 2, 0), 3).tolist() == [1, 2, 0]
    assert relabelling((0, 1, 0), (1, 0, 1), 4).tolist() == [1, 0, 2, 3]
    assert relabelling((1, 3), (0, 1), 4).tolist() == [2, 0, 3, 1]
    assert relabelling((0, 0), (0, 1), 3) is None
    assert relabelling((0, 1), (2, 2), 3) is None


def test_p_interval_refuses_canopy_state_of_another_estimate():
    hs = build_hard_square(1.0)
    canopy = pressure_mod._Canopy(2, hs)
    first = p_interval(ZEROS, (0, 0), 2, hs, canopy=canopy)
    assert p_interval(ZEROS, (0, 0), 2, hs, canopy=canopy) is first
    for n, phi, budget in ((3, hs, DEFAULT_BUDGET), (2, build_hard_square(1.0), DEFAULT_BUDGET), (2, hs, 1000)):
        with pytest.raises(ValueError, match="another n, phi or budget"):
            p_interval(ZEROS, (0, 0), n, phi, budget=budget, canopy=canopy)


def test_widening_any_site_interval_widens_estimate(rng):
    base_terms = [
        SiteTerm(
            site=(i, 0),
            p=PInterval(lower=0.3 + 0.05 * i, upper=0.6 + 0.05 * i, n=1, canopy_count=1, skipped_count=0),
            edge_term=float(rng.normal()),
        )
        for i in range(4)
    ]
    base = assemble_pressure_interval(base_terms, 1, "synthetic")
    for i in range(4):
        for lo_shrink, up_grow in ((0.1, 0.0), (0.0, 0.1), (0.07, 0.05)):
            widened = list(base_terms)
            p = base_terms[i].p
            widened[i] = SiteTerm(
                site=base_terms[i].site,
                p=PInterval(
                    lower=p.lower - lo_shrink,
                    upper=min(1.0, p.upper + up_grow),
                    n=1,
                    canopy_count=1,
                    skipped_count=0,
                ),
                edge_term=base_terms[i].edge_term,
            )
            wide = assemble_pressure_interval(widened, 1, "synthetic")
            assert wide.lower <= base.lower + 1e-15
            assert wide.upper >= base.upper - 1e-15


def test_sandwich_weighted_average_inside_interval(rng):
    """Any mixture of the full ensemble stays inside the certified bracket."""
    hs = build_hard_square(1.0)
    s1, u1, c1 = canopy_decomposition(1)
    deltas = admissible_configurations(c1, hs)
    csites = list(c1)
    from oracles import brute_conditional
    from gibbspress.transfer import ConstrainedRegion

    values = []
    for row in deltas:
        merged = {v: 0 for v in u1}
        merged.update({v: int(a) for v, a in zip(csites, row)})
        cr = ConstrainedRegion(s1, {}, Configuration(Region(merged), merged))
        values.append(brute_conditional({(0, 0): 0}, cr, hs))
    values = np.array(values)
    pi = p_interval(ZEROS, (0, 0), 1, hs)
    for _ in range(5):
        w = rng.random(len(values))
        w /= w.sum()
        avg = float(w @ values)
        assert pi.lower - 1e-12 <= avg <= pi.upper + 1e-12


@pytest.mark.parametrize(
    "phi, point, radii, forced",
    [
        pytest.param(build_hard_square(1.0), ZEROS, (1, 2, 3, 4), None, id="hardsquare1-zeros"),
        pytest.param(build_hard_square(3.0), ZEROS, (1, 2, 3, 4), None, id="hardsquare3-zeros"),
        pytest.param(build_hard_square(1.0), PARITY, (1, 2, 3), 0, id="hardsquare1-parity"),
        pytest.param(build_hard_square(3.0), PARITY, (1, 2, 3), 0, id="hardsquare3-parity"),
        pytest.param(build_ising(0.4), ZEROS, (1, 2, 3), None, id="ising0.4-zeros"),
        pytest.param(build_ising(0.4), PeriodicPoint([[1]]), (1, 2), None, id="ising0.4-ones"),
        pytest.param(build_full_shift(2), ZEROS, (1, 2), None, id="fullshift-zeros"),
        pytest.param(build_full_shift(2), PARITY, (1, 2), None, id="fullshift-parity"),
    ],
)
def test_extremes_equal_the_ensemble(phi, point, radii, forced):
    """For a monotone model p_interval evaluates two canopy members and
    brackets exactly as the whole ensemble does, to rounding. Where the
    upper layer forces the origin symbol (`forced`: the hard square's 0
    beside its parity point's 1s) it evaluates nothing, and the whole
    ensemble gives the same [1, 1] exactly."""
    for n in radii:
        for v in orbit_sites(point):
            pi = p_interval(point, v, n, phi)
            ens = ensemble_interval(point, v, n, phi)
            if point.value(v) == forced:
                assert (pi.canopy_path, pi.canopy_count, pi.skipped_count) == ("forced", 0, 0)
                assert (pi.lower, pi.upper) == (ens.lower, ens.upper) == (1.0, 1.0)
            else:
                assert (pi.canopy_path, pi.canopy_count, pi.skipped_count) == ("extremes", 2, 0)
                assert abs(pi.lower - ens.lower) <= 1e-14 and abs(pi.upper - ens.upper) <= 1e-14


def test_fallback_when_an_extreme_has_a_vanishing_denominator():
    """STACKED passes monotone_check under the identity order, and both
    canopy extremes are locally admissible. But the upper layer of COLUMNS
    at origin 0 holds 1s below S_n's odd columns, which must then be 1s up
    to the canopy, and the all-0 bottom extreme caps them with 0s: its
    denominator is -inf and p_interval falls back to the ensemble. (The
    origin 1 is forced: a 0 may not sit on its lower neighbour's 1. So is
    every origin of the 2-colouring, which used to show this fallback.)"""
    order = monotone_check(STACKED)
    assert order == ((0, 1), (0, 1))
    for n in (1, 2):
        s_n, u_n, c_n = canopy_decomposition(n)
        csites = list(c_n)
        extremes = pressure_mod._canopy_extremes(csites, order, STACKED)
        assert extremes is not None
        engine = RegionEngine(s_n, STACKED, target=(0, 0))
        zvec = engine.evaluate_deltas(COLUMNS.restrict(u_n), csites, extremes)
        assert np.isneginf(logsumexp(zvec, axis=1)).sum() == 1
        pi = p_interval(COLUMNS, (0, 0), n, STACKED)
        assert pi.canopy_path == "ensemble" and pi.skipped_count > 0 and pi.lower < 1.0
        ens = ensemble_interval(COLUMNS, (0, 0), n, STACKED)  # swept by rows, not columns: rounding differs
        assert (pi.canopy_count, pi.skipped_count) == (ens.canopy_count, ens.skipped_count)
        assert abs(pi.lower - ens.lower) <= 1e-14 and abs(pi.upper - ens.upper) <= 1e-14
        assert p_interval(COLUMNS, (1, 0), n, STACKED).canopy_path == "forced"


def test_fallback_when_an_extreme_is_inadmissible():
    """A left neighbour must carry 1 (a 0 has no right neighbour):
    attractive under the identity order, but the all-0 bottom canopy has
    forbidden horizontal pairs, so p_interval enumerates the ensemble. (Where
    a right neighbour must carry 1 instead, the origin's left neighbour
    forces its symbol.)"""
    phi = Interaction(
        Alphabet(2), np.array([[math.inf, math.inf], [0.0, 0.0]]), np.zeros((2, 2)), name="left-is-one"
    )
    order = monotone_check(phi)
    assert order == ((0, 1), (0, 1))
    ones = PeriodicPoint([[1]])
    for n in (1, 2):
        assert pressure_mod._canopy_extremes(list(canopy_decomposition(n)[2]), order, phi) is None
        pi = p_interval(ones, (0, 0), n, phi)
        assert pi.canopy_path == "ensemble"
        assert pi == ensemble_interval(ones, (0, 0), n, phi)


def test_extremes_path_enumerates_no_canopy(monkeypatch):
    """The extremes path never enumerates the ensemble, so the canopy budget
    cannot refuse it: hard-square n = 7 runs at a budget far below its
    canopy, which the ensemble path refuses."""

    def refuse(*args, **kwargs):
        raise AssertionError("the canopy ensemble was enumerated")

    hs = build_hard_square(1.0)
    monkeypatch.setattr(pressure_mod, "admissible_configurations", refuse)
    pi = p_interval(ZEROS, (0, 0), 7, hs, budget=5000)
    assert pi.canopy_path == "extremes" and pi.lower <= pi.upper
    monkeypatch.undo()
    with pytest.raises(BudgetError, match="canopy ensemble: needs"):
        pressure_mod._Canopy(7, hs, budget=5000).deltas


_SPLIT_CASES = [
    *(
        pytest.param(diagonal_3coloring_point(), n, phi, id=f"{name}-n{n}")
        for name, phi in (("cb3", build_checkerboard(3)), ("soft3", SOFT3), ("soft3v", SOFT3V), ("skew3", SKEW3))
        for n in (1, 2, 3)
    ),
    pytest.param(PARITY, 1, build_checkerboard(5), id="cb5-parity-n1"),
    *(pytest.param(z, n, build_hard_square(1.0), id=f"hs-{name}-n{n}") for name, z in (("zeros", ZEROS), ("parity", PARITY)) for n in (1, 2, 3)),
    *(pytest.param(PARITY, n, ENDS, id=f"ends-n{n}") for n in (1, 2)),
]


@pytest.mark.parametrize("z, n, phi", _SPLIT_CASES)
def test_split_canopy_ensemble_equals_the_whole_canopy(z, n, phi, monkeypatch):
    """The canopy ensemble built from its heads and tails holds exactly the
    rows of the whole canopy's enumeration, and its heads, tails and pair
    mask are those the matrix splits into, in the same order. Every bracket,
    swept on the ensemble path (monotone_check patched out), equals field for field the
    one from sweeping the whole canopy's matrix split by `split_ensemble`.
    Under ENDS some enumerated heads and tails pair with nothing and are
    dropped."""
    monkeypatch.setattr(pressure_mod, "monotone_check", lambda *args, **kwargs: None)
    canopy = pressure_mod._Canopy(n, phi)
    sites, split = canopy.deltas
    matrix = admissible_configurations(canopy.c_n, phi)
    members = member_rows(split)[:, [sites.index(v) for v in canopy.sites]]
    assert len(members) == len(matrix) and np.array_equal(np.unique(members, axis=0), matrix)

    engine = canopy.engine
    ref_sites, ref, _ = split_ensemble(engine, [(y, x) for x, y in canopy.sites], matrix)
    assert ref_sites == [(y, x) for x, y in sites]
    assert all(np.array_equal(getattr(ref, f), getattr(split, f)) for f in ("heads", "tails", "pairs"))
    h = split.heads.shape[1]
    enumerated = [len(admissible_configurations(Region(part), phi)) for part in (sites[:h], sites[h:])]
    dropped = enumerated[0] > len(split.heads) and enumerated[1] > len(split.tails)
    assert dropped == (phi is ENDS)

    for v in orbit_sites(z):
        x = z.shift(v)
        x_u, a0 = x.restrict(canopy.u_n), x.value((0, 0))
        upper = {(b, a): s for (a, b), s in x_u.symbols.items()}
        zvec = engine.evaluate_deltas(Configuration(Region(upper), upper), ref_sites, ref)
        assert canopy.bracket(x_u.symbols, a0) == pressure_mod._bracket(zvec, a0, n, "ensemble")


@pytest.mark.parametrize("z, n, phi", [(diagonal_3coloring_point(), 2, CB4), (PARITY, 2, ENDS)])
def test_ensemble_path_enumerates_heads_and_tails_only(z, n, phi, monkeypatch):
    """The ensemble path enumerates the canopy's head sites, those the S_n
    engine names, and then its tail sites, the rest of the canopy; never
    the whole canopy."""
    enums = _spy(monkeypatch, pressure_mod, "admissible_configurations")
    est = gk_pressure(z, n, phi)
    assert {t.p.canopy_path for t in est.per_site} == {"ensemble"}
    canopy = pressure_mod._Canopy(n, phi)
    head = {v for v in canopy.c_n if canopy.engine.is_head((v[1], v[0]))}
    assert [set(args[0]) for args in enums] == [head, set(canopy.c_n) - head] and head


@pytest.mark.parametrize("n, phi, needed", [(3, build_hard_square(1.0), 1680), (2, build_checkerboard(3), 5184)])
def test_canopy_ensemble_budget_is_its_candidate_pairs(n, phi, needed):
    """The canopy ensemble holds H x T candidate (head, tail) pairs, which
    the budget bounds: it is built at a budget of exactly H x T and refused
    one below it. That is also the budget the whole canopy's one
    enumeration needs."""
    sites, split = pressure_mod._Canopy(n, phi, budget=needed).deltas
    h = split.heads.shape[1]
    assert math.prod(len(admissible_configurations(Region(part), phi)) for part in (sites[:h], sites[h:])) == needed
    with pytest.raises(BudgetError) as refused:
        pressure_mod._Canopy(n, phi, budget=needed - 1).deltas
    assert str(refused.value).startswith(f"canopy ensemble: needs {needed} states")
    admissible_configurations(canopy_decomposition(n)[2], phi, budget=needed)
    with pytest.raises(BudgetError, match=f"needs {needed} states"):
        admissible_configurations(canopy_decomposition(n)[2], phi, budget=needed - 1)


def test_pairs_mask_holds_every_compatible_head_and_tail(rng):
    """`_pairs` keeps, in order, the heads and tails that pair with some
    tail or head, and its mask holds exactly the (head, tail) pairs whose
    joint configuration is locally admissible, each once, head major:
    checked pair by pair on the canopy split at n = 1 under random tables
    with forbidden entries, where some heads and some tails pair with
    nothing."""
    dropped = np.zeros(2, dtype=int)
    for _ in range(12):
        q = int(rng.integers(2, 4))
        tables = random_interaction(q, rng).tables
        phi = Interaction(Alphabet(q), *(np.where(rng.random((q, q)) < 0.4, np.inf, t) for t in tables))
        canopy = pressure_mod._Canopy(1, phi)
        head = Region(v for v in canopy.sites if canopy.engine.is_head((v[1], v[0])))
        tail = canopy.c_n.difference(head)
        heads, tails = (admissible_configurations(part, phi) for part in (head, tail))
        split = pressure_mod._pairs(head, heads, tail, tails, phi, DEFAULT_BUDGET)
        joint = Region([*head, *tail])
        ok = np.array([
            is_locally_admissible(Configuration(joint, dict(zip([*head, *tail], [*h.tolist(), *t.tolist()]))), phi)
            for h in heads for t in tails
        ], dtype=bool).reshape(len(heads), len(tails))
        kept = ok.any(axis=1), ok.any(axis=0)
        assert np.array_equal(split.heads, heads[kept[0]]) and np.array_equal(split.tails, tails[kept[1]])
        assert split.pairs.dtype == bool and np.array_equal(split.pairs, ok[np.ix_(*kept)])
        want = [[*heads[i], *tails[j]] for i, j in zip(*np.nonzero(ok))]
        assert len(split) == len(want) and member_rows(split).tolist() == want
        dropped += [(~k).sum() for k in kept]
    assert dropped.all()


_UNIT = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _supermodular_tables(draw):
    """Two 2-symbol tables whose log-weights are supermodular in rank order,
    with at most one forbidden incomparable pair each; drawn under the
    identity order or the bipartite flip."""
    flip = draw(st.booleans())
    tables = []
    for _ in range(2):
        a, b, c = draw(_UNIT), draw(_UNIT), draw(_UNIT)
        rank = np.array([[a, b], [c, b + c - a + draw(st.floats(0.0, 2.0))]])
        forbid = draw(st.sampled_from([None, (0, 1), (1, 0)]))
        if forbid is not None:
            rank[forbid] = -math.inf
        tables.append(-rank[:, ::-1] if flip else -rank)
    return Interaction(Alphabet(2), *tables, name="supermodular")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_supermodular_tables(), st.sampled_from([1, 2]))
def test_ensemble_min_max_are_the_extremes(phi, n):
    assume(monotone_check(phi) is not None)  # rounding can break b + c - a + m
    point = ZEROS if ZEROS.is_point_of(phi) else PARITY
    assert point.is_point_of(phi)
    finite = np.isfinite(phi.horizontal).all() and np.isfinite(phi.vertical).all()
    for v in orbit_sites(point)[:2]:
        pi = p_interval(point, v, n, phi)
        ens = ensemble_interval(point, v, n, phi)
        assert pi.canopy_path == "extremes" or not finite
        assert abs(pi.lower - ens.lower) <= 1e-14 and abs(pi.upper - ens.upper) <= 1e-14


@st.composite
def _log_partitions(draw):
    """(members, q) log partitions split by the origin symbol: offsets up to
    +-700, -inf entries, and near ties, with at least one finite row."""
    q = draw(st.integers(2, 4))
    members = draw(st.integers(1, 6))
    base = draw(st.floats(-700.0, 700.0))
    entry = st.one_of(
        st.floats(-700.0, 700.0),
        st.just(-math.inf),
        st.floats(-1e-12, 1e-12).map(lambda d: base + d),
        st.just(base),
    )
    zvec = np.array([[draw(entry) for _ in range(q)] for _ in range(members)])
    assume(np.isfinite(zvec).any(axis=1).any())
    return zvec, draw(st.integers(0, q - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_log_partitions())
def test_bracket_stays_a_probability_without_a_clamp(case):
    """The logsumexp denominator is never below the origin's entry, so every
    conditional is at most 1 and PInterval accepts the bracket."""
    zvec, a0 = case
    pi = pressure_mod._bracket(zvec, a0, 1, "ensemble")
    assert 0.0 <= pi.lower <= pi.upper <= 1.0
    assert pi.canopy_count + pi.skipped_count == len(zvec)


_PROBABILITY = st.floats(1e-300, 1.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_PROBABILITY, _PROBABILITY, st.floats(-50.0, 50.0)), min_size=1, max_size=9))
def test_assembled_interval_is_ordered_without_slack(sites):
    """Both ends are summed in the same order through a monotone -log, so
    valid per-site brackets always give lower <= upper exactly."""
    terms = [
        SiteTerm(site=(i, 0), p=PInterval(min(a, b), max(a, b), 1, 1, 0), edge_term=e)
        for i, (a, b, e) in enumerate(sites)
    ]
    est = assemble_pressure_interval(terms, 1, "synthetic")
    assert est.lower <= est.upper


LOG_KAPPA = math.log(1.5030480824753323)  # hard-square entropy (Baxter 1999)


def test_hard_square_intervals_at_large_radii():
    """The extremes path takes the parity point to n = 6, 7 under the
    default budget, past its two forced 0-sites; every interval contains
    log kappa and the zeros widths still shrink with n."""
    hs = build_hard_square(1.0)
    parity = periodic_point_from_ssf(hs, 1)
    widths = []
    for point, radii in ((ZEROS, range(1, 6)), (parity, (6, 7))):
        for n in radii:
            est = gk_pressure(point, n, hs)
            assert est.lower <= LOG_KAPPA <= est.upper
            assert {t.p.canopy_path for t in est.per_site} == ({"extremes"} if point is ZEROS else {"extremes", "forced"})
            widths.append(est.width)
    assert widths == sorted(widths, reverse=True)
    assert widths[-1] < 2.5e-3


def test_hard_square_parity_at_n_16(monkeypatch):
    """S_n is swept by its columns, at most n + 1 sites tall, so the parity
    interval at n = 16 takes about half a second: it contains log kappa and
    is at most 3e-6 wide."""
    builds = _spy(monkeypatch, RegionEngine, "__init__")
    hs, n = build_hard_square(1.0), 16
    est = gk_pressure(periodic_point_from_ssf(hs, 1), n, hs)
    assert est.lower <= LOG_KAPPA <= est.upper and est.width <= 3e-6
    engines = [args[0] for args in builds]
    assert engines and max(len(row.sites) for engine in engines for row in engine.rows) == n + 1
