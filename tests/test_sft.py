import math
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gibbspress.errors import HypothesisError
from gibbspress.interaction import (
    Alphabet,
    Configuration,
    Interaction,
    build_checkerboard,
    build_full_shift,
    build_hard_square,
    build_ising,
    energy,
)
from gibbspress.lattice import NEIGHBOR_OFFSETS, Region, box, canopy_decomposition, site_key
from gibbspress.pressure import admissible_configurations
from gibbspress.sft import (
    PeriodicPoint,
    admissible_states,
    diagonal_3coloring_point,
    is_locally_admissible,
    monotone_check,
    orbit_sites,
    periodic_point_from_ssf,
    safe_symbol_check,
    ssf_check,
)
from gibbspress.transfer import RegionEngine

from conftest import random_locally_admissible, region_components


def test_local_admissibility_examples():
    hs = build_hard_square(1.0)
    bad = Configuration(Region([(0, 0), (1, 0)]), {(0, 0): 1, (1, 0): 1})
    assert not is_locally_admissible(bad, hs)
    zeros = Configuration(box(2), {v: 0 for v in box(2)})
    assert is_locally_admissible(zeros, hs)

    cb = build_checkerboard(3)
    equal = Configuration(Region([(0, 0), (0, 1)]), {(0, 0): 2, (0, 1): 2})
    assert not is_locally_admissible(equal, cb)


def test_ssf_hard_square_constant_witness():
    result = ssf_check(build_hard_square(1.0))
    assert result.satisfied
    assert result.witness_count == 16
    filled = result.fills.any(axis=-1)
    assert set(result.fills.argmax(axis=-1)[filled].tolist()) == {0}


def test_ssf_checkerboards():
    assert ssf_check(build_checkerboard(5)).satisfied
    r4 = ssf_check(build_checkerboard(4))
    assert not r4.satisfied
    assert r4.counterexample == (0, 1, 2, 3)
    r3 = ssf_check(build_checkerboard(3))
    assert not r3.satisfied
    assert r3.counterexample == (0, 0, 1, 2)  # first eta using all three colors


@st.composite
def _sparse_tables(draw):
    """A model with q <= 5 and two unrelated tables, about a third of whose
    entries are +inf."""
    q = draw(st.integers(2, 5))
    entry = st.sampled_from([math.inf, math.inf, -1.0, 0.0, 0.5, 2.0])
    h, vt = (np.array(draw(st.lists(entry, min_size=q * q, max_size=q * q))).reshape(q, q) for _ in range(2))
    assume(np.isfinite(h).any() and np.isfinite(vt).any())
    return Interaction(Alphabet(q), h, vt)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sparse_tables())
def test_ssf_and_safe_symbol_equal_a_brute_scan(phi):
    """Both certificates equal a scan of the definitions: eta = (below,
    left, right, above) is filled by a when vertical[below, a],
    horizontal[left, a], horizontal[a, right] and vertical[a, above] are all
    finite; a is safe when every edge from a to any b, in either table and
    either order, is finite. Witnesses come in scan order, the smallest
    fill each."""
    h, vt, q = phi.horizontal, phi.vertical, phi.q
    witness, counterexample = {}, None
    for eta in product(range(q), repeat=4):
        below, left, right, above = eta
        fills = [a for a in range(q) if np.isfinite([vt[below, a], h[left, a], h[a, right], vt[a, above]]).all()]
        if fills:
            witness[eta] = fills[0]
        elif counterexample is None:
            counterexample = eta
    safe = [a for a in range(q) if np.isfinite([h[a], h[:, a], vt[a], vt[:, a]]).all()]
    result = ssf_check(phi)
    filled = result.fills.any(axis=-1)
    smallest = {eta: int(result.fills[eta].argmax()) for eta in product(range(q), repeat=4) if filled[eta]}
    assert list(smallest.items()) == list(witness.items())
    assert result.counterexample == counterexample
    assert safe_symbol_check(phi) == (safe[0] if safe else None)


def test_neighbor_order_is_canonical():
    assert NEIGHBOR_OFFSETS == ((0, -1), (-1, 0), (1, 0), (0, 1))


def test_safe_symbols():
    assert safe_symbol_check(build_hard_square(1.0)) == 0
    for k in (2, 3, 4, 5):
        assert safe_symbol_check(build_checkerboard(k)) is None
    assert safe_symbol_check(build_ising(1.0)) == 0


def test_periodic_point_from_ssf_hard_square():
    hs = build_hard_square(1.0)
    odd_ones = periodic_point_from_ssf(hs, 1)
    assert odd_ones.periods == (2, 2)
    for x in range(4):
        for y in range(4):
            assert odd_ones.value((x, y)) == (x + y) % 2
    assert odd_ones.is_point_of(hs)

    all_zero = periodic_point_from_ssf(hs, 0)
    assert all(all_zero.value(v) == 0 for v in box(2))


def test_periodic_point_from_ssf_checkerboard5():
    point = periodic_point_from_ssf(build_checkerboard(5), 0)
    assert point.value((0, 0)) == 1  # smallest symbol distinct from b=0
    assert point.value((1, 0)) == 0


def test_periodic_point_from_ssf_requires_ssf():
    with pytest.raises(HypothesisError, match="SSF prerequisite failed"):
        periodic_point_from_ssf(build_checkerboard(3), 0)


def test_diagonal_point():
    diag = diagonal_3coloring_point()
    assert diag.periods == (3, 3)
    assert diag.value((0, 0)) == 0
    assert diag.value((1, 0)) == 1
    assert diag.value((0, 1)) == 2
    cb = build_checkerboard(3)
    assert diag.is_point_of(cb)
    window = Region([(x, y) for x in range(6) for y in range(6)])
    assert is_locally_admissible(diag.restrict(window), cb)


def test_diagonal_point_is_frozen_at_origin():
    diag = diagonal_3coloring_point()
    cb = build_checkerboard(3)
    west, south = diag.value((-1, 0)), diag.value((0, -1))
    legal = [
        a
        for a in range(3)
        if np.isfinite(cb.horizontal[west, a]) and np.isfinite(cb.vertical[south, a])
    ]
    assert legal == [diag.value((0, 0))]


def test_orbit_sites():
    assert orbit_sites(PeriodicPoint([[0]])) == [(0, 0)]
    assert orbit_sites(PeriodicPoint([[0, 1], [1, 0]])) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    sites = orbit_sites(diagonal_3coloring_point())
    assert len(sites) == 9
    assert sites == sorted(sites, key=site_key)


def test_shift_acts_on_points():
    points = [diagonal_3coloring_point(), PeriodicPoint(np.arange(6).reshape(2, 3))]
    offsets = [(2, 1), (0, 0), (-1, -2), (-4, 1), (7, -5), (11, 13)]
    for z in points:
        for off in offsets:
            shifted = z.shift(off)
            assert shifted.periods == z.periods
            for v in box(3):
                assert shifted.value(v) == z.value((v[0] + off[0], v[1] + off[1]))


def test_point_invariant_detects_forbidden_cells():
    """Also on every rectangular cell under asymmetric tables and their
    transposes, where a table read on the wrong axis or a cell rolled the
    wrong way reads the wrong ordered pair: the verdict is the finiteness
    of the energy of the (2 p1) x (2 p2) window, which holds every edge
    class of the cell. The 2-symbol table (a 0 may not sit left of a 1)
    tells the axes apart; on a binary cycle a 0-1 step occurs exactly when
    a 1-0 step does, so the 3-symbol one (a 0 may not sit left of a 1, nor
    below a 2) tells the roll directions apart."""
    hs = build_hard_square(1.0)
    assert not PeriodicPoint([[1]]).is_point_of(hs)
    assert PeriodicPoint([[0]]).is_point_of(hs)
    assert not diagonal_3coloring_point().is_point_of(build_checkerboard(2))
    inf = math.inf
    asym = Interaction(Alphabet(2), [[0, inf], [0, 0.5]], [[0, 1.5], [0, 0]])
    asym3 = Interaction(Alphabet(3), [[0, inf, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, inf], [0, 0, 0], [0.5, 0, 0]])
    for phi in (asym, asym.transposed(), asym3, asym3.transposed()):
        verdicts = set()
        for p1, p2 in ((3, 2), (1, 3), (2, 3)):
            window = Region((x, y) for x in range(2 * p1) for y in range(2 * p2))
            for symbols in product(range(phi.q), repeat=p1 * p2):
                z = PeriodicPoint(np.reshape(symbols, (p1, p2)))
                verdict = z.is_point_of(phi)
                assert verdict == math.isfinite(energy(z.restrict(window), phi))
                verdicts.add(verdict)
        assert verdicts == {True, False}


def random_admissible_by_growth(region, phi, rng):
    """Random locally admissible configuration, built site by site."""
    symbols = {}
    for v in sorted(region, key=site_key):
        options = [
            a
            for a in range(phi.q)
            if all(
                np.isfinite(phi.tables[axis][symbols[u], a])
                for axis, u in ((0, (v[0] - 1, v[1])), (1, (v[0], v[1] - 1)))
                if u in symbols
            )
        ]
        symbols[v] = int(rng.choice(options))
    return Configuration(region, symbols)


def test_witness_extension_keeps_admissibility(rng):
    """Greedy fill with each neighbour configuration's smallest fill,
    `fills[eta].argmax()`, grows admissible configurations."""
    for phi in (build_hard_square(1.0), build_checkerboard(5)):
        fills = ssf_check(phi).fills
        for _ in range(5):
            base = random_admissible_by_growth(box(2), phi, rng)
            assert is_locally_admissible(base, phi)
            symbols = dict(base.symbols)
            for v in sorted(box(3).difference(box(2)), key=site_key):
                eta = tuple(
                    symbols.get((v[0] + dx, v[1] + dy), 0) for dx, dy in NEIGHBOR_OFFSETS
                )
                assert fills[eta].any()
                symbols[v] = int(fills[eta].argmax())
            grown = Configuration(box(3), symbols)
            assert is_locally_admissible(grown, phi)


def filtered_product(sites, phi):
    """The locally admissible members of the full product over `sites`, in
    itertools.product order (first site most significant)."""
    from itertools import product

    region = Region(sites)
    return [
        list(syms)
        for syms in product(range(phi.q), repeat=len(sites))
        if is_locally_admissible(Configuration(region, dict(zip(sites, syms))), phi)
    ]


def test_admissible_assignments_match_filtered_product():
    """admissible_states yields exactly the admissible members of the full
    product, in itertools.product order, with columns in the given site
    order."""
    sites = [(1, 1), (0, 0), (1, 0), (0, 1), (2, 0)]
    for phi in (build_hard_square(1.0), build_checkerboard(3), build_ising(0.3)):
        assert admissible_states(sites, phi, 1 << 20)[0].tolist() == filtered_product(sites, phi) != []


@pytest.mark.parametrize("n", [1, 2])
def test_canopy_is_one_enumeration_over_canonical_sites(n):
    """admissible_configurations is one site-by-site enumeration of the whole
    canopy, components and all: the filtered product over its canonical
    sites, in that order."""
    canopy = canopy_decomposition(n)[2]
    assert len(region_components(canopy)) > 1
    for phi in (build_hard_square(1.0), build_checkerboard(3), build_ising(0.3)):
        assert admissible_configurations(canopy, phi).tolist() == filtered_product(list(canopy), phi) != []


def test_symbol_matrices_are_int8_up_to_127_symbols():
    """Every enumeration (canopy, engine row, transfer stage, strip) is an
    admissible_states call, whose symbol matrix is int8 for q <= 127 and
    int64 above; row codes are still formed in int64."""
    cb3 = build_checkerboard(3)
    s_2, _, c_2 = canopy_decomposition(2)
    assert admissible_configurations(c_2, cb3).dtype == np.int8
    engine = RegionEngine(s_2, cb3, target=(0, 0))
    assert all(row.configs.dtype == np.int8 for row in engine.rows)
    for q, dtype in ((127, np.int8), (128, np.int64)):
        cfg, energies = admissible_states([(0, 0), (1, 0)], build_full_shift(q), budget=1 << 16)
        assert cfg.dtype == dtype and len(cfg) == len(energies) == q * q
        assert cfg[-1].tolist() == [q - 1, q - 1]


def test_region_components():
    region = Region([(0, 0), (1, 0), (5, 5), (5, 6), (9, 0)])
    comps = region_components(region)
    assert sorted(len(c) for c in comps) == [1, 2, 2]
    assert set().union(*(c.sites for c in comps)) == region.sites


def test_random_locally_admissible_is_deterministic_and_valid():
    cb = build_checkerboard(3)
    ring = Region([(x, 0) for x in range(5)] + [(x, 3) for x in range(5)])
    a = random_locally_admissible(ring, cb, np.random.default_rng(7))
    b = random_locally_admissible(ring, cb, np.random.default_rng(7))
    assert a.symbols == b.symbols
    assert is_locally_admissible(a, cb)

    full = build_full_shift(2)
    cfg = random_locally_admissible(box(1), full, np.random.default_rng(1))
    assert set(cfg.symbols) == box(1).sites


IDENTITY = ((0, 1), (0, 1))
FLIP = ((0, 1), (1, 0))


def test_monotone_check_verdicts(rng):
    # the hard square is attractive once the odd sublattice is reversed
    for lam in (1.0, 3.0, 0.5):
        assert monotone_check(build_hard_square(lam)) == FLIP
    for beta in (0.0, 0.4, 2.0):
        assert monotone_check(build_ising(beta)) == IDENTITY
    assert monotone_check(build_ising(-0.4)) == FLIP  # the antiferromagnet, flipped
    assert monotone_check(build_full_shift(2)) == IDENTITY
    assert monotone_check(build_full_shift(3)) == ((0, 1, 2), (0, 1, 2))
    # the allowed pairs {(0,1), (1,0)} of the 2-colouring are a lattice only
    # after the flip: under the identity their min (0, 0) is forbidden
    assert monotone_check(build_checkerboard(2)) == FLIP
    for k in (3, 4, 5):
        assert monotone_check(build_checkerboard(k)) is None

    # 2 symbols: supermodular horizontally, submodular vertically
    for _ in range(20):
        h, v = rng.uniform(-2.0, 2.0, size=(2, 2, 2))
        swing = -(h[0, 0] + h[1, 1] - h[0, 1] - h[1, 0])  # log-weight supermodularity of h
        v[1, 1] = v[0, 1] + v[1, 0] - v[0, 0] + np.sign(swing)
        assert monotone_check(Interaction(Alphabet(2), h, v)) is None
    # 3 symbols with a strictly non-supermodular log-weight quadruple
    table = rng.uniform(-2.0, 2.0, size=(3, 3))
    table[0, 0] = table[0, 1] + table[1, 0] - table[1, 1] + 1.0
    assert monotone_check(Interaction(Alphabet(3), table, table.T)) is None


def test_monotone_check_target_must_be_extremal():
    fs3 = build_full_shift(3)
    assert monotone_check(fs3, target=0) == monotone_check(fs3, target=2) == ((0, 1, 2), (0, 1, 2))
    assert monotone_check(fs3, target=1) is None
    assert monotone_check(build_hard_square(1.0), target=1) == FLIP  # q = 2: always extremal
