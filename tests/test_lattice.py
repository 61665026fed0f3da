import itertools

import pytest

from gibbspress.lattice import (
    Region,
    boundary,
    box,
    canopy_decomposition,
    in_past,
    neighbors,
    past_in_box,
)


def l1(u, v):
    return abs(u[0] - v[0]) + abs(u[1] - v[1])


def test_box_examples():
    assert set(box(0)) == {(0, 0)}
    assert len(box(1)) == 9
    assert set(box(1)) == {(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)}
    assert len(box(2)) == 25


def test_box_rejects_negative_radius():
    with pytest.raises(ValueError):
        box(-1)


def test_past_in_box_examples():
    assert len(past_in_box(0)) == 0
    assert set(past_in_box(1)) == {(-1, -1), (0, -1), (1, -1), (-1, 0)}


@pytest.mark.parametrize("n", range(7))
def test_past_in_box_size_formula(n):
    assert len(past_in_box(n)) == ((2 * n + 1) ** 2 - 1) // 2


@pytest.mark.parametrize("n", range(5))
def test_box_splits_into_origin_past_and_reflection(n):
    past = set(past_in_box(n))
    reflected = {(-x, -y) for x, y in past}
    assert past.isdisjoint(reflected)
    assert (0, 0) not in past and (0, 0) not in reflected
    assert past | reflected | {(0, 0)} == set(box(n))


def test_boundary_of_origin_is_neighbor_set():
    assert set(boundary(Region([(0, 0)]))) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert set(boundary(Region([(0, 0)]))) == set(neighbors((0, 0)))


def test_boundary_counts():
    assert len(boundary(box(1))) == 12
    domino = Region([(0, 0), (1, 0)])
    assert len(boundary(domino)) == 6


def test_boundary_disjoint_from_region():
    for region in (box(1), Region([(0, 0), (2, 2)])):
        assert not boundary(region).sites & region.sites


def test_boundary_empty_region_rejected():
    with pytest.raises(ValueError):
        boundary(Region([]))


def test_canopy_n1_sets():
    s1, u1, c1 = canopy_decomposition(1)
    assert set(s1) == {(0, 0), (1, 0), (-1, 1), (0, 1), (1, 1)}
    assert set(u1) == {(-1, 0), (0, -1), (1, -1)}
    assert u1.sites | c1.sites == boundary(s1).sites


@pytest.mark.parametrize("n", range(1, 7))
def test_canopy_structure(n):
    s_n, u_n, c_n = canopy_decomposition(n)
    assert s_n == box(n).difference(past_in_box(n))
    assert u_n.sites == {v for v in boundary(s_n) if in_past(v)}
    assert u_n.sites | c_n.sites == boundary(s_n).sites
    assert not s_n.sites & u_n.sites
    assert not s_n.sites & c_n.sites
    assert not u_n.sites & c_n.sites
    # every site adjacent to S_n is accounted for
    for v in s_n:
        for u in neighbors(v):
            assert u in s_n or u in u_n or u in c_n


@pytest.mark.parametrize("n", range(1, 7))
def test_canopy_never_touches_upper_layer(n):
    _, u_n, c_n = canopy_decomposition(n)
    assert min(l1(c, u) for c in c_n for u in u_n) >= 2


def test_canopy_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        canopy_decomposition(0)


def test_region_iteration_is_deterministic_and_sorted():
    sites = [(3, 1), (-2, 0), (0, 0), (1, -4), (2, 1)]
    region = Region(sites)
    first = list(region)
    second = list(region)
    assert first == second
    assert first == sorted(sites, key=lambda v: (v[1], v[0]))


def test_region_set_algebra():
    a = Region([(0, 0), (1, 0)])
    b = Region([(1, 0), (2, 0)])
    assert set(a.union(b)) == {(0, 0), (1, 0), (2, 0)}
    assert set(a.difference(b)) == {(0, 0)}
    assert set(a.intersection(b)) == {(1, 0)}
    assert a == Region([(1, 0), (0, 0)])
    assert hash(a) == hash(Region([(0, 0), (1, 0)]))


def test_in_past_matches_lexicographic_rule():
    for v in itertools.product(range(-3, 4), repeat=2):
        x, y = v
        assert in_past(v) == (y < 0 or (y == 0 and x < 0))
