"""Planar lattice geometry.

Sites are integer pairs (x, y). Adjacency is L1 distance 1 (no diagonals).
The canonical ordering is y-major (compare y, then x), which matches the
lexicographic order with the last coordinate most significant; the "past"
consists of the sites strictly below the origin in that order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

Site = Tuple[int, int]

# Canonical (y-major) order of the four nearest neighbors of the origin.
NEIGHBOR_OFFSETS: tuple[Site, ...] = ((0, -1), (-1, 0), (1, 0), (0, 1))


def site_key(v: Site) -> tuple[int, int]:
    """Sort key implementing the canonical y-major order."""
    return (v[1], v[0])


def neighbors(v: Site) -> tuple[Site, ...]:
    """The four L1 neighbors of v, in canonical order."""
    x, y = v
    return tuple((x + dx, y + dy) for dx, dy in NEIGHBOR_OFFSETS)


def in_past(v: Site) -> bool:
    """True iff v is strictly below the origin in y-major order."""
    x, y = v
    return y < 0 or (y == 0 and x < 0)


class Region:
    """A finite set of sites with deterministic (y-major) iteration order."""

    __slots__ = ("_sites", "_order")

    def __init__(self, sites: Iterable[Site]):
        self._sites = frozenset((int(x), int(y)) for x, y in sites)
        self._order = tuple(sorted(self._sites, key=site_key))

    @property
    def sites(self) -> frozenset[Site]:
        return self._sites

    def __contains__(self, v: object) -> bool:
        return v in self._sites

    def __iter__(self) -> Iterator[Site]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._sites)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Region):
            return self._sites == other._sites
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._sites)

    def __repr__(self) -> str:
        return f"Region({list(self._order)!r})"

    def union(self, other: "Region") -> "Region":
        return Region(self._sites | other._sites)

    def difference(self, other: "Region") -> "Region":
        return Region(self._sites - other._sites)

    def intersection(self, other: "Region") -> "Region":
        return Region(self._sites & other._sites)


def box(n: int) -> Region:
    """The square [-n, n]^2, (2n+1)^2 sites."""
    if n < 0:
        raise ValueError("box radius must be nonnegative")
    rng = range(-n, n + 1)
    return Region((x, y) for y in rng for x in rng)


def past_in_box(n: int) -> Region:
    """The part of the past inside box(n): y < 0, or y = 0 and x < 0."""
    if n < 0:
        raise ValueError("box radius must be nonnegative")
    return Region(v for v in box(n) if in_past(v))


def boundary(region: Region) -> Region:
    """Exterior boundary: sites outside the region adjacent to it."""
    if not len(region):
        raise ValueError("boundary of an empty region")
    out = set()
    for v in region:
        for u in neighbors(v):
            if u not in region:
                out.add(u)
    return Region(out)


def canopy_decomposition(n: int) -> tuple[Region, Region, Region]:
    """Split needed by the pressure estimator, for radius n >= 1.

    Returns (S_n, U_n, C_n) where S_n is box(n) minus its past part, U_n is
    the past part of the exterior boundary of S_n (the upper layer), and C_n
    is the rest of that boundary (the canopy). No canopy site is adjacent to
    an upper-layer site, so configurations on the two pieces concatenate
    freely.
    """
    if n < 1:
        raise ValueError("canopy decomposition needs n >= 1")
    s_n = box(n).difference(past_in_box(n))
    bd = boundary(s_n)
    u_n = Region(v for v in bd if in_past(v))
    c_n = bd.difference(u_n)
    return s_n, u_n, c_n
