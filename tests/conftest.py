import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gibbspress.errors import HypothesisError
from gibbspress.interaction import (
    Alphabet,
    Configuration,
    Interaction,
    build_checkerboard,
    build_full_shift,
    build_hard_square,
    build_ising,
)
from gibbspress.lattice import Region, neighbors, site_key
from gibbspress.sft import is_locally_admissible

#: Draws `random_locally_admissible` makes per component before it gives up.
MAX_TRIES = 10000


def model_gallery():
    """The built-in models exercised by the cross-cutting suites."""
    return [
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


def random_interaction(q: int, rng: np.random.Generator, scale: float = 2.0) -> Interaction:
    h = rng.uniform(-scale, scale, size=(q, q))
    v = rng.uniform(-scale, scale, size=(q, q))
    return Interaction(Alphabet(q), h, v, name=f"random(q={q})")


def constant_configuration(region: Region, symbol: int) -> Configuration:
    return Configuration(region, {v: symbol for v in region})


def concat(first: Configuration, second: Configuration) -> Configuration:
    """Concatenation of two configurations; overlaps must agree."""
    merged = dict(first.symbols)
    for v, a in second.symbols.items():
        if merged.get(v, a) != a:
            raise ValueError("inconsistent concatenation")
        merged[v] = a
    return Configuration(first.region.union(second.region), merged)


def region_components(region: Region) -> list[Region]:
    """Connected components of a region under L1 adjacency."""
    remaining = set(region.sites)
    comps = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for u in neighbors(v):
                if u in remaining:
                    remaining.discard(u)
                    comp.add(u)
                    frontier.append(u)
        comps.append(Region(comp))
    comps.sort(key=lambda r: site_key(next(iter(r))))
    return comps


def random_locally_admissible(region: Region, phi: Interaction, rng: np.random.Generator) -> Configuration:
    """Rejection-sample a locally admissible configuration, per component.

    Components are independent under local admissibility, so sampling each
    one uniformly yields a uniform sample over the whole admissible set.
    Raises HypothesisError if some component keeps rejecting.
    """
    symbols = {}
    for comp in region_components(region):
        sites = list(comp)
        for _ in range(MAX_TRIES):
            draw = rng.integers(phi.q, size=len(sites))
            cand = {v: int(a) for v, a in zip(sites, draw)}
            if is_locally_admissible(Configuration(comp, cand), phi):
                symbols.update(cand)
                break
        else:
            raise HypothesisError("sampling failure: component keeps rejecting")
    return Configuration(region, symbols)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
