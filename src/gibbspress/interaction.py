"""Nearest-neighbor interactions, energies, and the built-in model gallery.

An interaction is a pair of q x q extended-real energy tables, one per axis,
acting on ordered symbol pairs: horizontal[a, b] is the energy of the edge
{v, v+e1} when v carries a and v+e1 carries b, and vertical[a, b] the same
for {v, v+e2}. +inf encodes a forbidden edge and is absorbing under
addition.

`Interaction.edges` is the one place that orientation lives: it gives a
site's four edges, each with the table indexed by the site's own symbol
first, and it is the package's only reader of a table by direction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import HypothesisError, UsageError
from .lattice import Region, Site

if TYPE_CHECKING:  # pragma: no cover
    from .sft import PeriodicPoint

@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet of q >= 2 symbols, indexed 0..q-1."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("alphabet needs at least two symbols")


@dataclass(frozen=True, eq=False)
class Interaction:
    """Per-axis ordered-pair energy tables with +inf as hard constraint."""

    alphabet: Alphabet
    horizontal: np.ndarray
    vertical: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        q = self.alphabet.size
        for attr in ("horizontal", "vertical"):
            table = np.asarray(getattr(self, attr), dtype=float)
            object.__setattr__(self, attr, table)
            if table.shape != (q, q):
                raise ValueError(f"{attr} table must be {q}x{q}")
            if np.isnan(table).any() or np.isneginf(table).any():
                raise ValueError(f"{attr} table entries must be real or +inf")
            if not np.isfinite(table).any():
                raise ValueError(f"{attr} table has no finite entry")

    @property
    def q(self) -> int:
        return self.alphabet.size

    @property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.horizontal, self.vertical)

    def edges(self, v: Site) -> tuple[tuple[Site, np.ndarray], ...]:
        """v's four edges as (neighbour u, table indexed [v's symbol, u's
        symbol]), ordered left, right, below, above; the right and above
        edges, [1::2], are v's forward edges. The left and below tables are
        transposed views; `dict(phi.edges(v)).get(u)` is edge v-u's table."""
        x, y = v
        h, vt = self.horizontal, self.vertical
        return (((x - 1, y), h.T), ((x + 1, y), h), ((x, y - 1), vt.T), ((x, y + 1), vt))

    def transposed(self) -> "Interaction":
        """The model mirrored in the diagonal, (x, y) -> (y, x): tables swapped."""
        return Interaction(self.alphabet, self.vertical, self.horizontal, self.name)


@dataclass(frozen=True)
class Configuration:
    """Symbol assignment on a finite region (total on the region)."""

    region: Region
    symbols: Mapping[Site, int] = field(default_factory=dict)

    def __post_init__(self):
        if set(self.symbols.keys()) != self.region.sites:
            raise ValueError("symbol domain must equal the region")

    def value(self, v: Site) -> int:
        return self.symbols[v]


EMPTY_CONFIGURATION = Configuration(Region(()), {})


def energy(w: Configuration, phi: Interaction) -> float:
    """Sum of edge energies over edges with both endpoints in w's region."""
    total = 0.0
    sym = w.symbols
    for v, a in sym.items():
        for u, table in phi.edges(v)[1::2]:  # forward edges: each edge once
            b = sym.get(u)
            if b is not None:
                total += table[a, b]
    return float(total)


def energy_with_boundary(w: Configuration, delta: Configuration, phi: Interaction) -> float:
    """Energy of the concatenation w·delta restricted to edges meeting w.

    Counts edges internal to w's region once and edges from w's region into
    delta's region; edges internal to delta are excluded. Overlapping sites
    must agree ("inconsistent concatenation" otherwise).
    """
    for v, a in delta.symbols.items():
        if v in w.region and w.symbols[v] != a:
            raise ValueError("inconsistent concatenation")
    total = energy(w, phi)
    dsym = delta.symbols
    for v, a in w.symbols.items():
        for u, table in phi.edges(v):
            if u not in w.region and u in dsym:
                total += table[a, dsym[u]]
    return float(total)


def per_site_contribution(z: "PeriodicPoint", v: Site, phi: Interaction) -> float:
    """Negated energy of the two forward edges leaving v on the point z.

    This is the per-site edge term of the pressure representation evaluated
    at the shift of z by v; it uses the two forward edges only, not all four
    neighbors.
    """
    a = z.value(v)
    _, (right, h), _, (above, vt) = phi.edges(v)
    e_h, e_v = h[a, z.value(right)], vt[a, z.value(above)]
    if not (math.isfinite(e_h) and math.isfinite(e_v)):
        raise HypothesisError("point not in the underlying constraint set")
    return float(-(e_h + e_v))


def build_hard_square(lam: float = 1.0) -> Interaction:
    """Hard-square model: adjacent 1s forbidden, activity lam on symbol 1.

    The vertex activity is folded into the edge tables at (log lam)/4 per
    incident edge endpoint carrying a 1, so a site with all four incident
    edges inside the summed region picks up the full factor lam.
    """
    if lam <= 0:
        raise ValueError("activity must be positive")
    w = math.log(lam) / 4.0
    table = np.array([[0.0, -w], [-w, math.inf]])
    return Interaction(
        Alphabet(2), table.copy(), table.copy(), name=f"hardsquare(lambda={lam:g})"
    )


def build_checkerboard(k: int) -> Interaction:
    """k-coloring model: equal symbols on an edge forbidden, zero energy otherwise."""
    if k < 2:
        raise ValueError("checkerboard needs k >= 2")
    table = np.zeros((k, k))
    np.fill_diagonal(table, math.inf)
    return Interaction(Alphabet(k), table.copy(), table.copy(), name=f"checkerboard(k={k})")


def build_ising(beta: float) -> Interaction:
    """Two-symbol model with edge energy -beta * s(a) * s(b), s in {-1, +1}."""
    table = np.array([[-beta, beta], [beta, -beta]], dtype=float)
    return Interaction(Alphabet(2), table.copy(), table.copy(), name=f"ising(beta={beta:g})")


def build_full_shift(q: int = 2) -> Interaction:
    """Unconstrained q-symbol model with zero interaction."""
    table = np.zeros((q, q))
    return Interaction(Alphabet(q), table.copy(), table.copy(), name=f"fullshift(q={q})")


_INF_SENTINEL = "inf"


def interaction_to_json(phi: Interaction) -> dict:
    def encode(table: np.ndarray) -> list:
        return [
            [_INF_SENTINEL if math.isinf(x) else float(x) for x in row]
            for row in table.tolist()
        ]

    return {
        "alphabet_size": phi.q,
        "horizontal": encode(phi.horizontal),
        "vertical": encode(phi.vertical),
    }


def interaction_from_json(obj: dict, name: str = "custom") -> Interaction:
    try:
        q = int(obj["alphabet_size"])

        def decode(rows) -> np.ndarray:
            table = np.array(
                [[math.inf if x == _INF_SENTINEL else float(x) for x in row] for row in rows]
            )
            if table.shape != (q, q):
                raise ValueError("table shape mismatch")
            return table

        return Interaction(Alphabet(q), decode(obj["horizontal"]), decode(obj["vertical"]), name=name)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad model definition: {exc}") from exc


def load_model_file(path: str) -> Interaction:
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read model file {path}: {exc}") from exc
    return interaction_from_json(obj, name=f"file:{path}")
