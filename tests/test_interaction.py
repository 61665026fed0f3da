import json
import math

import numpy as np
import pytest

from gibbspress.errors import HypothesisError, UsageError
from gibbspress.interaction import (
    Alphabet,
    Configuration,
    Interaction,
    build_checkerboard,
    build_full_shift,
    build_hard_square,
    build_ising,
    energy,
    energy_with_boundary,
    interaction_from_json,
    interaction_to_json,
    load_model_file,
    per_site_contribution,
)
from gibbspress.lattice import Region, boundary
from gibbspress.sft import PeriodicPoint

from conftest import concat, constant_configuration


def cfg(mapping):
    return Configuration(Region(mapping), dict(mapping))


def test_alphabet_needs_two_symbols():
    with pytest.raises(ValueError):
        Alphabet(1)


def test_table_validation():
    q2 = Alphabet(2)
    with pytest.raises(ValueError):
        Interaction(q2, np.zeros((3, 3)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Interaction(q2, np.full((2, 2), np.nan), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Interaction(q2, np.full((2, 2), -np.inf), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Interaction(q2, np.full((2, 2), np.inf), np.zeros((2, 2)))


def test_hard_square_tables():
    hs = build_hard_square(1.0)
    assert np.isposinf(hs.horizontal[1, 1]) and np.isposinf(hs.vertical[1, 1])
    finite = hs.horizontal[np.isfinite(hs.horizontal)]
    assert (finite == 0).all()  # lambda = 1 reduces to the uniform model

    lam = 2.5
    hs = build_hard_square(lam)
    w = math.log(lam) / 4
    assert hs.horizontal[0, 1] == pytest.approx(-w)
    assert hs.horizontal[1, 0] == pytest.approx(-w)
    assert hs.horizontal[0, 0] == 0.0
    with pytest.raises(ValueError):
        build_hard_square(0.0)


def test_checkerboard_tables():
    cb = build_checkerboard(3)
    assert cb.q == 3
    assert np.isposinf(np.diag(cb.horizontal)).all()
    off = ~np.eye(3, dtype=bool)
    assert (cb.horizontal[off] == 0).all() and (cb.vertical[off] == 0).all()
    with pytest.raises(ValueError):
        build_checkerboard(1)


def test_ising_tables():
    assert (build_ising(0.0).horizontal == 0).all()
    ib = build_ising(0.3)
    assert ib.horizontal[1, 1] == pytest.approx(-0.3)
    assert ib.horizontal[0, 1] == pytest.approx(0.3)


def test_edges_orient_each_table_by_the_site_first():
    """On a 4-symbol model whose 32 table entries are all distinct, each of
    a site's four edges reads the entry the module docstring assigns it:
    horizontal[a, b] when a sits left of b, vertical[a, b] when a sits
    below b, with v's own symbol first in the returned table."""
    h = np.arange(16.0).reshape(4, 4) * 1.5 - 7.0
    vt = np.arange(16.0).reshape(4, 4).T * -2.0 + 100.0
    assert len(set(h.ravel()) | set(vt.ravel())) == 32
    phi = Interaction(Alphabet(4), h, vt)
    x, y = v = (3, -2)
    edges = phi.edges(v)
    assert [u for u, _ in edges] == [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]
    for a in range(4):  # v's symbol
        for b in range(4):  # the neighbour's symbol
            left, right, below, above = (table[a, b] for _, table in edges)
            assert (left, right, below, above) == (h[b, a], h[a, b], vt[b, a], vt[a, b])


def test_energy_examples():
    hs = build_hard_square(1.0)
    assert energy(cfg({(0, 0): 1, (1, 0): 1}), hs) == math.inf
    assert energy(cfg({(0, 0): 1}), hs) == 0.0

    ib = build_ising(0.3)
    assert energy(cfg({(0, 0): 1, (1, 0): 1}), ib) == pytest.approx(-0.3)

    square = constant_configuration(Region([(0, 0), (1, 0), (0, 1), (1, 1)]), 1)
    assert energy(square, build_ising(0.7)) == pytest.approx(-4 * 0.7)


def test_energy_additive_over_disconnected_parts(rng):
    ib = build_ising(0.4)
    left = {(x, y): int(rng.integers(2)) for x in range(2) for y in range(2)}
    right = {(x + 10, y): int(rng.integers(2)) for x in range(2) for y in range(2)}
    total = dict(left)
    total.update(right)
    assert energy(cfg(total), ib) == pytest.approx(energy(cfg(left), ib) + energy(cfg(right), ib))


def test_energy_with_boundary_examples():
    hs = build_hard_square(1.0)
    n0 = boundary(Region([(0, 0)]))
    w0 = cfg({(0, 0): 0})
    assert energy_with_boundary(w0, constant_configuration(n0, 0), hs) == 0.0

    w1 = cfg({(0, 0): 1})
    delta = Configuration(n0, {(1, 0): 1, (-1, 0): 0, (0, 1): 0, (0, -1): 0})
    assert energy_with_boundary(w1, delta, hs) == math.inf

    cb = build_checkerboard(3)
    w = cfg({(0, 0): 0})
    below_left = cfg({(0, -1): 1, (-1, 0): 2})
    assert energy_with_boundary(w, below_left, cb) == 0.0


def test_energy_with_boundary_on_a_non_symmetric_table():
    """On the asymmetric model every edge into the boundary takes the entry
    with the left or lower site's symbol first, whichever of the two lies in
    w's region, and w's internal edge counts once."""
    asym = interaction_from_json(
        {"alphabet_size": 2, "horizontal": [[0, "inf"], [0, 0.5]], "vertical": [[0, 1.5], [0, 0]]}
    )
    w = cfg({(0, 0): 0})
    assert energy_with_boundary(w, cfg({(-1, 0): 1}), asym) == 0.0  # horizontal[1, 0]
    assert energy_with_boundary(w, cfg({(1, 0): 1}), asym) == math.inf  # horizontal[0, 1]
    assert energy_with_boundary(w, cfg({(0, -1): 1}), asym) == 0.0  # vertical[1, 0]
    assert energy_with_boundary(w, cfg({(0, 1): 1}), asym) == 1.5  # vertical[0, 1]
    pair = cfg({(0, 0): 1, (1, 0): 1})  # internal edge horizontal[1, 1] = 0.5
    delta = cfg({(-1, 0): 1, (2, 0): 0, (0, -1): 0, (0, 1): 0, (1, 1): 1, (-1, 1): 0})
    # + horizontal[1, 1] + horizontal[1, 0] + vertical[0, 1] + vertical[1, 0] + vertical[1, 1]
    assert energy_with_boundary(pair, delta, asym) == 0.5 + 0.5 + 0.0 + 1.5 + 0.0 + 0.0


def test_energy_with_boundary_excludes_boundary_internal_edges():
    ib = build_ising(1.0)
    w = cfg({(0, 0): 1})
    delta = cfg({(1, 0): 1, (2, 0): 1})  # (1,0)-(2,0) edge must not count
    assert energy_with_boundary(w, delta, ib) == pytest.approx(-1.0)


def test_energy_with_boundary_split_additivity():
    ib = build_ising(0.6)
    w = cfg({(0, 0): 1, (1, 0): 0})
    d1 = cfg({(-1, 0): 1})
    d2 = cfg({(2, 0): 1, (1, 1): 0})
    combined = energy_with_boundary(w, concat(d1, d2), ib)
    cross = energy_with_boundary(w, d2, ib) - energy(w, ib)
    assert combined == pytest.approx(energy_with_boundary(w, d1, ib) + cross)


def test_inconsistent_concatenation_rejected():
    ib = build_ising(0.3)
    w = cfg({(0, 0): 1})
    overlap = cfg({(0, 0): 0, (1, 0): 1})
    with pytest.raises(ValueError, match="inconsistent concatenation"):
        energy_with_boundary(w, overlap, ib)
    agreeing = cfg({(0, 0): 1, (1, 0): 1})
    assert energy_with_boundary(w, agreeing, ib) == pytest.approx(-0.3)


def test_per_site_contribution_examples():
    cb = build_checkerboard(3)
    from gibbspress.sft import diagonal_3coloring_point

    diag = diagonal_3coloring_point()
    for v in [(0, 0), (1, 0), (2, 2)]:
        assert per_site_contribution(diag, v, cb) == 0.0

    lam = 3.0
    hs = build_hard_square(lam)
    zeros = PeriodicPoint([[0]])
    expected = -(hs.horizontal[0, 0] + hs.vertical[0, 0])
    assert per_site_contribution(zeros, (0, 0), hs) == pytest.approx(expected)

    parity = PeriodicPoint([[0, 1], [1, 0]])
    assert per_site_contribution(parity, (0, 0), hs) == pytest.approx(math.log(lam) / 2)

    beta = 0.8
    all_plus = PeriodicPoint([[1]])
    assert per_site_contribution(all_plus, (0, 0), build_ising(beta)) == pytest.approx(2 * beta)


def test_per_site_contribution_rejects_forbidden_edge():
    hs = build_hard_square(1.0)
    all_ones = PeriodicPoint([[1]])
    with pytest.raises(HypothesisError):
        per_site_contribution(all_ones, (0, 0), hs)


def test_configuration_domain_must_match_region():
    with pytest.raises(ValueError):
        Configuration(Region([(0, 0), (1, 0)]), {(0, 0): 1})


def test_json_round_trip(tmp_path):
    for phi in (build_hard_square(2.0), build_checkerboard(3), build_ising(-0.4)):
        obj = interaction_to_json(phi)
        back = interaction_from_json(obj)
        assert back.q == phi.q
        assert np.array_equal(back.horizontal, phi.horizontal)
        assert np.array_equal(back.vertical, phi.vertical)

    path = tmp_path / "model.json"
    path.write_text(json.dumps(interaction_to_json(build_hard_square(1.0))))
    loaded = load_model_file(str(path))
    assert np.isposinf(loaded.horizontal[1, 1])

    bad = tmp_path / "bad.json"
    bad.write_text("{nonsense")
    with pytest.raises(UsageError):
        load_model_file(str(bad))
    with pytest.raises(UsageError):
        interaction_from_json({"alphabet_size": 2, "horizontal": [[0]], "vertical": [[0]]})
