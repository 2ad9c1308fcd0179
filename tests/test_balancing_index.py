"""What balancing reads, kept once per ``_Rows``.

``is_balanced`` reads a fan's purity verdict, the star of each
codimension-one face and whether its maximal cones are certified off the
fan's ``_Rows``, which its reweighted copies share, and keeps each face's
layer-test verdict there by the tuple of its star's weights.  These tests hold
it to the per-call body it replaced (``oracles.balance_per_call``): the
same verdict and first failing face on Bergman fans, on every single-cone
doubling, on copies of copies and copies balanced before their base fan,
and on moduli fans and their projections.  They check that the copies
share one ``_Rows`` and a fan built again gets its own, that the stars are
built once and each (face, star weights) layer test runs once, and that
a memoised verdict does not let a call skip the certificate."""

from collections import Counter

import pytest

import tropfan.bergman as bergman
import tropfan.intlinalg as ila
from tropfan import Fan, Graph, bergman_fan, is_balanced, moduli_fan_rad, project_fan

from oracles import balance_per_call
from test_chain_rows import reweightings
from test_cone_masks import cycle_on, path_on


def complete_fan(m: int):
    return bergman_fan(Graph.complete(range(2, m + 2)))


def verdict(fan):
    report = is_balanced(fan)
    return report.balanced, report.failing_face


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_bergman_fans_match_the_per_call_body(m):
    fan = complete_fan(m)
    assert verdict(fan) == balance_per_call(fan) == (True, None)
    assert verdict(fan) == (True, None)  # every verdict memoised


@pytest.mark.parametrize("m", [4, 5])
def test_every_single_cone_doubling_matches_the_per_call_body(m):
    """Half the doublings are balanced before their base fan and half
    after it; each doubled cone is then tripled in a copy of the copy, so
    each facet of it sees the weight patterns of one, two and three on it.
    A last copy of a copy doubles every maximal cone, and balances."""
    fan = complete_fan(m)
    maximal = fan.cones_of_dim(fan.max_dim)
    raysets = [sigma.rayset for sigma in maximal]
    for i, (sigma, rays) in enumerate(zip(maximal, raysets)):
        if i == len(maximal) // 2:
            assert verdict(fan) == balance_per_call(fan) == (True, None)
        doubled = fan.with_weights({rays: 2})
        for heavy in (doubled, doubled.with_weights({rays: 3})):
            assert heavy._rows is fan._rows
            balanced, face = verdict(heavy)
            assert (balanced, face) == balance_per_call(heavy)
            assert not balanced and face.dim == sigma.dim - 1
            assert set(face.masks) <= set(sigma.masks)
    uniform = doubled.with_weights({rays: 2 for rays in raysets})
    assert verdict(uniform) == balance_per_call(uniform) == (True, None)


MODULI = [(n, name) for n in (4, 5, 6) for name in ("complete", "path", "cycle")]


@pytest.mark.parametrize("n, name", MODULI)
def test_moduli_fans_and_their_images_match_the_per_call_body(n, name):
    """The moduli fan of a non-complete stability graph need not balance;
    its image in the graph's edge space does.  Each fan, a copy with one
    maximal cone doubled, and the fan again from its memo."""
    labels = tuple(range(2, n + 1))
    gamma = {"complete": Graph.complete(labels), "path": path_on(labels), "cycle": cycle_on(labels)}[name]
    fan = moduli_fan_rad(n, gamma)
    image = project_fan(fan, gamma)
    for f in (fan, image):
        expected = balance_per_call(f)
        sigma = f.cones_of_dim(f.max_dim)[-1]
        heavy = f.with_weights({sigma.rayset: 2})
        assert verdict(heavy) == balance_per_call(heavy)
        assert verdict(f) == expected
        assert verdict(f) == expected
    assert verdict(image) == (True, None)


def test_copies_share_one_index_and_a_rebuilt_fan_gets_its_own():
    fan = complete_fan(4)
    maximal = fan.cones_of_dim(fan.max_dim)
    heavy = fan.with_weights({maximal[0].rayset: 2})
    heavier = heavy.with_weights({maximal[1].rayset: 3})
    rebuilt = Fan(fan.ambient, fan.cones)
    assert heavy._rows is fan._rows
    assert heavier._rows is fan._rows
    assert rebuilt._rows is not fan._rows
    assert not verdict(heavier)[0]
    assert "stars" in vars(fan._rows) and "stars" not in vars(rebuilt._rows)
    assert verdict(rebuilt) == (True, None)

    def stars(f):
        # the rows over each face, picked from a column holding its own row numbers
        rows = range(len(f._rows.masks))
        return [(t, pick(rows), added) for t, pick, added in f._rows.stars]

    assert stars(rebuilt) == stars(fan)


@pytest.fixture
def index_calls(monkeypatch):
    """The fans that ``_stars`` indexes and the (face masks, sorted star
    pairs) of every ``_constant_on_layers`` call, in order."""
    calls = {"stars": [], "layers": []}
    stars, layers = bergman._stars, bergman._constant_on_layers

    def counted_stars(fan):
        calls["stars"].append(fan)
        return stars(fan)

    def counted_layers(chain, star, full):
        calls["layers"].append((chain, tuple(sorted(star))))
        return layers(chain, star, full)

    monkeypatch.setattr(bergman, "_stars", counted_stars)
    monkeypatch.setattr(bergman, "_constant_on_layers", counted_layers)
    return calls


def visited_keys(fans) -> set:
    """The (face masks, sorted (added mask, weight) pairs) of every face
    up to each fan's first failing face by the per-call body, the stars
    found by containment of masks in the first fan, which all share."""
    top = fans[0].cones_of_dim(fans[0].max_dim)
    faces = fans[0].cones_of_dim(fans[0].max_dim - 1)
    stars = [
        [(i, (set(s.masks) - set(tau.masks)).pop()) for i, s in enumerate(top) if set(tau.masks) <= set(s.masks)]
        for tau in faces
    ]
    keys = set()
    for fan in fans:
        weights = [s.weight for s in fan.cones_of_dim(fan.max_dim)]
        _, failing = balance_per_call(fan)
        for tau, star in zip(fan.cones_of_dim(fan.max_dim - 1), stars):
            keys.add((tau.masks, tuple(sorted((g, weights[i]) for i, g in star))))
            if tau is failing:
                break
    return keys


def test_reweightings_index_stars_once_and_test_each_key_once(index_calls):
    """Over 40 reweighted copies of K5's fan, balanced twice over, the
    stars are indexed once and each distinct (face, star weights) pair
    runs its layer test once."""
    copies = reweightings(complete_fan(5))
    for fan in copies:
        assert not is_balanced(fan).balanced
    layers = Counter(index_calls["layers"])
    assert len(index_calls["stars"]) == 1 and max(layers.values()) == 1
    assert set(layers) == visited_keys(copies)
    done = len(index_calls["layers"])
    for fan in copies:
        assert not is_balanced(fan).balanced
    assert len(index_calls["stars"]) == 1 and len(index_calls["layers"]) == done


def test_a_memoised_verdict_does_not_skip_the_certificate(monkeypatch):
    """The maximal cones are certified before any verdict is looked up:
    with every verdict memoised and the certified flag cleared, a failing
    certificate still raises, on the fan and on a copy, and records
    nothing; the next sound call certifies every maximal cone again."""
    k5 = complete_fan(5)
    heavy = reweightings(k5, 1)[0]
    assert is_balanced(k5).balanced and not is_balanced(heavy).balanced
    rows = k5._rows
    verdicts = dict(rows.verdicts)
    del rows.certified
    monkeypatch.setattr(ila, "saturation", lambda rows: [[-x for x in r] for r in rows])
    for fan in (k5, heavy):
        with pytest.raises(RuntimeError, match="basis"):
            is_balanced(fan)
        assert "certified" not in vars(rows) and rows.verdicts == verdicts
    monkeypatch.undo()
    assert is_balanced(k5).balanced
    assert vars(rows)["certified"] is True
