"""Declared isometry groups: each family's subgroup of the eight signed
permutations is sound (every declared g keeps the gauge) and maximal (every
other signed permutation moves it), on random members of every family, and
validate() rejects a false declaration."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hst

from normplane import geometry, models
from normplane.errors import NotSymmetric

EIGHT = geometry.SIGNED_PERMUTATIONS

#: the subgroups a drawn polygon is made invariant under: +-I, the axis
#: flips, the diagonal swaps, the quarter turns, all eight
_SUBGROUPS = ([0, 1], [0, 1, 2, 3], [0, 1, 4, 5], [0, 1, 6, 7], list(range(8)))

#: parameters are multiples of a power of 2 (or drawn from short lists), so
#: a drawn member is either exactly symmetric under g or far from it
_SIXTEENTHS = hst.integers(1, 32).map(lambda k: k / 16.0)
_EXPONENTS = hst.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 4.0, math.inf])


@hst.composite
def polar_profiles(draw):
    """1 + up to three even harmonics, cos or sin, of total weight
    sum |a_n| (n^2 + 1) <= 0.9, which keeps the profile convex."""
    ns = draw(hst.lists(hst.sampled_from([2, 4, 6, 8]), min_size=1, max_size=3, unique=True))
    terms = {"cos": {}, "sin": {}}
    for n in ns:
        for kind in draw(hst.sampled_from([("cos",), ("sin",), ("cos", "sin")])):
            weight = draw(hst.sampled_from([-0.15, -0.05, 0.05, 0.15]))
            terms[kind][n] = weight / (n * n + 1)
    return models.make_polar(sin_terms=terms["sin"], cos_terms=terms["cos"])


def _hull(points):
    """The strictly convex hull of points, counterclockwise (exact on
    dyadic coordinates)."""
    pts = sorted(set(map(tuple, points)))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) - (
                out[-1][1] - out[-2][1]
            ) * (p[0] - out[-2][0]) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(pts[::-1])


@hst.composite
def polygons(draw):
    """The hull of the orbit of one to three dyadic points under a drawn
    subgroup."""
    group = EIGHT[draw(hst.sampled_from(_SUBGROUPS))]
    seeds = draw(hst.lists(hst.tuples(_SIXTEENTHS, _SIXTEENTHS), min_size=1, max_size=3))
    signs = draw(hst.lists(hst.sampled_from([-1.0, 1.0]), min_size=len(seeds), max_size=len(seeds)))
    seeds = np.array(seeds) * np.column_stack([np.ones(len(seeds)), signs])
    vertices = _hull(np.concatenate([seeds @ g.T for g in group]))
    assume(len(vertices) >= 4)
    return models.make_polygon(vertices)


@hst.composite
def ellipse_pairs(draw):
    """A form and a partner: a second form, its image under a flip, a swap
    or a quarter turn, or itself (one ellipse)."""
    a, b = draw(_SIXTEENTHS), draw(_SIXTEENTHS)
    c = draw(hst.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5])) * min(a, b)
    m1 = np.array([[a, c], [c, b]])
    partner = draw(hst.sampled_from(["other", "flip", "swap", "turn", "same"]))
    if partner == "other":
        d = draw(_SIXTEENTHS)
        m2 = np.array([[d, 0.0], [0.0, draw(_SIXTEENTHS)]])
    else:
        g = EIGHT[{"flip": 2, "swap": 4, "turn": 6, "same": 0}[partner]]
        m2 = g @ m1 @ g.T
    return models.make_ellipse_pair(m1, m2)


def quadrant_mixes():
    return hst.builds(models.make_quadrant_mix, _EXPONENTS, _EXPONENTS)


def lp_norms():
    return _EXPONENTS.map(models.make_lp)


@hst.composite
def spliced_chains(draw):
    """make_spliced_arcs with the splice point in the open fourth quadrant:
    junction angles in (-pi / 2, -asin((R - 1) / R))."""
    radius = draw(hst.sampled_from([1.5, 2.0, 3.0, 5.0]))
    top = -math.asin((radius - 1.0) / radius)
    fraction = draw(hst.sampled_from([0.2, 0.5, 0.8]))
    return models.make_spliced_arcs(radius, -math.pi / 2 + fraction * (top + math.pi / 2))


_BASES = {
    "polar": polar_profiles(),
    "polygon": polygons(),
    "ellipse_pair": ellipse_pairs(),
    "quadrant_mix": quadrant_mixes(),
    "lp": lp_norms(),
    "arc_chain": spliced_chains(),
}


def _blends(base):
    return hst.builds(models.make_blend, base, hst.sampled_from([0.1, 1.0, 3.0]))


_FAMILIES = {
    **_BASES,
    **{f"blend:{name}": _blends(base) for name, base in _BASES.items()},
    **{f"dual:{name}": base.map(models.dual_model) for name, base in _BASES.items()},
}

_POINTS = np.random.default_rng(5).normal(size=(400, 2))


def _moves(model, g) -> float:
    """max |gauge(g x) - gauge(x)| / gauge(x) over the random points x."""
    base = model.gauge_many(_POINTS)
    return float(np.max(np.abs(model.gauge_many(_POINTS @ g.T) - base) / base))


@pytest.mark.parametrize("family", _FAMILIES)
@given(data=hst.data())
@settings(max_examples=25, deadline=None)
def test_declared_group_is_sound_and_maximal(family, data):
    model = data.draw(_FAMILIES[family])
    declared = model.symmetries()
    assert np.array_equal(declared[:2], EIGHT[:2])
    for g in EIGHT:
        if geometry.declares(model, g):
            assert _moves(model, g) <= 1e-13, g
        else:
            assert _moves(model, g) > 1e-9, g


def test_gallery_groups():
    # the groups measured on the gallery by gauge equality at random points
    from normplane import gallery

    names = {"I": 0, "-I": 1, "F1": 2, "F2": 3, "S": 4, "-S": 5, "R": 6, "-R": 7}
    d4, c4 = set(names), {"I", "-I", "R", "-R"}
    d2, swaps = {"I", "-I", "F1", "F2"}, {"I", "-I", "S", "-S"}
    want = {
        **dict.fromkeys(["euclidean", "l1", "linf", "l1_5", "l4", "blend_l4", "two_ellipses"], d4),
        **dict.fromkeys(["grandpa_pig", "grandpa_pig_strict"], c4),
        **dict.fromkeys(["spliced", "nobst", "ellipse_2_1", "hexagon"], d2),
        **dict.fromkeys(["quadrant_mix", "l2_l1_hybrid"], swaps),
    }
    for name, model in gallery.all_models().items():
        got = {key for key, j in names.items() if geometry.declares(model, EIGHT[j])}
        assert got == want[name], name
        assert len(model.symmetries()) == len(got), name


def _declaring(model, extra):
    """model, unvalidated, declaring its group and the signed permutations
    extra besides."""
    group = np.concatenate([model._declared_symmetries(), EIGHT[extra]])
    model._declared_symmetries = lambda: group
    return model


@pytest.mark.parametrize(
    "mutant",
    [
        # the hexagon's quarter turn maps the vertex (0.5, 1) to (-1, 0.5),
        # of gauge 1.25
        lambda: _declaring(
            models.PolygonNorm(np.array([(1, 0), (0.5, 1), (-0.5, 1), (-1, 0), (-0.5, -1), (0.5, -1)])),
            [6, 7],
        ),
        # a flip negates sin(4 theta)
        lambda: _declaring(models.PolarNorm(1.0, {}, {4: 0.05}), [2, 3]),
        lambda: _declaring(models.PolarNorm(1.0, {}, {4: 0.05}), [4, 5]),
        # the mix's flips exchange its l1.5 and l4 quadrants
        lambda: _declaring(models.QuadrantMixNorm(1.5, 4.0), [2, 3]),
    ],
)
def test_validate_rejects_a_false_declaration(mutant):
    # a flip folds the caches, so a false one leaves non-sphere points in the
    # fine cache; every declared g is gauged there
    with pytest.raises(NotSymmetric):
        mutant().validate()
