import pytest

from normplane import gallery, models


@pytest.fixture
def gauge_counter():
    """count(model, run) -> (calls, points): the gauge_many calls on model
    during run() and the rows they evaluate, counted on the instance."""

    def count(model, run):
        sizes = []
        gauge_many = model.gauge_many

        def counting(pts):
            sizes.append(len(pts))
            return gauge_many(pts)

        model.gauge_many = counting
        try:
            run()
        finally:
            del model.gauge_many
        return len(sizes), sum(sizes)

    return count


@pytest.fixture(scope="session")
def euclid():
    return gallery.get("euclidean")


@pytest.fixture(scope="session")
def l1():
    return gallery.get("l1")


@pytest.fixture(scope="session")
def linf():
    return gallery.get("linf")


@pytest.fixture(scope="session")
def l1_5():
    return gallery.get("l1_5")


@pytest.fixture(scope="session")
def l4():
    return gallery.get("l4")


@pytest.fixture(scope="session")
def mix():
    return gallery.get("quadrant_mix")


@pytest.fixture(scope="session")
def hybrid():
    return gallery.get("l2_l1_hybrid")


@pytest.fixture(scope="session")
def pig():
    return gallery.get("grandpa_pig")


@pytest.fixture(scope="session")
def pig_strict():
    return gallery.get("grandpa_pig_strict")


@pytest.fixture(scope="session")
def blend_l4():
    return gallery.get("blend_l4")


@pytest.fixture(scope="session")
def spliced():
    return gallery.get("spliced")


@pytest.fixture(scope="session")
def nobst_model():
    return gallery.get("nobst")


@pytest.fixture(scope="session")
def ellipse_2_1():
    return gallery.get("ellipse_2_1")


@pytest.fixture(scope="session")
def hexagon():
    return gallery.get("hexagon")


@pytest.fixture(scope="session")
def all_gallery():
    return gallery.all_models()


@pytest.fixture(scope="session")
def two_ellipses():
    return gallery.get("two_ellipses")


@pytest.fixture(scope="session")
def cornered(l1, linf, hexagon, hybrid, two_ellipses, spliced, nobst_model):
    """Every kind of corner and curvature junction: polygons, quadrant-mix
    axes and linf vertices, ellipse crossings, arc-chain junctions, and
    blends of cornered bases."""
    exponents = ((2, "inf"), (1, 4), ("inf", 1.5))
    mixes = {f"mix({p}, {q})": models.make_quadrant_mix(p, q) for p, q in exponents}
    bases = {"l1": l1, "hexagon": hexagon, "two_ellipses": two_ellipses}
    blends = {f"blend({name})": models.make_blend(m, 1.0) for name, m in bases.items()}
    return {
        "l1": l1,
        "linf": linf,
        "hexagon": hexagon,
        "l2_l1_hybrid": hybrid,
        "two_ellipses": two_ellipses,
        **mixes,
        "spliced": spliced,
        "nobst": nobst_model,
        **blends,
    }
