"""The lane-wise golden-section search and zoom and the circle maximum built
on them, bisection plateaus, Illinois root polishing and the sorted distinct
values."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from normplane import gallery, models, tangency
from normplane.numerics import (
    INVPHI,
    INVPHI2,
    ZOOM_POINTS,
    bisect_batch,
    circle_max,
    golden_min,
    illinois_batch,
    phase_grid,
    sorted_unique,
    zoom_min,
    zoom_rounds,
)


def _scalar_golden(f, lo, hi, iters):
    """Textbook golden-section search on one bracket, one point at a time."""
    a, b = float(lo), float(hi)
    h = b - a
    c, d = a + INVPHI2 * h, a + INVPHI * h
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INVPHI * h
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def _wavy(t):
    return np.cos(3.0 * t) + 0.3 * np.sin(7.0 * t + 0.2)


def test_lanes_match_single_runs_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(40):
        lo = rng.uniform(-4.0, 4.0, 8)
        hi = lo + rng.uniform(1e-6, 2.0, 8)
        for iters in (0, 1, 40, 80):
            xs, vs = golden_min(_wavy, lo, hi, iters)
            for k in range(8):
                x1, v1 = golden_min(_wavy, lo[k : k + 1], hi[k : k + 1], iters)
                assert x1[0] == xs[k] and v1[0] == vs[k]
                xr, vr = _scalar_golden(lambda t: float(_wavy(np.array([t]))[0]), lo[k], hi[k], iters)
                assert xr == xs[k] and vr == vs[k]


def test_finds_known_minima():
    centers = np.linspace(-2.0, 2.0, 8)
    lo, hi = centers - 0.7, centers + 0.4
    # shifted cosine: a smooth minimum, so the value is exact to rounding and
    # the argmin to about sqrt(machine epsilon)
    xs, vs = golden_min(lambda t: -np.cos(t - centers), lo, hi, 80)
    assert np.max(np.abs(vs + 1.0)) <= 1e-9
    assert np.max(np.abs(xs - centers)) <= 1e-7
    # a corner minimum pins the argmin itself
    xs, vs = golden_min(lambda t: np.abs(t - centers) + 0.5, lo, hi, 80)
    assert np.max(np.abs(xs - centers)) <= 1e-9
    assert np.max(np.abs(vs - 0.5)) <= 1e-9


def test_nan_and_inf_lanes_leave_the_others_alone():
    lo = np.linspace(0.0, 3.5, 8)
    hi = lo + 0.4  # disjoint brackets
    bad = np.array([False, True, False, False, True, False, False, True])
    fill = np.array([np.nan, np.nan, np.nan, np.nan, np.inf, np.nan, np.nan, -np.inf])

    def f(t):
        # the lane a point belongs to is the bracket that holds it
        lane = np.searchsorted(lo, t, side="right") - 1
        return np.where(bad[lane], fill[lane], _wavy(t))

    xs, vs = golden_min(f, lo, hi, 40)
    xg, vg = golden_min(_wavy, lo[~bad], hi[~bad], 40)
    assert np.array_equal(xs[~bad], xg) and np.array_equal(vs[~bad], vg)
    assert np.isnan(vs[1]) and vs[4] == np.inf and vs[7] == -np.inf
    assert np.all((xs >= lo) & (xs <= hi))


def test_zoom_lanes_match_single_runs_bit_for_bit():
    rng = np.random.default_rng(6)
    for _ in range(20):
        centers = rng.uniform(-4.0, 4.0, 8)
        for h, rounds in ((0.3, 0), (0.3, 1), (1e-3, 7), (0.5, 14)):
            xs, vs = zoom_min(_wavy, centers, h, rounds)
            for k in range(8):
                x1, v1 = zoom_min(_wavy, centers[k : k + 1], h, rounds)
                assert x1[0] == xs[k] and v1[0] == vs[k]


def test_zoom_finds_known_minima():
    centers = np.linspace(-2.0, 2.0, 8)
    start = centers + np.linspace(-0.3, 0.3, 8)

    def smooth(x):
        return -np.cos(x - centers[:, None])

    xs, vs = zoom_min(smooth, start, 0.5, zoom_rounds(80))
    assert np.max(np.abs(vs + 1.0)) <= 1e-15
    assert np.max(np.abs(xs - centers)) <= 1e-7
    assert np.array_equal(smooth(xs[:, None])[:, 0], vs)

    def corner(x):
        return np.abs(x - centers[:, None]) + 0.5

    xs, vs = zoom_min(corner, start, 0.5, zoom_rounds(80))
    assert np.max(np.abs(xs - centers)) <= 1e-14
    assert np.max(np.abs(vs - 0.5)) <= 1e-14
    # on a flat function the first round takes its first sample, and a
    # later value that only ties the running best keeps that angle
    xs, vs = zoom_min(lambda x: 0.0 * x, start, 0.5, 7)
    assert np.array_equal(xs, start - 0.5) and not vs.any()


def test_zoom_rounds_reach_the_golden_bracket():
    # 14 rounds for the certificates' 80 steps, 7 for the per-point 40; the
    # last sample step is no wider than golden's last bracket, one round
    # fewer would be
    assert (zoom_rounds(80), zoom_rounds(40)) == (14, 7)
    shrink = 2.0 / (ZOOM_POINTS - 1)
    for iters in (0, 1, 10, 40, 60, 80):
        r = zoom_rounds(iters)
        golden = 2.0 * INVPHI**iters
        assert shrink**r <= golden * (1.0 + 1e-12)
        assert r == 0 or shrink ** (r - 1) > golden


def test_zoom_passes_over_nan_keeps_inf():
    # NaN samples never become a lane's centre or its value: lane 1 is NaN
    # everywhere and keeps its centre, value inf, as lane 4, inf everywhere,
    # does; one NaN sample on lane 5 changes nothing. Infinite samples are
    # kept, as golden_min keeps them: lane 2's -inf at its minimum becomes
    # its value and angle
    centers = np.linspace(0.0, 3.5, 8)
    h = 0.2
    grid = centers[:, None] + np.linspace(-h, h, ZOOM_POINTS)
    dead = {1: np.nan, 4: np.inf}
    spike = {2: (int(np.argmin(_wavy(grid[2]))), -np.inf), 5: (3, np.nan)}

    def f(x):
        v = _wavy(x)
        for lane, value in dead.items():
            v[lane] = value
        for lane, (j, value) in spike.items():
            v[lane] = np.where(x[lane] == grid[lane, j], value, v[lane])
        return v

    xs, vs = zoom_min(f, centers, h, 7)
    ok = np.array([0, 3, 5, 6, 7])
    xg, vg = zoom_min(_wavy, centers[ok], h, 7)
    assert np.array_equal(xs[ok], xg) and np.array_equal(vs[ok], vg)
    assert vs[1] == vs[4] == np.inf and xs[1] == centers[1] and xs[4] == centers[4]
    assert vs[2] == -np.inf and xs[2] == grid[2, spike[2][0]]


def _zoom_per_round_linspace(f, center, h, rounds):
    """zoom_min as it was written before its ramp and stop rule: a fresh
    linspace each round, every round run."""
    center = np.array(center, dtype=float, ndmin=1)
    rows = np.arange(center.size)
    arg, best = center.copy(), np.full(center.size, np.inf)
    for _ in range(rounds):
        local = center[:, None] + np.linspace(-h, h, ZOOM_POINTS)
        v = f(local)
        v = np.where(np.isnan(v), np.inf, v)
        j = np.argmin(v, axis=1)
        center, low = local[rows, j], v[rows, j]
        up = low < best
        arg, best = np.where(up, center, arg), np.where(up, low, best)
        h = 2.0 * h / (ZOOM_POINTS - 1)
    return arg, best


def test_zoom_ramp_and_stop_rule_keep_every_bit():
    """Over the certificates' 14 rounds from a fine-cache step, the lanes near
    6 collapse onto their centres (their windows round to one float) after
    about 10 rounds, while a lane near 1e-3, where floats are denser, stays
    open: the search runs every round for it and stops once all lanes have
    collapsed, and either way returns the per-round-linspace loop's angles
    and values bit for bit."""
    h = 2.0 * np.pi / 4096
    targets = np.array([6.0 + 1.234567e-4, 6.1 - 7.654321e-4, 1.0e-3 + 3.21e-7])

    def f(x):
        calls.append(x.shape[0])
        return np.abs(x - targets[: x.shape[0], None])

    for lanes, full in ((3, True), (2, False)):
        centers = targets[:lanes] + 0.37 * h
        calls = []
        got = zoom_min(f, centers, h, 14)
        assert (len(calls) == 14) == full and len(calls) >= 9
        want = _zoom_per_round_linspace(f, centers, h, 14)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # the open lane keeps closing in on its target after the others stop
        if full:
            assert got[1][2] < _zoom_per_round_linspace(f, centers, h, 11)[1][2]


def test_zoom_of_two_rounds_is_the_modulus_zoom():
    # moduli._zoom_min is two rounds from the grid argmin, window one grid
    # step, shrinking 16x a round
    from normplane import moduli

    n = 128
    rows = np.arange(4)
    vals = np.cos(3.0 * phase_grid(n)[None, :] + rows[:, None])

    def f(x):
        return np.cos(3.0 * x + rows[:, None])

    start = phase_grid(n)[np.argmin(vals, axis=1)]
    want = np.full(4, np.inf)
    for h in (2.0 * np.pi / n, 2.0 * np.pi / n / 16.0):
        local = start[:, None] + np.linspace(-h, h, 33)
        v = f(local)
        j = np.argmin(v, axis=1)
        want, start = np.minimum(want, v[rows, j]), local[rows, j]
    assert np.array_equal(moduli._zoom_min(f, vals), want)


def test_circle_max_zoom_calls_f_once_a_round():
    rows_seen = []

    def f(rows, t):
        rows_seen.append(rows.size)
        return _rows_wavy(rows, t)

    vals = _rows_wavy(np.arange(3)[:, None], phase_grid(64)[None, :])
    circle_max(f, vals, 4, 40, centers=np.full((3, 2), 1.0), zoom=True)
    assert rows_seen == [3 * 6 * ZOOM_POINTS] * zoom_rounds(40)


def test_refined_max_ignores_nan_lanes():
    # psi is NaN in the exclusion zone around the base point, so some lanes
    # of a disc_radii refinement can come out NaN; those lanes must drop out
    # without hiding the refined maximum of the others
    n = 256
    thetas = (np.arange(n) + 0.5) * (2.0 * np.pi / n)

    def val(th):
        th = np.asarray(th, dtype=float)
        return np.where(np.abs(th - math.pi) < 0.2, np.nan, np.cos(th))

    vals = np.cos(thetas)
    # four seeds inside the NaN band rank just below the grid maximum, so
    # they share the search with the seeds around the true maximum at 0
    band = np.searchsorted(thetas, math.pi) + np.arange(-2, 2)
    vals[band] = vals.max() - 1e-5
    assert abs(tangency._refined_max(val, vals) - 1.0) <= 1e-15
    everywhere_nan = lambda th: np.full(np.shape(th), np.nan)  # noqa: E731
    assert tangency._refined_max(everywhere_nan, vals) == vals.max()


def test_refined_max_reaches_a_corner_maximum():
    # |T z| over the hexagon's sphere peaks at a vertex, a kink, where a
    # search's error is linear in its last step: the 7-round zoom reads the
    # vertex maximum within 1e-11 relative (3.4e-13 on these maps; 40 golden
    # steps 7.6e-13, 4 rounds 3.6e-9)
    model = gallery.get("hexagon")
    fine = model.fine_points()
    for mat in np.random.default_rng(61).normal(size=(32, 2, 2)):
        def val(th, mat=mat):
            z = model.sphere_points_at(th) @ mat.T
            return np.hypot(z[:, 0], z[:, 1])

        v = model.vertices @ mat.T
        exact = np.hypot(v[:, 0], v[:, 1]).max()
        got = tangency._refined_max(val, np.hypot(*(fine @ mat.T).T))
        assert abs(got - exact) <= 1e-11 * exact


def test_max_within_rejects_on_the_grid():
    # the refined max is never below the grid's, so a grid sample above the
    # bound decides without refining; a NaN grid still refines
    thetas = phase_grid(256)
    calls = []

    def val(th):
        calls.append(th)
        return np.cos(th)

    vals = np.cos(thetas)
    assert not tangency._max_within(val, vals, 0.5) and not calls
    # the grid maximum cos(pi / 256) lies below the refined maximum 1
    assert not tangency._max_within(val, vals, vals.max()) and calls
    assert tangency._max_within(val, vals, 1.0 + 1e-12)
    vals[5] = np.nan
    calls.clear()
    assert tangency._max_within(val, vals, 2.0) == (tangency._refined_max(val, vals) <= 2.0)
    assert calls


def _rows_wavy(rows, t):
    # one smooth periodic function per row, each with several local maxima
    return np.cos(3.0 * t + rows) + 0.3 * np.sin(7.0 * t + 0.2 * rows)


def test_circle_max_matches_dense_brute_force():
    rows = np.arange(5)
    vals = _rows_wavy(rows[:, None], phase_grid(64)[None, :])
    dense = phase_grid(1 << 20)
    brute = np.array([np.max(_rows_wavy(r, dense)) for r in rows])
    for seeds, zoom in ((1, False), (4, False), (1, True), (4, True)):
        maxima, angles = circle_max(_rows_wavy, vals, seeds, 40, zoom=zoom)
        assert np.max(np.abs(maxima - brute)) <= 1e-10
        assert np.array_equal(_rows_wavy(rows, angles), maxima)


def _argsort_seed_maxima(f, vals, seeds, iters):
    """circle_max's zoomed maxima with the seeds of each row taken by a full
    argsort, as before argpartition: each finite seed's window zoomed alone,
    not below the grid maximum."""
    k, n = vals.shape
    h = 2.0 * np.pi / n
    out = vals.max(axis=1)
    for r in range(k):

        def lane(x, r=r):
            return -f(np.full(x.shape, r), x)

        for j in np.argsort(-vals[r], kind="stable")[:seeds]:
            if np.isfinite(vals[r, j]):
                out[r] = max(out[r], -zoom_min(lane, [(j + 0.5) * h], h, zoom_rounds(iters))[1][0])
    return out


def test_circle_max_argpartition_seeds_give_the_argsort_maxima():
    """The seeds by argpartition refine the same samples as a full argsort, so
    the maxima are the same, with more seeds than samples as well (every
    sample a seed) and with an infinite sample at a row's maximum (+inf is
    the row's maximum, -inf, as psi's zone reads, is no seed)."""
    rows = np.arange(4)
    for n, seeds in ((64, 8), (96, 3), (6, 8)):
        vals = _rows_wavy(rows[:, None], phase_grid(n)[None, :])
        vals[1, np.argmax(vals[1])] = np.inf
        vals[2, np.argmax(vals[2])] = -np.inf
        got = circle_max(_rows_wavy, vals, seeds, 40, zoom=True)[0]
        assert np.array_equal(got, _argsort_seed_maxima(_rows_wavy, vals, seeds, 40)) and got[1] == np.inf


def test_circle_max_ties_keep_the_first_grid_maximum():
    vals = np.zeros((2, 16))
    vals[:, [3, 10]] = 1.0
    # row 0 refines below the grid, row 1 only ties it
    level = np.array([0.5, 1.0])
    for zoom in (False, True):
        maxima, angles = circle_max(lambda rows, t: level[rows] + 0.0 * t, vals, 1, 40, zoom=zoom)
        assert maxima.tolist() == [1.0, 1.0]
        assert angles.tolist() == [phase_grid(16)[3]] * 2


def test_phase_grid_of_period_pi_is_the_first_half():
    for n in (2, 256, 512):
        assert np.array_equal(phase_grid(n // 2, np.pi), phase_grid(n)[: n // 2])


def test_circle_max_on_half_a_period_is_the_full_scan():
    # a pi-periodic row function sampled on the first half of the grid gives,
    # bit for bit, the full scan of the samples repeated
    rows = np.arange(5)

    def f(r, t):
        return _rows_wavy(r, 2.0 * t)

    half = f(rows[:, None], phase_grid(32, np.pi)[None, :])
    got = circle_max(f, half, 1, 40, np.pi)
    want = circle_max(f, np.tile(half, 2), 1, 40)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_circle_max_drops_nan_lanes_and_non_finite_rows():
    n = 256
    vals = np.cos(phase_grid(n))[None, :].repeat(4, axis=0)
    vals[2] = -np.inf
    vals[3] = np.inf
    seen = []

    def f(rows, t):
        seen.extend(rows.tolist())
        # every lane of row 1 comes out NaN
        return np.where(rows == 1, np.nan, np.cos(t))

    maxima, angles = circle_max(f, vals, 8, 40)
    assert abs(maxima[0] - 1.0) <= 1e-15
    assert maxima[1] == vals[1].max() and angles[1] == phase_grid(n)[np.argmax(vals[1])]
    assert maxima[2] == -np.inf and maxima[3] == np.inf
    assert angles[2] == angles[3] == phase_grid(n)[0]
    assert set(seen) == {0, 1}


def test_illinois_places_roots_in_few_steps():
    """Grid-step brackets of smooth increasing functions, as the modulus
    curve hands them over: 8 steps reach the root to rounding, lane by lane
    as in lone runs."""
    h = 2.0 * np.pi / 1024
    roots = np.linspace(0.1, 3.0, 50)
    a = np.floor(roots / h) * h
    b = a + h

    def f(x):
        return np.sin(0.5 * x) - np.sin(0.5 * roots)

    got = illinois_batch(f, a, b, f(a), f(b), 8)
    assert np.all(np.abs(got - roots) <= 1e-14)
    for j in (0, 17, 49):
        one = slice(j, j + 1)

        def g(x):
            return np.sin(0.5 * x) - np.sin(0.5 * roots[one])

        assert illinois_batch(g, a[one], b[one], g(a[one]), g(b[one]), 8)[0] == got[j]


def test_bisect_plateau_end_follows_lo():
    """f <= 0 moves lo: on a plateau f = 0 the result is its end farthest
    from lo, whichever side lo starts on."""

    def f(x):
        return np.where(x < 1.0, -1.0, np.where(x > 2.0, 1.0, 0.0))

    up = bisect_batch(lambda x: f(x) <= 0, np.array([0.0]), np.array([3.0]), 60)[0]
    down = bisect_batch(lambda x: -f(x) <= 0, np.array([3.0]), np.array([0.0]), 60)[0]
    assert up == pytest.approx(2.0, abs=1e-12)
    assert down == pytest.approx(1.0, abs=1e-12)


def _textbook_bisect(moves_lo, lo: float, hi: float, iters: int) -> float:
    """Bisection on one bracket, one midpoint at a time."""
    a, b = lo, hi
    for _ in range(iters):
        m = 0.5 * (a + b)
        if moves_lo(m):
            a = m
        else:
            b = m
    return 0.5 * (a + b)


_BRACKET_END = hst.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    ends=hst.lists(hst.tuples(_BRACKET_END, _BRACKET_END, hst.floats(0.0, 1.0)), min_size=1, max_size=6),
    iters=hst.integers(0, 60),
)
def test_bisect_lanes_match_the_textbook_loop(ends, iters):
    """Each lane of bisect_batch is the textbook loop on its bracket, bit for
    bit, for brackets either way round and for a predicate that holds on a
    plateau (a lane whose root is an end of it)."""
    lo, hi, t = (np.array(column) for column in zip(*ends))
    root = lo + t * (hi - lo)

    def moves_lo(x, root=root, lo=lo):
        return (x - root) * (root - lo) <= 0.0

    got = bisect_batch(moves_lo, lo, hi, iters)
    for j in range(len(ends)):
        want = _textbook_bisect(lambda x: bool(moves_lo(x, root[j], lo[j])), lo[j], hi[j], iters)
        assert got[j] == want


# few distinct values, so that draws repeat them; both zeros among them
_REPEATING = hst.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e300, math.pi])
_FINITE = hst.floats(allow_nan=False, allow_infinity=False)


@given(values=hst.lists(hst.one_of(_REPEATING, _FINITE), max_size=60))
@example(values=[0.0, -0.0])
@example(values=[-0.0, 0.0, -0.0])
@example(values=[])
@settings(max_examples=300, deadline=None)
def test_sorted_unique_is_np_unique(values):
    # the same values in the same order, and the same zero where both occur
    x = np.array(values, dtype=float)
    got, want = sorted_unique(x), np.unique(x)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(sorted_unique(x.reshape(-1, 1)), want)
