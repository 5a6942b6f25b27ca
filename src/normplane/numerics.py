"""Small numeric building blocks: the phase-offset circle grid, the sorted
distinct values of an array, two lane-wise minimum searches (golden section,
one point per lane a step, and a zoom, one batched call of ZOOM_POINTS points
per lane a round) and the circle maximum that refines with either, batched
bisection and Illinois root polishing, finite-difference stencils, 2x2
matrix helpers (quadratic forms, symmetric powers, rotations), and the block
size of the memory-bound classification tables.

Golden section needs the fewest evaluations, the zoom the fewest calls: on a
few lanes a call of the model's gauge costs about the same for 4 rows as for
64, so the per-point searches zoom. The sweeps stay golden, which keeps the
classification's output as it was; a zoom as fine would gauge about six
times the points per lane there.

All routines are pure and deterministic for fixed iteration counts.
"""

from __future__ import annotations

import math

import numpy as np

INVPHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0  # 1/phi^2

#: points per lane in each round of zoom_min
ZOOM_POINTS = 33

#: entries per block of the memory-bound classification tables (the disc
#: sweep's psi table, the UMST table's grid images): 256 KiB of doubles, so a
#: block's temporaries stay in cache
BLOCK_POINTS = 1 << 15


def phase_grid(n: int, period: float = 2.0 * np.pi) -> np.ndarray:
    """The n angles (k + 1/2) period / n: the circle grid offset by half a
    step, so that features at rational multiples of pi never land on samples.

    With period pi it is the first half of the 2n-grid, bit for bit (the
    steps pi / n and 2 pi / (2n) are one float). The 2n-grid's second half
    is its first turned by pi, so a function with f(theta + pi) = f(theta),
    such as anything even on the sphere, is searched on this half at half
    the cost.
    """
    return (np.arange(n) + 0.5) * (period / n)


def angle_dist(a, b):
    """Distance on the circle between the angles a and b, in [0, pi]."""
    return np.abs((a - b + np.pi) % (2.0 * np.pi) - np.pi)


def sorted_unique(x) -> np.ndarray:
    """The distinct values of the finite array x, flattened and sorted, each
    run of equal values kept by its first element after the sort: np.unique
    bit for bit (the sign of a zero included), which sorts floats the same
    way, without the numpy.ma import that np.unique makes on its first
    call."""
    x = np.sort(np.ravel(x))
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def golden_min(f, lo, hi, iters: int = 80):
    """Lane-wise golden-section minimum: lo, hi are arrays of brackets and
    f maps an array of points to an array of values, elementwise.

    Every lane keeps the classic bookkeeping of one fresh evaluation per step,
    reusing the other interior point, and f is called once per step on the
    array of the lanes' new points; so each lane returns bit for bit what a
    search on its bracket alone returns. A lane whose f is NaN leaves the
    others alone. Returns (argmins, mins) as arrays; 80 iterations shrink a
    bracket by ~1e-17.
    """
    a = np.array(lo, dtype=float, ndmin=1)
    b = np.array(hi, dtype=float, ndmin=1)
    h = b - a
    c, d = a + INVPHI2 * h, a + INVPHI * h
    fc, fd = f(c), f(d)
    for _ in range(iters):
        # left lanes keep [a, d] and evaluate a new c; the others keep [c, b]
        # and evaluate a new d
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        h = b - a
        x = np.where(left, a + INVPHI2 * h, a + INVPHI * h)
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    left = fc < fd
    return np.where(left, c, d), np.where(left, fc, fd)


def zoom_min(f, center, h: float, rounds: int):
    """Lane-wise zoom minimum: each round calls f once on the (k, ZOOM_POINTS)
    array of angles spanning center +- h, row r for lane r, and each lane
    recentres on its smallest sample, the window shrinking to one sample
    step, h = 2h / (ZOOM_POINTS - 1). The middle sample is the centre itself,
    so the running best never rises, and a value that only ties it keeps the
    earlier angle. Lanes are independent: each returns bit for bit what a
    search on its centre alone returns.

    The offsets are one ramp, linspace(-h, h, ZOOM_POINTS), scaled by the
    shrink 1/16 each round: scaling by a power of 2 is exact, so the ramp is
    linspace(-h', h', ZOOM_POINTS) of the round's h' bit for bit (above the
    subnormals). The search stops once every lane's window rounds onto its
    centre: such a round samples the centre alone, whose value is already
    the running best, so it changes nothing.

    NaN samples are passed over, and a lane with no other sample returns
    inf; infinite samples are kept, as golden_min keeps them, so a refined
    maximum that meets an infinite sample reads infinite. Returns (argmins,
    mins) as arrays."""
    center = np.array(center, dtype=float, ndmin=1)
    rows = np.arange(center.size)
    arg, best = center.copy(), np.full(center.size, np.inf)
    ramp = np.linspace(-h, h, ZOOM_POINTS)
    for _ in range(rounds):
        local = center[:, None] + ramp
        # the ramp's ends round onto the centre only if all of it does
        if np.array_equal(local[:, 0], center) and np.array_equal(local[:, -1], center):
            break
        v = f(local)
        v = np.where(np.isnan(v), np.inf, v)
        j = np.argmin(v, axis=1)
        center, low = local[rows, j], v[rows, j]
        up = low < best
        arg, best = np.where(up, center, arg), np.where(up, low, best)
        ramp *= 2.0 / (ZOOM_POINTS - 1)
    return arg, best


def zoom_rounds(iters: int) -> int:
    """The fewest zoom_min rounds whose last sample step on a window +- h is
    no wider than the final bracket of an ``iters``-step golden_min on
    [-h, h]: the step after r rounds is h (2 / (ZOOM_POINTS - 1))^r, the
    bracket 2h / phi^iters; 14 rounds for 80 steps, 7 for 40."""
    shrink = (ZOOM_POINTS - 1) / 2.0
    return math.ceil((iters * math.log(1.0 / INVPHI) - math.log(2.0)) / math.log(shrink))


def circle_max(f, vals, seeds: int, iters: int, period: float = 2.0 * np.pi, centers=None, zoom=False):
    """Maxima over the circle of k functions from their samples vals, shape
    (k, n), on phase_grid(n, period): the ``seeds`` largest finite samples
    of each row are refined over one grid step h = period / n either side,
    as lanes of one ``iters``-step golden_min, or with ``zoom`` of one
    zoom_min of zoom_rounds(iters) rounds, where f(rows, thetas) evaluates
    each lane's row function at its angle; ``centers`` (k, m) adds m such
    windows per row, around angles the grid leaves unsampled. NaN refined
    values are ignored. Returns (maxima, argmax angles); a refined value that
    only ties the grid keeps the grid angle. Either search is lane-wise, so a
    row's result does not depend on the other rows.

    For pi-periodic functions pass period pi and the samples on the first
    half of the 2n-grid: with one seed the result is bit for bit that of the
    full 2n-grid whose second half repeats the first, since argmax picks the
    first of the twins and the step is the same float."""
    k, n = vals.shape
    h = period / n
    top = np.argmax(vals, axis=1)
    # argmax picks the first maximum; more seeds are the row's largest
    # samples by argpartition (a full argsort of a large table is slow),
    # largest first, equal ones by index
    if seeds == 1:
        idx = top[:, None]
    else:
        seeds = min(seeds, n)
        idx = np.sort(np.argpartition(-vals, seeds - 1, axis=1)[:, :seeds], axis=1)
        order = np.argsort(-np.take_along_axis(vals, idx, axis=1), axis=1, kind="stable")
        idx = np.take_along_axis(idx, order, axis=1)
    keep = np.isfinite(np.take_along_axis(vals, idx, axis=1))
    th = (idx + 0.5) * h
    if centers is not None:
        th, keep = np.hstack([th, centers]), np.hstack([keep, np.isfinite(centers)])
    rows = np.nonzero(keep)[0]
    t = v = th = th[keep]
    if rows.size and zoom:
        lane_rows = np.repeat(rows, ZOOM_POINTS)

        def lanes(x):
            return -f(lane_rows, x.ravel()).reshape(x.shape)

        t, v = zoom_min(lanes, th, h, zoom_rounds(iters))
    elif rows.size:
        t, v = golden_min(lambda x: -f(rows, x), th - h, th + h, iters)
    refined = np.full(keep.shape, -np.inf)
    refined[keep] = np.where(np.isnan(v), -np.inf, -v)
    angles = np.zeros(keep.shape)
    angles[keep] = t
    lane = np.argmax(refined, axis=1)
    best = refined[np.arange(k), lane]
    grid = vals[np.arange(k), top]
    up = best > grid
    return np.where(up, best, grid), np.where(up, angles[np.arange(k), lane], (top + 0.5) * h)


def bisect_batch(moves_lo, lo, hi, iters: int = 80):
    """Vectorized bisection on brackets [lo, hi] for where the predicate
    moves_lo (an array of points -> a bool array) turns from true to false.

    Assumes moves_lo(lo) holds and moves_lo(hi) does not, componentwise (the
    root of f with f(lo) <= 0 <= f(hi) is moves_lo = f <= 0); lo may lie
    above hi. Each midpoint where moves_lo holds becomes the lo end, so where
    it holds on an interval the result is its end farthest from lo. Returns
    the midpoint array after `iters` halvings.
    """
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    for _ in range(iters):
        m = 0.5 * (a + b)
        up = moves_lo(m)
        np.copyto(a, m, where=up)
        np.copyto(b, m, where=~up)
    return 0.5 * (a + b)


def illinois_batch(f, a, b, fa, fb, iters: int):
    """Lane-wise regula falsi with the Illinois modification for roots of f
    on brackets [a, b] with fa = f(a) < 0 <= fb = f(b).

    Each step calls f once on the array of the lanes' secant roots x; x
    replaces the end whose sign it shares (f(x) >= 0 replaces b), and an end
    kept two steps running has its value halved, which keeps convergence
    superlinear where plain regula falsi stalls on one side. Returns the last
    secant roots.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    kept_a = kept_b = np.zeros(a.shape, dtype=bool)
    x = b
    for _ in range(iters):
        x = b - fb * (b - a) / (fb - fa)
        fx = f(x)
        up = fx >= 0
        fa = np.where(up & kept_a, 0.5 * fa, fa)
        fb = np.where(~up & kept_b, 0.5 * fb, fb)
        a, fa = np.where(up, a, x), np.where(up, fa, fx)
        b, fb = np.where(up, x, b), np.where(up, fx, fb)
        kept_a, kept_b = up, ~up
    return x


def stencil5_d1(values, h: float):
    """First derivative from a 5-point symmetric stencil [-2h..2h]."""
    fm2, fm1, _, fp1, fp2 = values
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)


def stencil5_d2(values, h: float):
    """Second derivative from a 5-point symmetric stencil [-2h..2h]."""
    fm2, fm1, f0, fp1, fp2 = values
    return (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)


# -- 2x2 symmetric positive-definite helpers ---------------------------------


def spd_power(mat: np.ndarray, exponent: float) -> np.ndarray:
    """Matrix power of a symmetric positive-definite 2x2 matrix."""
    w, v = np.linalg.eigh(np.asarray(mat, dtype=float))
    if w.min() <= 0:
        raise ValueError("matrix not positive definite")
    return (v * w**exponent) @ v.T


def quad_form(pts: np.ndarray, m: np.ndarray) -> np.ndarray:
    """z^T M z for each row z = (x, y) of pts: x m00 x + x m01 y + y m10 x +
    y m11 y, the operand order of np.einsum("ij,jk,ik->i"), so the values
    match it bit for bit at a fraction of its cost on size-2 axes (on a
    single row einsum adds the two cross terms in the other order)."""
    x, y = pts[:, 0], pts[:, 1]
    return x * m[0, 0] * x + x * m[0, 1] * y + y * m[1, 0] * x + y * m[1, 1] * y


def rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])
