"""Small numeric building blocks: the phase-offset circle grid, golden-section
search and the circle maximum built on it, batched bisection and Illinois
root polishing, finite-difference stencils, and 2x2 matrix helpers
(quadratic forms, symmetric powers, rotations).

All routines are pure and deterministic for fixed iteration counts.
"""

from __future__ import annotations

import numpy as np

INVPHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0  # 1/phi^2


def phase_grid(n: int) -> np.ndarray:
    """The n angles (k + 1/2) 2 pi / n: the circle grid offset by half a step,
    so that features at rational multiples of pi never land on samples."""
    return (np.arange(n) + 0.5) * (2.0 * np.pi / n)


def angle_dist(a, b):
    """Distance on the circle between the angles a and b, in [0, pi]."""
    return np.abs((a - b + np.pi) % (2.0 * np.pi) - np.pi)


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


def circle_max(f, vals, seeds: int, iters: int):
    """Maxima over the circle of k functions from their samples vals, shape
    (k, n), on the phase-offset n-grid: the ``seeds`` largest finite samples
    of each row are refined over one grid step either side, as lanes of one
    ``iters``-step golden_min, where f(rows, thetas) evaluates each lane's
    row function at its angle. NaN refined values are ignored. Returns
    (maxima, argmax angles); a refined value that only ties the grid keeps
    the grid angle."""
    k, n = vals.shape
    h = 2.0 * np.pi / n
    top = np.argmax(vals, axis=1)
    # argmax picks the first maximum; a full argsort of a large table is slow
    idx = top[:, None] if seeds == 1 else np.argsort(-vals, axis=1)[:, :seeds]
    keep = np.isfinite(np.take_along_axis(vals, idx, axis=1))
    rows = np.nonzero(keep)[0]
    th = (idx[keep] + 0.5) * h
    t = v = th
    if rows.size:
        t, v = golden_min(lambda x: -f(rows, x), th - h, th + h, iters)
    refined = np.full(idx.shape, -np.inf)
    refined[keep] = np.where(np.isnan(v), -np.inf, -v)
    angles = np.zeros(idx.shape)
    angles[keep] = t
    lane = np.argmax(refined, axis=1)
    best = refined[np.arange(k), lane]
    grid = vals[np.arange(k), top]
    up = best > grid
    return np.where(up, best, grid), np.where(up, angles[np.arange(k), lane], (top + 0.5) * h)


def bisect_batch(f, lo, hi, iters: int = 80):
    """Vectorized bisection for roots of f on brackets [lo, hi].

    Assumes f(lo) <= 0 <= f(hi) componentwise (callers arrange signs); lo
    may lie above hi. f <= 0 moves the lo end, so where f vanishes on an
    interval the result is its end farthest from lo. Returns the midpoint
    array after `iters` halvings.
    """
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        neg = fm <= 0
        a = np.where(neg, m, a)
        b = np.where(neg, b, m)
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
