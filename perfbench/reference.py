"""Independent references for the benchmark's correctness checks.

Nothing here imports normplane: every expected value comes from the
mathematics of the model (closed forms, the classical moduli of lp, a dense
curvature grid) and is computed with this module's own numerics. Each
``check_*`` function returns a list of error strings; an empty list means the
program's output agrees with the reference.

Run ``python3 perfbench/selftest.py`` to see each check accept a correct
output and reject a deliberately wrong one.
"""

from __future__ import annotations

import math

import numpy as np

#: certificates promise contractivity up to this operator-norm slack
CERTIFY_TOL = 1e-7

#: refinement tolerance allowed on top of CERTIFY_TOL (golden search on a
#: C1 sphere is accurate to ~1e-9 relative; the margin absorbs rounding)
REFINE_TOL = 1e-8

#: |T x - y| (Euclidean) allowed for a certificate
MAP_TOL = 1e-9

#: tolerance of the modulus references: relative, plus an absolute floor for
#: the cancellation in 1 - gauge(midpoint) when delta is ~1e-9 (small eps on l4)
DELTA_RTOL = 1e-5
DELTA_ATOL = 1e-12

#: relative tolerance of curvature minima
KAPPA_RTOL = 1e-8

#: dense sampling for independent operator norms (off the program's 4096 grid)
OPNORM_SAMPLES = 1 << 14
OPNORM_PHASE = (math.sqrt(5.0) - 1.0) / 2.0


# -- own root finding and golden search ----------------------------------------


def bisect_root(f, lo: float, hi: float) -> float:
    """Root of an increasing scalar function with f(lo) <= 0 <= f(hi), by
    bisection until the bracket stops shrinking."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_max(f, lo: float, hi: float, iters: int = 100) -> float:
    """Maximum value of a unimodal scalar function on [lo, hi]."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return max(fc, fd)


# -- moduli of uniform convexity -------------------------------------------------


def delta_round(eps: float) -> float:
    """Euclidean modulus 1 - sqrt(1 - eps^2 / 4); also every ellipse's, since
    the modulus is invariant under linear isomorphisms. It is Nordlander's
    upper bound for every normed plane."""
    return 1.0 - math.sqrt(1.0 - eps * eps / 4.0)


def delta_lp(p: float, eps: float) -> float:
    """Modulus of lp: Clarkson's formula for p >= 2, Hanner's equation
    (1 - d + eps/2)^p + |1 - d - eps/2|^p = 2 for 1 < p < 2."""
    if p >= 2.0:
        return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)
    if not p > 1.0:
        raise ValueError(f"Hanner's equation needs p > 1, got {p!r}")
    h = eps / 2.0

    def f(u: float) -> float:  # increasing in u = 1 - delta on [0, 1]
        return (u + h) ** p + abs(u - h) ** p - 2.0

    return 1.0 - bisect_root(f, 0.0, 1.0)


MODULUS_REFERENCE = {
    "euclidean": delta_round,
    "ellipse_2_1": delta_round,
    "l4": lambda eps: delta_lp(4.0, eps),
    "l1_5": lambda eps: delta_lp(1.5, eps),
}


def check_modulus(name: str, eps: float, value: float) -> list[str]:
    ref = MODULUS_REFERENCE[name](eps)
    errors = []
    if not abs(value - ref) <= DELTA_RTOL * ref + DELTA_ATOL:
        errors.append(f"{name}: delta({eps!r}) = {value!r}, reference {ref!r}")
    upper = delta_round(eps)
    if not (0.0 <= value <= upper * (1.0 + DELTA_RTOL) + DELTA_ATOL):
        errors.append(f"{name}: delta({eps!r}) = {value!r} outside Nordlander's [0, {upper!r}]")
    return errors


# -- curvature minima ---------------------------------------------------------------


def polar_kappa_min(constant: float, sin_terms: dict[int, float], n: int = 1 << 20) -> float:
    """Minimum over theta of the polar curvature (r^2 + 2 r'^2 - r r'') /
    (r^2 + r'^2)^(3/2) of r = constant + sum a sin(k theta): dense grid, then
    golden refinement of the grid minimum."""

    def kappa(th):
        th = np.asarray(th, dtype=float)
        r = np.full_like(th, constant)
        r1 = np.zeros_like(th)
        r2 = np.zeros_like(th)
        for k, a in sin_terms.items():
            r += a * np.sin(k * th)
            r1 += a * k * np.cos(k * th)
            r2 -= a * k * k * np.sin(k * th)
        return (r * r + 2.0 * r1 * r1 - r * r2) / (r * r + r1 * r1) ** 1.5

    h = 2.0 * math.pi / n
    grid = (np.arange(n) + 0.5) * h
    j = int(np.argmin(kappa(grid)))
    return -golden_max(lambda t: -float(kappa(t)), grid[j] - h, grid[j] + h)


ELLIPSE_AXES = (2.0, 1.0)  # ellipse_2_1: semi-axes a = 2 (x), b = 1 (y)
PIG_PROFILE = (1.0, {4: 1.0 / 34.0})  # grandpa_pig_strict: r = 1 + sin(4 theta) / 34
NOBST_DEPTH = 19
HEXAGON = [(1.0, 0.0), (0.5, 1.0), (-0.5, 1.0), (-1.0, 0.0), (-0.5, -1.0), (0.5, -1.0)]

_kappa_cache: dict[str, float] = {}


def kappa_min_reference(name: str) -> float:
    if name not in _kappa_cache:
        a, b = ELLIPSE_AXES
        _kappa_cache[name] = {
            # an ellipse is flattest at the ends of its minor axis: b / a^2
            "ellipse_2_1": lambda: b / (a * a),
            "grandpa_pig_strict": lambda: polar_kappa_min(*PIG_PROFILE),
            # the staircase's flattest arc has curvature 2^-depth
            "nobst": lambda: 2.0 ** -NOBST_DEPTH,
            # polygon faces have zero curvature
            "hexagon": lambda: 0.0,
        }[name]()
    return _kappa_cache[name]


# -- verdict kinds from the theory ---------------------------------------------------

VERDICTS = {
    # strictly convex C2 profile with curvature bounded below (~0.531): discs
    # everywhere with bounded ratio, and the UMST criterion applies
    "grandpa_pig_strict": {"st": "yes", "bst": "yes", "umst": "eligible_yes"},
    # a linear image of the round plane: every grade holds, and tangent-shrink
    # maps near the identity are exact isometries up to eps
    "ellipse_2_1": {"st": "yes", "bst": "yes", "umst": "eligible_yes"},
    # the paper's staircase: discs everywhere, but their ratio diverges along
    # ever flatter arcs; a circle-arc chain is not C2, so UMST is undecided
    "nobst": {"st": "yes", "bst": "no", "umst": "unknown"},
    # corners have no inner disc, faces have zero curvature and a vanishing modulus
    "hexagon": {"st": "no", "bst": "no", "umst": "no"},
}


def _face_angles() -> list[tuple[float, float]]:
    angles = [math.atan2(y, x) % (2.0 * math.pi) for x, y in HEXAGON]
    return [(angles[i], angles[(i + 1) % len(angles)]) for i in range(len(angles))]


def check_verdict(name: str, verdict: dict, sweep_n: int = 1024) -> list[str]:
    """Check one ``normplane classify`` verdict (the report's "verdict" object)."""
    errors = []
    want = VERDICTS[name]
    for grade in ("st", "bst", "umst"):
        got = verdict[grade]["kind"]
        if got != want[grade]:
            errors.append(f"{name}: {grade} kind {got!r}, theory says {want[grade]!r}")
    kmin = verdict["umst"]["kappa_min"]
    ref = kappa_min_reference(name)
    if not (isinstance(kmin, (int, float)) and abs(kmin - ref) <= KAPPA_RTOL * ref + 1e-15):
        errors.append(f"{name}: kappa_min {kmin!r}, reference {ref!r}")
    flats = verdict["flat_points"]
    if name == "hexagon":
        # one flat interval per face, each within two grid steps of the face's angular span
        step = 2.0 * 2.0 * math.pi / sweep_n
        faces = _face_angles()
        matched = set()
        for lo, hi in flats:
            for i, (a, b) in enumerate(faces):
                b = b if b > a else b + 2.0 * math.pi
                for shift in (0.0, 2.0 * math.pi, -2.0 * math.pi):
                    if abs(lo + shift - a) <= step and abs(hi + shift - b) <= step:
                        matched.add(i)
        if len(flats) != 6 or len(matched) != 6:
            errors.append(f"{name}: flat intervals {flats!r} do not match the 6 faces")
    elif flats:
        errors.append(f"{name}: strictly convex sphere reported flat intervals {flats!r}")
    if name == "ellipse_2_1":
        rows = verdict["umst"]["delta_table"]
        if not rows or any(row["failures"] != 0 for row in rows):
            errors.append(f"{name}: UMST table rows {rows!r} must all have zero failures")
        a, b = ELLIPSE_AXES
        # at the minor-axis vertex the outer disc is at least the osculating
        # circle (radius a^2 / b) and the inner disc at most radius b
        lam = verdict["bst"]["lambda"]
        if not (isinstance(lam, (int, float)) and lam >= (a / b) ** 2 * (1.0 - 1e-5)):
            errors.append(f"{name}: disc ratio {lam!r} below (a / b)^2 = {(a / b) ** 2!r}")
    return errors


# -- orbit certificates -------------------------------------------------------------


def ellipse_gauge(pts: np.ndarray) -> np.ndarray:
    a, b = ELLIPSE_AXES
    pts = np.atleast_2d(pts)
    return np.sqrt((pts[:, 0] / a) ** 2 + (pts[:, 1] / b) ** 2)


def pig_gauge(pts: np.ndarray) -> np.ndarray:
    constant, terms = PIG_PROFILE
    pts = np.atleast_2d(pts)
    th = np.arctan2(pts[:, 1], pts[:, 0])
    g = constant + sum(a * np.sin(k * th) for k, a in terms.items())
    return np.hypot(pts[:, 0], pts[:, 1]) / g


CLOSED_FORM_GAUGE = {"ellipse_2_1": ellipse_gauge, "grandpa_pig_strict": pig_gauge}


def sphere_point(gauge, theta: float) -> np.ndarray:
    u = np.array([math.cos(theta), math.sin(theta)])
    return u / gauge(u)[0]


def sampled_operator_norm(gauge, mat: np.ndarray) -> float:
    """sup of gauge(T z) / gauge(z) over directions z: a dense phase-shifted
    grid, then two zoom rounds of 257 samples around the four best angles."""
    def ratio(th):
        units = np.column_stack([np.cos(th), np.sin(th)])
        return gauge(units @ mat.T) / gauge(units)

    h = 2.0 * math.pi / OPNORM_SAMPLES
    th = (np.arange(OPNORM_SAMPLES) + OPNORM_PHASE) * h
    vals = ratio(th)
    best = float(vals.max())
    for _ in range(2):
        centers = th[np.argsort(-vals)[:4]]
        th = (centers[:, None] + np.linspace(-h, h, 257)[None, :]).ravel()
        vals = ratio(th)
        best = max(best, float(vals.max()))
        h /= 128.0
    return best


def ellipse_operator_norm(mat: np.ndarray) -> float:
    """Closed form: the spectral norm of M^(1/2) T M^(-1/2), M = diag(1/a^2, 1/b^2)."""
    a, b = ELLIPSE_AXES
    half = np.diag([1.0 / a, 1.0 / b])
    return float(np.linalg.norm(half @ mat @ np.linalg.inv(half), 2))


def check_orbit(name: str, theta_x: float, theta_y: float, x, y, mat, op_norm: float,
                inv_norm: float, gauge=None) -> list[str]:
    """Check one certificate T (2x2 ``mat``) sending sphere point x (at polar
    angle theta_x) to y. ``gauge`` is the program's gauge, used only for the
    models without a closed form here."""
    errors = []
    mat = np.asarray(mat, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = CLOSED_FORM_GAUGE.get(name, gauge)
    if name in CLOSED_FORM_GAUGE:
        for label, theta, pt in (("x", theta_x, x), ("y", theta_y, y)):
            ref = sphere_point(g, theta)
            if not np.max(np.abs(ref - pt)) <= MAP_TOL:
                errors.append(f"{name}: sphere point {label} {pt!r} off the reference {ref!r}")
        x, y = sphere_point(g, theta_x), sphere_point(g, theta_y)
    miss = float(np.hypot(*(mat @ x - y)))
    if not miss <= MAP_TOL:
        errors.append(f"{name}: |T x - y| = {miss!r}")
    if name == "ellipse_2_1":
        ref = ellipse_operator_norm(mat)
    else:
        ref = sampled_operator_norm(g, mat)
    hi = 1.0 + CERTIFY_TOL + REFINE_TOL
    lo = 1.0 - REFINE_TOL  # T maps the unit vector x to the unit vector y
    for label, value in (("certified", op_norm), ("reference", ref)):
        if not lo <= value <= hi:
            errors.append(f"{name}: {label} operator norm {value!r} outside [1, 1 + {CERTIFY_TOL}]")
    if not abs(op_norm - ref) <= REFINE_TOL:
        errors.append(f"{name}: certified operator norm {op_norm!r}, reference {ref!r}")
    if not inv_norm >= lo:
        errors.append(f"{name}: inverse norm {inv_norm!r} below 1")
    return errors
