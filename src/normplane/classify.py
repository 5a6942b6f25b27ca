"""Semitransitivity grades as executable, grid-certified criteria.

Terminology used throughout: a plane is *semitransitive* (ST) when every
unit-sphere point maps to every other under some norm-contractive invertible
linear map; *boundedly semitransitive* (BST) when the inverses can be kept
uniformly bounded; *uniformly micro-semitransitive* (UMST) when nearby points
are connected by maps near the identity, uniformly. The geometric criteria:
ST needs inner and outer tangent discs everywhere; BST needs their radii
ratio uniformly bounded (equivalently power-type-2 convexity moduli both ways);
UMST holds for C2 spheres with strictly positive curvature.

Verdicts are grid-certified, never proofs: each carries the sweep resolution,
and Boundary / Unknown states exist instead of overclaiming.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, models as _models, moduli, semigroup, tangency
from .errors import BadParameter, SelfCheckFailed
from .geometry import SpherePoint
from .numerics import angle_dist, golden_min, phase_grid
from .tangency import MIN_DISC_RADIUS, OUTER_DISC_CAP

#: sweep resolution for verdicts: every sweep runs on the sphere cache's grid
SWEEP_N = _models.SPHERE_CACHE_N

#: disc-ratio thresholds: Yes below, No above, Unknown between
BST_RATIO_YES = 1e2
BST_RATIO_NO = 1e4

#: strictly-positive-curvature floor for UMST eligibility
KAPPA_FLOOR = 1e-6

#: orbit success fraction for the pilgrim probe
PILGRIM_THRESHOLD = 0.99

#: pair grid of the empirical micro-transitivity table
TABLE_A_POINTS = 256
TABLE_OFFSETS = 32


@dataclass(frozen=True)
class StVerdict:
    kind: str  # yes / no / boundary
    witness_theta: float | None = None
    missing_side: str | None = None


@dataclass(frozen=True)
class BstVerdict:
    kind: str  # yes / no / unknown
    lam: float | None = None
    reason: str | None = None


@dataclass(frozen=True)
class UmstVerdict:
    kind: str  # eligible_yes / no / unknown
    kappa_min: float | None = None
    delta_table: tuple = ()
    reason: str | None = None


@dataclass(frozen=True)
class Verdict:
    st: StVerdict
    bst: BstVerdict
    umst: UmstVerdict
    flat_points: tuple
    pilgrim_dense: str
    sweep_n: int = SWEEP_N


@dataclass
class TangencySweep:
    """Per-theta tangent-disc radii over the sweep grid plus feature points."""

    thetas: np.ndarray
    r_inner: np.ndarray
    r_outer: np.ndarray
    inner_ok: np.ndarray
    outer_ok: np.ndarray


def tangency_sweep(model) -> TangencySweep:
    """Sweep of disc radii over the cache grid plus the model's feature
    angles and the refined curvature extrema.

    Existence decisions only need the coarse psi profile together with exact
    one-sided curvatures, so features are evaluated in one batch; the fully
    refined per-point path stays behind inner_disc / outer_disc. Both apply
    the same rule (tangency.disc_bounds, tangency.disc_exists).
    """
    if model._sweep is not None:
        return model._sweep
    cache = model.sphere_cache()
    thetas, points, supports = cache["thetas"], cache["points"], cache["supports"]
    k_lo = k_hi = cache["kappas"]
    kink = cache["kink"]
    features = model.feature_thetas()
    extrema = kappa_extrema_thetas(model)
    # an extremum that converged onto a feature row is that row
    near = angle_dist(extrema[:, None], features[None, :]) <= geometry.KINK_TOL
    extra = np.unique(
        np.round(np.concatenate([features, extrema[~near.any(axis=1)]]) % (2.0 * np.pi), 12)
    )
    if len(extra):
        feat = geometry.sphere_data(model, extra)
        extra_lo, extra_hi = model.curvature_sided_many(extra)
        thetas = np.concatenate([thetas, extra])
        points = np.concatenate([points, feat["points"]])
        supports = np.concatenate([supports, feat["supports"]])
        k_lo = np.concatenate([k_lo, extra_lo])
        k_hi = np.concatenate([k_hi, extra_hi])
        kink = np.concatenate([kink, feat["kink"]])
    r_in, r_out = tangency.sweep_radii(model, thetas, points, supports, k_lo, k_hi, kink)
    model._sweep = TangencySweep(thetas, r_in, r_out, *tangency.disc_exists(r_in, r_out))
    return model._sweep


def kappa_extrema_thetas(model) -> np.ndarray:
    """Golden-refined local extrema of the sphere-curvature profile."""
    if model._kappa_extrema is not None:
        return model._kappa_extrema
    cache = model.sphere_cache()
    kap = cache["kappas"]
    thetas = cache["thetas"]
    n = len(kap)
    finite = np.where(np.isfinite(kap), kap, np.nan)
    out = []
    h = 2.0 * np.pi / n
    with np.errstate(invalid="ignore"):
        is_min = (finite <= np.roll(finite, 1)) & (finite <= np.roll(finite, -1))
        is_max = (finite >= np.roll(finite, 1)) & (finite >= np.roll(finite, -1))
    for mask, sign in ((is_min, 1.0), (is_max, -1.0)):
        # adjacent grid extrema of one sign are equal (each is <= and >= the
        # other), so a run of them brackets one extremum of the profile or is
        # a stretch where it is constant: only the run's first point is refined
        idx = np.nonzero(mask & ~np.roll(mask, 1))[0] if not mask.all() else np.zeros(1, dtype=int)
        # keep a handful of the strongest extrema only
        if len(idx) > 8:
            order = np.argsort(sign * finite[idx])
            idx = idx[order[:8]]
        if len(idx) == 0:
            continue
        t, _ = golden_min(
            lambda th: sign * model.curvature_theta_many(th),
            thetas[idx] - h,
            thetas[idx] + h,
            iters=50,
        )
        out.extend(t % (2.0 * np.pi))
    model._kappa_extrema = np.asarray(sorted(out))
    return model._kappa_extrema


def refined_kappa_min(model) -> float:
    """Minimum sphere curvature, including the refined extrema."""
    kap = np.concatenate(
        [model.sphere_cache()["kappas"], model.curvature_theta_many(kappa_extrema_thetas(model))]
    )
    sweep_min = float(np.nanmin(np.where(np.isfinite(kap), kap, np.nan)))
    k_lo, _ = model.curvature_sided_many(model.feature_thetas())
    return float(np.min(k_lo, initial=sweep_min))


def classify_st(model, dual_check: bool = False) -> StVerdict:
    """ST verdict: every swept point must admit inner and outer discs.

    With ``dual_check`` the numerically sampled dual plane is swept as well
    and the verdicts are required to agree; SelfCheckFailed if they do not.
    """
    verdict = _classify_st_primal(model)
    if dual_check:
        dual = _models.dual_model(model)
        dual_verdict = _classify_st_primal(dual)
        if dual_verdict.kind != verdict.kind:
            raise SelfCheckFailed(
                f"dual ST verdict {dual_verdict.kind} disagrees with {verdict.kind}"
            )
    return verdict


def _classify_st_primal(model) -> StVerdict:
    sweep = tangency_sweep(model)
    bad_inner = np.where(~sweep.inner_ok)[0]
    bad_outer = np.where(~sweep.outer_ok)[0]
    if len(bad_inner):
        j = bad_inner[0]
        return StVerdict("no", float(sweep.thetas[j]), "inner")
    if len(bad_outer):
        j = bad_outer[0]
        return StVerdict("no", float(sweep.thetas[j]), "outer")
    # within 10% of the operational cutoffs the grid cannot tell the sides apart
    near_floor = np.min(sweep.r_inner) < 1.1 * MIN_DISC_RADIUS
    near_cap = np.max(sweep.r_outer[np.isfinite(sweep.r_outer)]) > 0.9 * OUTER_DISC_CAP
    if near_floor or near_cap:
        return StVerdict("boundary")
    return StVerdict("yes")


def classify_bst(model) -> BstVerdict:
    """BST verdict from power-type-2 fits (both ways) and the uniform
    inner/outer disc-radius ratio across the sweep."""
    fit = moduli.power2_fit(moduli.delta_curve(model))
    if fit is None:
        return BstVerdict("no", reason="uniform-convexity modulus vanishes at this resolution")
    dual = _models.dual_model(model)
    dual_fit = moduli.power2_fit(moduli.delta_curve(dual))
    if dual_fit is None:
        return BstVerdict("no", reason="dual modulus vanishes (smoothness side fails)")
    sweep = tangency_sweep(model)
    if not (np.all(sweep.inner_ok) and np.all(sweep.outer_ok)):
        return BstVerdict("no", reason="some point lacks an inner or outer disc")
    ratio = float(np.max(sweep.r_outer / sweep.r_inner))
    if ratio <= BST_RATIO_YES:
        return BstVerdict("yes", lam=ratio)
    if ratio >= BST_RATIO_NO:
        return BstVerdict("no", reason=f"outer/inner disc ratio diverges ({ratio:.3g})")
    return BstVerdict("unknown", lam=ratio, reason="disc ratios large but not clearly divergent")


def classify_umst(model) -> UmstVerdict:
    """UMST verdict: eligibility needs a C2 family and strictly positive
    refined minimum curvature; eligible models get the empirical
    eps -> delta table from the pair sweep."""
    kmin = refined_kappa_min(model)
    if not np.isfinite(kmin) or kmin <= KAPPA_FLOOR:
        return UmstVerdict("no", kappa_min=kmin, reason="sphere curvature is not bounded below")
    kap = model.sphere_cache()["kappas"]
    if np.any(~np.isfinite(kap)):
        return UmstVerdict("no", kappa_min=kmin, reason="sphere curvature unbounded above")
    if not model.is_c2:
        return UmstVerdict(
            "unknown",
            kappa_min=kmin,
            reason="curvature positive but the family is not C2; hypothesis unverifiable",
        )
    table = umst_delta_table(model, (0.05, 0.1, 0.2, 0.4))
    return UmstVerdict("eligible_yes", kappa_min=kmin, delta_table=table)


def umst_delta_table(model, eps_values, n_a: int = TABLE_A_POINTS, n_off: int = TABLE_OFFSETS):
    """Empirical micro-transitivity table: for each eps, the largest sampled
    distance delta such that every swept tangent-shrink map between points
    closer than delta certifies contractive.

    The pairs are the n_a base points of the phase grid, each with n_off
    offsets. Only the first n_a / 2 base points are swept: the pair at
    a + pi and b + pi is (-pa, -pb), whose tangent-shrink map is
    (-D)(-S)^-1 = D S^-1 and whose distance is gauge(-(pa - pb)) =
    gauge(pa - pb), so it fails exactly when its twin does. The counts are
    reported doubled, for the whole grid.

    Rows are (eps, delta, n_pairs, n_failures).
    """
    if n_a < 2 or n_a % 2:
        raise BadParameter(f"table base points must be even and at least 2, got {n_a!r}")
    if n_off < 1:
        raise BadParameter(f"table offsets must be at least 1, got {n_off!r}")
    offsets = np.geomspace(1e-3, 0.75, n_off)
    pair_a = np.repeat(phase_grid(n_a // 2, np.pi), n_off)
    pair_b = pair_a + np.tile(offsets, n_a // 2)
    a = geometry.sphere_data(model, pair_a)
    b = geometry.sphere_data(model, pair_b)
    pa, ta, pb, tb = a["points"], a["tangents"], b["points"], b["tangents"]
    dists = model.gauge_many(pa - pb)
    src = np.stack([pa, ta], axis=-1)
    src_inv = np.linalg.inv(src)
    rows = []
    for eps in eps_values:
        dst = np.stack([pb, (1.0 - eps) * tb], axis=-1)
        mats = dst @ src_inv
        ops = np.empty(len(mats))
        chunk = 2048
        for lo in range(0, len(mats), chunk):
            ops[lo : lo + chunk] = geometry.operator_norm_batch(model, mats[lo : lo + chunk])
        failing = ops > 1.0 + semigroup.CERTIFY_TOL
        if np.any(failing):
            delta = float(dists[failing].min())
        else:
            delta = float(dists.max())
        rows.append((float(eps), delta, 2 * len(mats), 2 * int(failing.sum())))
    return tuple(rows)


def find_flat(model) -> tuple:
    """Maximal angular intervals where the cached sphere is collinear.

    Candidate runs come from consecutive-triple collinearity; each run must
    then pass whole-run collinearity against its chord, which separates true
    faces from merely low-curvature stretches at this resolution.
    """
    cache = model.sphere_cache()
    pts = cache["points"]
    thetas = cache["thetas"]
    n = len(pts)
    # flat[j]: the triple j, j + 1, j + 2 (cyclically) is collinear
    flat = semigroup.collinear_triples(np.vstack([pts, pts[:2]]))
    if not np.any(flat):
        return ()
    # walk runs of consecutive flat triples, with wraparound
    first_break = int(np.argmin(flat))
    if flat[first_break]:
        return ()  # everything collinear would mean a degenerate sphere
    intervals = []
    order = (np.arange(n) + first_break) % n
    run: list[int] = []
    for j in order:
        if flat[j]:
            run.append(j)
            continue
        if run:
            intervals.append(run)
            run = []
    if run:
        intervals.append(run)
    out = []
    for run in intervals:
        idx = [run[0]] + [(j + 1) % n for j in run] + [(run[-1] + 2) % n]
        if semigroup.on_chord(pts[idx]):
            lo = float(thetas[idx[0]])
            hi = float(thetas[idx[-1]])
            if hi < lo:
                hi += 2.0 * np.pi
            out.append((lo, hi))
    return tuple(out)


def pilgrim_probe(model, x: SpherePoint, grid: int = 512) -> str:
    """likely_yes when the orbit of x reaches at least 99% of a target grid
    via certified contractions, likely_no otherwise."""
    if grid < 1:
        raise BadParameter(f"pilgrim grid must be at least 1, got {grid!r}")
    thetas = phase_grid(grid)
    hits = 0
    for th in thetas:
        y = geometry.sphere_point(model, float(th))
        cert = semigroup.orbit_map(model, x, y)
        if cert is not None and cert.is_contractive:
            hits += 1
    return "likely_yes" if hits >= PILGRIM_THRESHOLD * grid else "likely_no"


def classify(model, dual_check: bool = False, pilgrim_grid: int = 0) -> Verdict:
    """Full verdict; the pilgrim probe runs only when a grid size is given
    (density is not decidable by sampling, so the field is labelled likely);
    0 means no probe."""
    if pilgrim_grid < 0:
        raise BadParameter(f"pilgrim grid must be 0 (off) or positive, got {pilgrim_grid!r}")
    st = classify_st(model, dual_check=dual_check)
    bst = classify_bst(model)
    umst = classify_umst(model)
    flat = find_flat(model)
    pilgrim = "unknown"
    if pilgrim_grid:
        probes = []
        for th in (0.4, 1.9, 3.3, 5.1):
            sp = geometry.sphere_point(model, th)
            if sp.smooth:
                probes.append(pilgrim_probe(model, sp, grid=pilgrim_grid))
        if probes:
            yes = sum(p == "likely_yes" for p in probes)
            pilgrim = "likely_yes" if yes > len(probes) / 2 else "likely_no"
    return Verdict(st=st, bst=bst, umst=umst, flat_points=flat, pilgrim_dense=pilgrim)
