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
from .curvature import INF
from .errors import SelfCheckFailed
from .geometry import SpherePoint
from .numerics import golden_min, phase_grid
from .tangency import MIN_DISC_RADIUS, OUTER_DISC_CAP

#: sweep resolution for verdicts
SWEEP_N = 1024

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


def _coarse_disc_radii(model, thetas, points, supports):
    """Unrefined inner/outer radii: the extremes of psi on the fine cache."""
    fine = model.fine_points()
    fine_thetas = phase_grid(len(fine))
    r_in = np.empty(len(thetas))
    r_out = np.empty(len(thetas))
    chunk = 128
    for lo in range(0, len(thetas), chunk):
        sl = slice(lo, lo + chunk)
        psi = tangency.psi_table(points[sl], supports[sl], thetas[sl], fine, fine_thetas)
        r_in[sl] = np.nanmin(psi, axis=1)
        r_out[sl] = np.nanmax(psi, axis=1)
    return r_in, r_out


def tangency_sweep(model) -> TangencySweep:
    """Sweep of disc radii over the cache grid plus the model's feature
    angles and the refined curvature extrema.

    Existence decisions only need the coarse psi profile together with exact
    one-sided curvatures, so features are evaluated in one batch; the fully
    refined per-point path stays behind inner_disc / outer_disc.
    """
    if model._sweep is not None:
        return model._sweep
    cache = model.sphere_cache()
    thetas = cache["thetas"]
    extra = np.unique(
        np.round(
            np.concatenate([model.feature_thetas(), kappa_extrema_thetas(model)])
            % (2.0 * np.pi),
            12,
        )
    )
    r_in, r_out = _coarse_disc_radii(model, thetas, cache["points"], cache["supports"])
    k_lo = cache["kappas"].copy()
    k_hi = cache["kappas"].copy()
    is_kink = cache["kink"]
    if len(extra):
        feat = geometry.sphere_data(model, extra)
        ri, ro = _coarse_disc_radii(model, extra, feat["points"], feat["supports"])
        sided = np.array([model.curvature_sided(float(th)) for th in extra])
        thetas = np.concatenate([thetas, extra])
        r_in = np.concatenate([r_in, ri])
        r_out = np.concatenate([r_out, ro])
        k_lo = np.concatenate([k_lo, sided[:, 0]])
        k_hi = np.concatenate([k_hi, sided[:, 1]])
        is_kink = np.concatenate([is_kink, feat["kink"]])
    r_in = np.minimum(r_in, np.where(k_hi <= 0, np.inf, 1.0 / np.maximum(k_hi, 1e-300)))
    # corners carry no local outer constraint; smooth zero-curvature points do
    osc_out = np.where(
        is_kink | (k_lo == INF),
        0.0,
        np.where(k_lo <= 0, np.inf, 1.0 / np.maximum(k_lo, 1e-300)),
    )
    r_out = np.maximum(r_out, osc_out)
    inner_ok = np.isfinite(r_in) & (r_in >= MIN_DISC_RADIUS) & (k_hi < INF)
    outer_ok = (
        np.isfinite(r_out)
        & (r_out <= OUTER_DISC_CAP)
        & ((k_lo >= 1e-9) | is_kink)
    )
    model._sweep = TangencySweep(thetas, r_in, r_out, inner_ok, outer_ok)
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
        idx = np.where(mask)[0]
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
    sweep_min = float(np.nanmin(np.where(np.isfinite(model.sphere_cache()["kappas"]),
                                         model.sphere_cache()["kappas"], np.nan)))
    for th in kappa_extrema_thetas(model):
        k = float(model.curvature_theta_many(np.array([th]))[0])
        if np.isfinite(k):
            sweep_min = min(sweep_min, k)
    for th in model.feature_thetas():
        lo, _ = model.curvature_sided(float(th))
        sweep_min = min(sweep_min, lo)
    return sweep_min


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

    Rows are (eps, delta, n_pairs, n_failures).
    """
    offsets = np.geomspace(1e-3, 0.75, n_off)
    pair_a = np.repeat(phase_grid(n_a), n_off)
    pair_b = pair_a + np.tile(offsets, n_a)
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
        rows.append((float(eps), delta, int(len(mats)), int(failing.sum())))
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
    (density is not decidable by sampling, so the field is labelled likely)."""
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
