"""Command-line surface: model classification, curvature profiles, moduli
curves, orbit certificates, the staircase build, figure rendering, and the
bundled reproduction checks.

Exit codes: 0 on success, 1 when a reproduction assertion or a built-in
self-check fails (``classify --dual-check``: the dual's ST verdict, or the
moduli's power-type-2 test on the BST verdict), 2 on usage errors (argparse's
default), on invalid input, such as a model file that fails validation, and
when an output file cannot be written. A failed self-check, invalid input
and a failed write print one ``normplane: error: <message>`` line to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import (
    classify,
    curvature,
    gallery,
    geometry,
    modelspec,
    moduli,
    reports,
    semigroup,
    staircase,
    svgfig,
    tangency,
)
from .errors import BadEps, NormPlaneError, SelfCheckFailed
from .geometry import LinearMap2, Vec2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NormPlaneError, OSError) as exc:
        print(f"normplane: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SelfCheckFailed) else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normplane",
        description="numerical laboratory for two-dimensional normed planes",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("classify", help="full verdict as JSON")
    p.add_argument("model_file")
    p.add_argument("--dual-check", action="store_true")
    p.add_argument("--pilgrim-grid", type=int, default=0)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("curvature", help="CSV curvature profile plus SVG sphere")
    p.add_argument("model_file")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("moduli", help="uniform-convexity curve as CSV")
    p.add_argument("model_file")
    p.add_argument("--eps-grid", default=None, help="comma-separated eps values")
    p.set_defaults(func=_cmd_moduli)

    p = sub.add_parser("orbit", help="certificate or obstruction between two angles")
    p.add_argument("model_file")
    p.add_argument("--from", dest="from_theta", type=float, required=True)
    p.add_argument("--to", dest="to_theta", type=float, required=True)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("build-nobst", help="build the staircase counterexample model")
    p.add_argument("--depth", type=int, default=staircase.DEFAULT_DEPTH)
    p.add_argument("--out", default="nobst.model")
    p.set_defaults(func=_cmd_build_nobst)

    p = sub.add_parser("render", help="SVG figure of the unit sphere")
    p.add_argument("model_file")
    p.add_argument("--overlay", choices=["discs", "ellipses"], default=None)
    p.add_argument("--theta", type=float, default=0.4, help="base point for overlays")
    p.add_argument("--out", default=None, help="output file (stdout when absent)")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("reproduce", help="run a bundled gallery check")
    p.add_argument(
        "check",
        choices=["figure1", "l1-orbits", "quadrant-mix", "grandpa-pig", "splicing", "nobst"],
    )
    p.set_defaults(func=_cmd_reproduce)
    return parser


def _cmd_classify(args) -> int:
    model = modelspec.read_model_file(args.model_file)
    verdict = classify.classify(
        model, dual_check=args.dual_check, pilgrim_grid=args.pilgrim_grid
    )
    grid = {"sweep_n": verdict.sweep_n, "fine_n": len(model.fine_points())}
    sys.stdout.write(reports.report(model, {"verdict": reports.verdict_dict(verdict), "grid": grid}))
    return 0


def _cmd_curvature(args) -> int:
    model = modelspec.read_model_file(args.model_file)
    prof = curvature.profile(model, args.n)
    stem = Path(args.model_file).stem
    out = Path(args.out)
    csv_path = out / f"{stem}_curvature.csv"
    svg_path = out / f"{stem}_sphere.svg"
    csv_path.write_text(prof.to_csv())
    svg_path.write_text(svgfig.render_model(model))
    print(csv_path)
    print(svg_path)
    return 0


def _cmd_moduli(args) -> int:
    model = modelspec.read_model_file(args.model_file)
    if args.eps_grid:
        eps = [_eps_value(t) for t in args.eps_grid.split(",")]
        values = [moduli.delta_uc(model, e) for e in eps]
        curve = moduli.ModulusCurve("uniform_convexity", np.asarray(eps), np.asarray(values))
        curve.power2_coeff = moduli.power2_fit(curve)
    else:
        curve = moduli.delta_curve(model)
    sys.stdout.write(curve.to_csv())
    sys.stderr.write(f"power2_coeff = {curve.power2_coeff!r}\n")
    return 0


def _eps_value(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise BadEps(f"eps {text!r} is not a number") from None


def _cmd_orbit(args) -> int:
    model = modelspec.read_model_file(args.model_file)
    x = geometry.sphere_point(model, args.from_theta)
    y = geometry.sphere_point(model, args.to_theta)
    cert = semigroup.orbit_map(model, x, y)
    if cert is None:
        body = {
            "orbit": None,
            "obstruction": {
                "from_inner_disc": tangency.inner_disc(model, x) is not None,
                "from_outer_disc": tangency.outer_disc(model, x) is not None,
                "to_inner_disc": tangency.inner_disc(model, y) is not None,
                "to_outer_disc": tangency.outer_disc(model, y) is not None,
            },
        }
    else:
        body = {"orbit": reports.certificate_dict(cert), "obstruction": None}
    sys.stdout.write(reports.report(model, body))
    return 0


def _cmd_build_nobst(args) -> int:
    model = staircase.build_nobst(args.depth)
    modelspec.write_model_file(model, args.out)
    witnesses = staircase.nobst_witness(model, range(1, min(args.depth, 8) + 1))
    body = {
        "written": str(args.out),
        "params": model.params,
        "witness_bounds": [[n, reports._num(b)] for n, b in witnesses],
    }
    sys.stdout.write(reports.report(model, body))
    return 0


def _cmd_render(args) -> int:
    model = modelspec.read_model_file(args.model_file)
    overlays = {}
    if args.overlay:
        sp = geometry.sphere_point(model, args.theta)
        if args.overlay == "discs":
            discs = []
            di = tangency.inner_disc(model, sp)
            do = tangency.outer_disc(model, sp)
            if di:
                discs.append((di, "inner"))
            if do:
                discs.append((do, "outer"))
            overlays["discs"] = discs
        else:
            ells = [e for e in (tangency.inner_ellipse(model, sp), tangency.outer_ellipse(model, sp)) if e]
            overlays["ellipses"] = ells
    svg = svgfig.render_model(model, overlays)
    if args.out:
        Path(args.out).write_text(svg)
        print(args.out)
    else:
        sys.stdout.write(svg)
    return 0


# -- reproduction checks -------------------------------------------------------


class _Checker:
    def __init__(self):
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str = ""):
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{tag}: {name}{suffix}")
        if not ok:
            self.failures += 1


def _cmd_reproduce(args) -> int:
    runner = {
        "figure1": _reproduce_figure1,
        "l1-orbits": _reproduce_l1_orbits,
        "quadrant-mix": _reproduce_quadrant_mix,
        "grandpa-pig": _reproduce_grandpa_pig,
        "splicing": _reproduce_splicing,
        "nobst": _reproduce_nobst,
    }[args.check]
    c = _Checker()
    runner(c)
    return 1 if c.failures else 0


def _reproduce_figure1(c: _Checker):
    l1 = gallery.get("l1")
    t1 = LinearMap2.from_matrix(np.array([[1.0, 0.0], [1.0, 2.0]]) / 2.0)
    t2 = LinearMap2.from_matrix(np.array([[3.0, 1.0], [0.0, 2.0]]) / 3.0)
    y1 = t1.apply(Vec2(0.5, 0.5))
    c.check("first map sends (1/2, 1/2) to (1/4, 3/4) exactly", (y1.x1, y1.x2) == (0.25, 0.75))
    y2 = t2.apply(Vec2(0.25, 0.75))
    c.check("second map sends (1/4, 3/4) back to (1/2, 1/2) exactly", (y2.x1, y2.x2) == (0.5, 0.5))
    for name, t in (("first", t1), ("second", t2)):
        mat = np.abs(t.matrix())
        oracle = float(mat.sum(axis=0).max())  # max column sum is the l1 operator norm
        grid = float(geometry.operator_norm(l1, t))
        c.check(
            f"{name} map has l1 operator norm 1",
            abs(grid - 1.0) <= 1e-9 and abs(oracle - 1.0) <= 1e-12,
            f"grid {grid!r}, column-sum {oracle!r}",
        )


def _reproduce_l1_orbits(c: _Checker):
    l1 = gallery.get("l1")
    e1 = geometry.sphere_point(l1, 0.0)
    rep = semigroup.l1_orbit(l1, e1)
    c.check("unit vectors reach the whole sphere", rep.reachable.kind == "all_sphere")
    x = geometry.sphere_point(l1, math.atan2(0.5, 0.5))
    rep = semigroup.l1_orbit(l1, x)
    c.check(
        "(1/2, 1/2) reaches everything except the four corners",
        rep.reachable.kind == "all_but_set" and len(rep.reachable.points) == 4,
    )
    c.check(
        "orbit witnesses certify contractive",
        all(w[1].is_contractive for w in rep.witnesses),
    )
    generic = geometry.sphere_point(l1, math.atan2(0.7, 0.3))
    rep = semigroup.l1_orbit(l1, generic)
    c.check("(0.3, 0.7) is likewise corner-blocked", rep.reachable.kind == "all_but_set")


def _reproduce_quadrant_mix(c: _Checker):
    mix = gallery.get("quadrant_mix")
    verdict = classify.classify_st(mix)
    c.check("mixed-exponent plane is not semitransitive", verdict.kind == "no",
            f"witness theta {verdict.witness_theta!r}, side {verdict.missing_side}")
    e1 = geometry.sphere_point(mix, 0.0)
    blocked = True
    for th in (0.5, 2.2, 3.8):
        y = geometry.sphere_point(mix, th)
        blocked &= semigroup.orbit_map(mix, e1, y) is None
        blocked &= semigroup.orbit_map(mix, y, e1) is None
    c.check("unit vectors exchange orbits with no generic point", blocked)


def _reproduce_grandpa_pig(c: _Checker):
    pig = gallery.get("grandpa_pig")
    c.check("polar profile 1 + sin(4 theta)/17 validates as a norm", True)
    k = pig.curvature_theta_many(np.array([math.pi / 8.0]))[0]
    c.check("curvature at theta = pi/8 equals 289/162", abs(k - 289.0 / 162.0) <= 1e-12, repr(float(k)))
    kmin = classify.refined_kappa_min(pig)
    c.check(
        "curvature degenerates at theta = 3 pi / 8 (amplitude sits on the boundary)",
        kmin <= 1e-9,
        f"refined minimum {kmin!r}",
    )
    table = classify.umst_delta_table(pig, (0.05, 0.1, 0.2, 0.4))
    for eps, delta, pairs, failures in table:
        c.check(
            f"empirical delta({eps}) positive over {pairs} pairs",
            delta > 0.0,
            f"delta {delta!r}, failures {failures}",
        )


def _reproduce_splicing(c: _Checker):
    spliced = gallery.get("spliced")
    verdict = classify.classify_st(spliced)
    c.check("spliced-arcs sphere is semitransitive", verdict.kind == "yes")
    kappas = spliced.sphere_cache()["kappas"]
    want = {0.5, 1.0 / (2.0 - math.sqrt(2.0))}
    got = set(np.round(kappas, 9))
    c.check(
        "curvature is piecewise constant at the two arc values",
        got == set(np.round(sorted(want), 9)),
        f"{sorted(got)}",
    )
    d = 3.0 - math.sqrt(2.0)
    c.check("sphere crosses the x axis at 3 - sqrt(2)", abs(spliced.gauge((d, 0.0)) - 1.0) <= 1e-12)


def _reproduce_nobst(c: _Checker):
    model = gallery.get("nobst")
    curve = staircase.integrate_curve(staircase.staircase_function(model.params["depth"]))
    c.check(
        "total turning over the staircase is 5/6",
        abs(curve.K[-1] - 5.0 / 6.0) <= 1e-6,
        repr(float(curve.K[-1])),
    )
    pos = curve.s > 0
    ratio = curve.K[pos] / curve.s[pos]
    c.check("3 s / 5 <= K(s) <= s along the staircase", bool((ratio.min() >= 0.6 - 1e-12) and (ratio.max() <= 1.0 + 1e-12)))
    dist = np.hypot(curve.points[:, 0], curve.points[:, 1] + 1.0)
    c.check("curve stays within 5/3 of (0, -1)", bool(dist.max() <= 5.0 / 3.0 + 1e-6))
    verdict = classify.classify_st(model)
    c.check("closed staircase sphere is semitransitive", verdict.kind == "yes")
    w = staircase.nobst_witness(model, range(1, 9))
    bounds = [b for _, b in w]
    increasing = all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
    c.check(
        "inverse-norm bounds grow like sqrt(2) along the staircase",
        increasing and all(1.3 <= r <= 1.6 for r in ratios),
        f"ratios {[round(r, 4) for r in ratios]}",
    )


if __name__ == "__main__":
    sys.exit(main())
