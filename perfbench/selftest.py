"""Self-test of the benchmark's references and checks (numpy only, no normplane).

Shows that each reference agrees with an identity it must satisfy, and that
each check accepts a correct output and rejects a deliberately wrong one
(a flipped verdict kind, delta off by 1e-3, a certificate of operator norm
1.01, ...). Prints one PASS/FAIL line per case and exits 1 if any fails.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import sys

import numpy as np

import reference as R

failures = 0


def expect(label: str, ok: bool) -> None:
    global failures
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    failures += not ok


def accepts(label: str, errors: list[str]) -> None:
    expect(f"accepts {label}", errors == [])
    for err in errors:
        print("   ", err)


def rejects(label: str, errors: list[str]) -> None:
    expect(f"rejects {label}", len(errors) > 0)


def references() -> None:
    eps = np.geomspace(0.02, 2.0, 25)
    expect("Clarkson at p = 2 is the round modulus",
           all(abs(R.delta_lp(2.0, e) - R.delta_round(e)) <= 1e-15 for e in eps))
    for p in (1.2, 1.5, 1.8):
        residual = max(
            abs((1 - d + e / 2) ** p + abs(1 - d - e / 2) ** p - 2.0)
            for e in eps for d in [R.delta_lp(p, e)]
        )
        expect(f"Hanner root at p = {p} solves its equation (residual {residual:.1e})", residual <= 1e-13)
        # eps = 2 is a double root of Hanner's equation: bisection resolves it
        # to ~sqrt(machine epsilon)
        expect(f"delta_lp({p}, 2) = 1", abs(R.delta_lp(p, 2.0) - 1.0) <= 1e-7)
        small = 1e-3
        expect(f"lp, p = {p}: delta ~ (p - 1) eps^2 / 8 as eps -> 0",
               abs(R.delta_lp(p, small) / ((p - 1) * small * small / 8) - 1.0) <= 1e-3)
    expect("Hanner at p -> 2 meets the round modulus",
           max(abs(R.delta_lp(2.0 - 1e-9, e) - R.delta_round(e)) for e in eps) <= 1e-7)
    expect("Nordlander: l4 and l1.5 stay below the round modulus",
           all(R.delta_lp(p, e) <= R.delta_round(e) for p in (1.5, 4.0) for e in eps))
    expect("polar curvature of a circle is 1", abs(R.polar_kappa_min(1.0, {}) - 1.0) <= 1e-15)
    expect("amplitude 1/17 on the fourth harmonic degenerates (kappa_min = 0)",
           abs(R.polar_kappa_min(1.0, {4: 1.0 / 17.0})) <= 1e-9)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        mat = rng.normal(size=(2, 2))
        worst = max(worst, abs(R.sampled_operator_norm(R.ellipse_gauge, mat)
                               - R.ellipse_operator_norm(mat)))
    expect(f"sampled operator norm meets the ellipse's closed form (gap {worst:.1e})", worst <= 1e-12)
    expect("sampled operator norm of 2 I on the polar model is 2",
           abs(R.sampled_operator_norm(R.pig_gauge, 2.0 * np.eye(2)) - 2.0) <= 1e-15)


def modulus_checks() -> None:
    for name, ref in R.MODULUS_REFERENCE.items():
        for eps in (0.03, 0.7, 2.0):
            good = ref(eps)
            accepts(f"{name} delta({eps})", R.check_modulus(name, eps, good))
            rejects(f"{name} delta({eps}) off by 1e-3", R.check_modulus(name, eps, good + 1e-3))
    rejects("a delta above Nordlander's bound", R.check_modulus("euclidean", 1.0, R.delta_round(1.0) * 1.01))


def good_verdict(name: str) -> dict:
    want = R.VERDICTS[name]
    verdict = {
        "st": {"kind": want["st"]},
        "bst": {"kind": want["bst"], "lambda": 4.0 if name == "ellipse_2_1" else None},
        "umst": {"kind": want["umst"], "kappa_min": R.kappa_min_reference(name), "delta_table": []},
        "flat_points": [],
    }
    if name == "ellipse_2_1":
        verdict["umst"]["delta_table"] = [{"eps": e, "delta": 1.2, "pairs": 8192, "failures": 0}
                                          for e in (0.05, 0.1, 0.2, 0.4)]
    if name == "hexagon":
        verdict["flat_points"] = [[a, b if b > a else b + 2 * math.pi] for a, b in R._face_angles()]
    return verdict


def verdict_checks() -> None:
    flip = {"yes": "no", "no": "yes", "eligible_yes": "no", "unknown": "eligible_yes"}
    for name in R.VERDICTS:
        accepts(f"{name} verdict", R.check_verdict(name, good_verdict(name)))
        for grade in ("st", "bst", "umst"):
            bad = good_verdict(name)
            bad[grade]["kind"] = flip[bad[grade]["kind"]]
            rejects(f"{name} verdict with {grade} flipped", R.check_verdict(name, bad))
        bad = good_verdict(name)
        bad["umst"]["kappa_min"] += 1e-3
        rejects(f"{name} kappa_min off by 1e-3", R.check_verdict(name, bad))
    bad = good_verdict("hexagon")
    bad["flat_points"] = bad["flat_points"][:5]
    rejects("hexagon with 5 flat faces", R.check_verdict("hexagon", bad))
    bad = good_verdict("hexagon")
    bad["flat_points"][0][1] -= 0.3
    rejects("hexagon with a face cut short", R.check_verdict("hexagon", bad))
    bad = good_verdict("ellipse_2_1")
    bad["umst"]["delta_table"][2]["failures"] = 1
    rejects("ellipse_2_1 with a failing UMST row", R.check_verdict("ellipse_2_1", bad))
    bad = good_verdict("grandpa_pig_strict")
    bad["flat_points"] = [[0.1, 0.2]]
    rejects("grandpa_pig_strict with a flat interval", R.check_verdict("grandpa_pig_strict", bad))


def ellipse_isometry(tx: float, ty: float, stretch: float = 1.0) -> np.ndarray:
    """The map M^(-1/2) Q S M^(1/2) sending the ellipse point at tx to the one
    at ty, where S stretches the direction orthogonal to M^(1/2) x by
    ``stretch``, which is then the map's operator norm."""
    a, b = R.ELLIPSE_AXES
    half = np.diag([1.0 / a, 1.0 / b])
    u = half @ R.sphere_point(R.ellipse_gauge, tx)
    v = half @ R.sphere_point(R.ellipse_gauge, ty)
    ang = math.atan2(v[1], v[0]) - math.atan2(u[1], u[0])
    q = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    u /= np.hypot(*u)
    s = np.eye(2) + (stretch - 1.0) * (np.eye(2) - np.outer(u, u))
    return np.linalg.inv(half) @ q @ s @ half


def orbit_checks() -> None:
    tx, ty = 0.3, 2.0
    x, y = R.sphere_point(R.ellipse_gauge, tx), R.sphere_point(R.ellipse_gauge, ty)
    t = ellipse_isometry(tx, ty)
    accepts("ellipse_2_1 isometry certificate",
            R.check_orbit("ellipse_2_1", tx, ty, x, y, t, 1.0, 1.0))
    t101 = ellipse_isometry(tx, ty, stretch=1.01)
    rejects("ellipse_2_1 certificate with operator norm 1.01",
            R.check_orbit("ellipse_2_1", tx, ty, x, y, t101, 1.01, 1.0))
    rejects("ellipse_2_1 certificate claiming 1 for a map of norm 1.01",
            R.check_orbit("ellipse_2_1", tx, ty, x, y, t101, 1.0, 1.0))
    rejects("ellipse_2_1 map that misses y",
            R.check_orbit("ellipse_2_1", tx, ty, x, y, ellipse_isometry(tx, ty + 1e-6), 1.0, 1.0))
    rejects("ellipse_2_1 with x off the sphere",
            R.check_orbit("ellipse_2_1", tx, ty, 1.001 * x, y, t, 1.0, 1.0))
    px = R.sphere_point(R.pig_gauge, 1.1)
    accepts("grandpa_pig_strict identity certificate",
            R.check_orbit("grandpa_pig_strict", 1.1, 1.1, px, px, np.eye(2), 1.0, 1.0))
    rejects("grandpa_pig_strict certificate with operator norm 1.01",
            R.check_orbit("grandpa_pig_strict", 1.1, 1.1, px, px, np.eye(2), 1.01, 1.0))
    # models without a closed form here are sampled with the gauge passed in
    accepts("sampled-gauge isometry certificate",
            R.check_orbit("spliced", tx, ty, x, y, t, 1.0, 1.0, gauge=R.ellipse_gauge))
    rejects("sampled-gauge certificate of a map with norm 1.01",
            R.check_orbit("spliced", tx, ty, x, y, t101, 1.0, 1.0, gauge=R.ellipse_gauge))
    rejects("a certificate with inverse norm below 1",
            R.check_orbit("spliced", tx, ty, x, y, t, 1.0, 0.99, gauge=R.ellipse_gauge))


def main() -> int:
    references()
    modulus_checks()
    verdict_checks()
    orbit_checks()
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
