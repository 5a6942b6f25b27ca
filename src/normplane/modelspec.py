"""Model-spec files: one model per file, plain key = value lines.

Schema
------
Every file needs a ``family`` key; the remaining keys depend on it:

    family = lp                  p = 1.5          (or p = inf)
    family = polar               constant = 1.0
                                 sin = 4:0.0588   (n:amplitude, comma-separated)
                                 cos = 2:0.01
    family = quadrant_mix        p = 1.5          q = 4.0   (each in [1, inf])
    family = l2_l1_hybrid        (no parameters; read as quadrant_mix 2, 1)
    family = polygon             vertices = 1,0; 0,1; -1,0; 0,-1
    family = arc_chain           arc = cx,cy,radius,start_angle,end_angle  (repeated)
    family = spliced             radius = 2.0     junction_angle = -0.7853981633974483
    family = nobst               depth = 19
    family = ellipse_intersection  m1 = m11,m12,m22   m2 = m11,m12,m22
    family = blend               eps = 1.0        base.family = lp, base.p = 4 ...
    family = dual                base.family = ...

The spliced and the staircase (nobst) spheres are arc chains; they are
written by their construction parameters, not arc by arc. An arc chain whose
params hold ``depth`` is written as ``family = nobst``.

Lines starting with ``#`` are comments. Floats round-trip via repr.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import models, staircase
from .errors import BadParameter


def _parse_lines(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise BadParameter(f"bad model-spec line {raw!r}")
        key, value = line.split("=", 1)
        out.setdefault(key.strip(), []).append(value.strip())
    return out


def _one(fields: dict, key: str, default=None) -> str:
    vals = fields.get(key)
    if not vals:
        if default is not None:
            return default
        raise BadParameter(f"model spec missing key {key!r}")
    if len(vals) > 1:
        raise BadParameter(f"duplicate key {key!r}")
    return vals[0]


def _number(key: str, text: str, kind=float):
    """text read as a float (or an int), or BadParameter naming the key."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise BadParameter(f"model spec key {key!r}: {text.strip()!r} is not {what}") from None


def _value(fields: dict, key: str, default=None, kind=float):
    return _number(key, _one(fields, key, default), kind)


def _numbers(key: str, text: str, kinds: tuple, sep: str = ",") -> list:
    """text's sep-separated fields read as numbers of the given kinds."""
    parts = text.split(sep)
    if len(parts) != len(kinds):
        raise BadParameter(
            f"model spec key {key!r}: {text.strip()!r} needs {len(kinds)} {sep!r}-separated fields"
        )
    return [_number(key, t, kind) for t, kind in zip(parts, kinds)]


def _pairs(fields: dict, key: str) -> dict[int, float]:
    parts = [part for part in _one(fields, key, " ").split(",") if part.strip()]
    return dict(_numbers(key, part, (int, float), ":") for part in parts)


def _form(fields: dict, key: str) -> np.ndarray:
    m11, m12, m22 = _numbers(key, _one(fields, key), (float,) * 3)
    return np.array([[m11, m12], [m12, m22]])


def _sub_fields(fields: dict, prefix: str) -> dict:
    plen = len(prefix)
    return {k[plen:]: v for k, v in fields.items() if k.startswith(prefix)}


def model_from_fields(fields: dict):
    family = _one(fields, "family")
    if family == "lp":
        p = _one(fields, "p")
        return models.make_lp("inf" if p == "inf" else _number("p", p))
    if family == "polar":
        return models.make_polar(
            sin_terms=_pairs(fields, "sin"),
            cos_terms=_pairs(fields, "cos"),
            constant=_value(fields, "constant", "1.0"),
        )
    if family == "quadrant_mix":
        return models.make_quadrant_mix(_value(fields, "p"), _value(fields, "q"))
    if family == "l2_l1_hybrid":
        return models.make_l2_l1_hybrid()
    if family == "polygon":
        chunks = _one(fields, "vertices").split(";")
        return models.make_polygon([tuple(_numbers("vertices", c, (float,) * 2)) for c in chunks])
    if family == "arc_chain":
        arcs = []
        for spec in fields.get("arc", []):
            cx, cy, r, a0, a1 = _numbers("arc", spec, (float,) * 5)
            arcs.append(models.Arc(models.Vec2(cx, cy), r, a0, a1))
        return models.make_arc_chain(arcs)
    if family == "spliced":
        return models.make_spliced_arcs(
            _value(fields, "radius", "2.0"),
            _value(fields, "junction_angle", repr(-math.pi / 4)),
        )
    if family == "nobst":
        return staircase.build_nobst(_value(fields, "depth", str(staircase.DEFAULT_DEPTH), int))
    if family == "ellipse_intersection":
        return models.make_ellipse_pair(_form(fields, "m1"), _form(fields, "m2"))
    if family == "blend":
        base = model_from_fields(_sub_fields(fields, "base."))
        return models.make_blend(base, _value(fields, "eps"))
    if family == "dual":
        return models.dual_model(model_from_fields(_sub_fields(fields, "base.")))
    raise BadParameter(f"unknown family {family!r}")


def read_model_file(path) -> object:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise BadParameter(f"cannot read model file: {exc}") from None
    return model_from_fields(_parse_lines(text))


def _fields_of(fam: str, p: dict) -> list[tuple[str, str]]:
    if fam == "lp":
        return [("family", "lp"), ("p", repr(p["p"]) if p["p"] != "inf" else "inf")]
    if fam == "polar":
        rows = [("family", "polar"), ("constant", repr(p["constant"]))]
        if p["sin"]:
            rows.append(("sin", ", ".join(f"{n}:{a!r}" for n, a in sorted(p["sin"].items()))))
        if p["cos"]:
            rows.append(("cos", ", ".join(f"{n}:{a!r}" for n, a in sorted(p["cos"].items()))))
        return rows
    if fam == "quadrant_mix":
        return [("family", fam)] + [(k, "inf" if p[k] == "inf" else repr(p[k])) for k in ("p", "q")]
    if fam == "polygon":
        verts = "; ".join(f"{v[0]!r},{v[1]!r}" for v in p["vertices"])
        return [("family", fam), ("vertices", verts)]
    if fam == "arc_chain":
        if "depth" in p:
            return [("family", "nobst"), ("depth", str(p["depth"]))]
        if set(p) == {"radius", "junction_angle"}:
            return [
                ("family", "spliced"),
                ("radius", repr(p["radius"])),
                ("junction_angle", repr(p["junction_angle"])),
            ]
        return [("family", fam)] + [
            ("arc", ",".join(repr(float(t)) for t in arc)) for arc in p["arcs"]
        ]
    if fam == "ellipse_intersection":
        f1 = p["m1"]
        f2 = p["m2"]
        return [
            ("family", fam),
            ("m1", f"{f1[0][0]!r},{f1[0][1]!r},{f1[1][1]!r}"),
            ("m2", f"{f2[0][0]!r},{f2[0][1]!r},{f2[1][1]!r}"),
        ]
    if fam == "blend":
        base_rows = _fields_of(p["base_family"], p["base"])
        return [("family", fam), ("eps", repr(p["eps"]))] + [(f"base.{k}", v) for k, v in base_rows]
    if fam == "dual":
        base_rows = _fields_of(p["base_family"], p["base"])
        return [("family", fam)] + [(f"base.{k}", v) for k, v in base_rows]
    raise BadParameter(f"family {fam!r} has no file representation")


def write_model_file(model, path) -> None:
    lines = [f"{k} = {v}" for k, v in _fields_of(model.family, model.params)]
    Path(path).write_text("\n".join(lines) + "\n")
