"""Model-spec files, JSON reports, SVG output, and the CLI surface."""

import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from normplane import classify, cli, gallery, geometry, modelspec, models
from normplane.errors import BadParameter


def _roundtrip(model, tmp_path, probes):
    path = tmp_path / "m.model"
    modelspec.write_model_file(model, path)
    back = modelspec.read_model_file(path)
    for v in probes:
        assert back.gauge(v) == pytest.approx(model.gauge(v), rel=1e-12)
    return back


def test_model_file_roundtrips(tmp_path):
    probes = [(0.3, 1.7), (-2.0, 0.4), (1.0, 1.0)]
    cases = [
        models.make_lp(1.5),
        models.make_lp("inf"),
        models.make_polar(sin_terms={4: 1 / 17}),
        models.make_quadrant_mix(1.5, 4.0),
        models.make_quadrant_mix("inf", 1.5),
        models.make_l2_l1_hybrid(),
        models.make_polygon([(1, 0), (0, 1), (-1, 0), (0, -1)]),
        models.make_spliced_arcs(2.0, -math.pi / 4),
        models.make_ellipse_pair(np.diag([1.0, 0.25]), np.diag([0.25, 1.0])),
        models.make_blend(models.make_lp(4), 1.0),
        models.make_arc_chain([models.Arc(models.Vec2(0.0, 0.0), 1.5, 0.0, 2 * math.pi)]),
    ]
    for model in cases:
        _roundtrip(model, tmp_path, probes)
    # an infinite side is written as inf and read back as the string
    back = _roundtrip(models.make_quadrant_mix(2, "inf"), tmp_path, probes)
    assert (tmp_path / "m.model").read_text() == "family = quadrant_mix\np = 2\nq = inf\n"
    assert back.params == {"p": 2.0, "q": "inf"}
    # files of the old hybrid family still read, as the mix (2, 1)
    path = tmp_path / "hybrid.model"
    path.write_text("family = l2_l1_hybrid\n")
    hybrid = modelspec.read_model_file(path)
    assert (hybrid.family, hybrid.params) == ("quadrant_mix", {"p": 2.0, "q": 1.0})
    _roundtrip(hybrid, tmp_path, probes)


def test_model_file_comments_and_errors(tmp_path):
    path = tmp_path / "x.model"
    path.write_text("# a diamond\nfamily = lp\np = 1\n")
    assert modelspec.read_model_file(path).gauge((1, 1)) == 2.0
    path.write_text("family = nosuch\n")
    with pytest.raises(BadParameter):
        modelspec.read_model_file(path)
    path.write_text("p = 2\n")
    with pytest.raises(BadParameter):
        modelspec.read_model_file(path)


def test_dual_model_file(tmp_path):
    path = tmp_path / "d.model"
    path.write_text("family = dual\nbase.family = lp\nbase.p = 4\n")
    model = modelspec.read_model_file(path)
    assert model.gauge((1, 0)) == pytest.approx(1.0, rel=1e-9)
    assert model.p == pytest.approx(4 / 3)


def test_cli_classify_deterministic(tmp_path, capsys):
    path = tmp_path / "l4.model"
    path.write_text("family = lp\np = 4\n")
    assert cli.main(["classify", str(path)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["classify", str(path)]) == 0
    second = capsys.readouterr().out

    def strip_timestamp(text):
        doc = json.loads(text)
        doc.pop("generated_at")
        return json.dumps(doc, sort_keys=True)

    assert strip_timestamp(first) == strip_timestamp(second)
    doc = json.loads(first)
    assert doc["schema"] == "normplane-report/1"
    assert doc["verdict"]["st"]["kind"] == "no"
    assert doc["verdict"]["st"]["missing_side"] == "outer"
    assert doc["verdict"]["umst"]["kind"] == "no"


def test_cli_curvature_and_render(tmp_path, capsys):
    path = tmp_path / "e.model"
    path.write_text("family = lp\np = 2\n")
    assert cli.main(["curvature", str(path), "--out", str(tmp_path)]) == 0
    csv_text = (tmp_path / "e_curvature.csv").read_text()
    rows = csv_text.strip().splitlines()
    assert rows[0] == "theta,kappa"
    assert all(float(r.split(",")[1]) == pytest.approx(1.0) for r in rows[1:5])
    svg = (tmp_path / "e_sphere.svg").read_text()
    ET.fromstring(svg)  # valid XML
    # sphere polyline closes exactly
    first_poly = next(l for l in svg.splitlines() if "polyline" in l and "black" in l)
    pts = first_poly.split('points="')[1].split('"')[0].split()
    assert pts[0] == pts[-1]
    capsys.readouterr()
    assert cli.main(["render", str(path), "--overlay", "discs", "--out", str(tmp_path / "e.svg")]) == 0
    ET.fromstring((tmp_path / "e.svg").read_text())
    assert cli.main(["render", str(path), "--overlay", "ellipses", "--out", str(tmp_path / "e2.svg")]) == 0
    ET.fromstring((tmp_path / "e2.svg").read_text())


def test_cli_classify_pilgrim(tmp_path, capsys):
    path = tmp_path / "e.model"
    path.write_text("family = lp\np = 2\n")
    assert cli.main(["classify", str(path), "--pilgrim-grid", "16"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["pilgrim_dense"] == "likely_yes"


def test_cli_moduli(tmp_path, capsys):
    path = tmp_path / "e.model"
    path.write_text("family = lp\np = 2\n")
    assert cli.main(["moduli", str(path), "--eps-grid", "1.0,2.0"]) == 0
    out = capsys.readouterr().out
    rows = out.strip().splitlines()
    assert rows[0] == "eps,delta"
    assert float(rows[1].split(",")[1]) == pytest.approx(1 - math.sqrt(0.75), abs=1e-4)
    assert float(rows[2].split(",")[1]) == pytest.approx(1.0, abs=1e-4)


def test_cli_orbit(tmp_path, capsys):
    path = tmp_path / "e.model"
    path.write_text("family = lp\np = 2\n")
    assert cli.main(["orbit", str(path), "--from", "0.0", "--to", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["orbit"]["is_contractive"]
    assert doc["orbit"]["op_norm"] <= 1 + 1e-7
    path.write_text("family = quadrant_mix\np = 1.5\nq = 4\n")
    assert cli.main(["orbit", str(path), "--from", "0.0", "--to", "0.8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["orbit"] is None
    assert doc["obstruction"]["from_outer_disc"] is False


def test_cli_build_nobst(tmp_path, capsys):
    out = tmp_path / "nb.model"
    assert cli.main(["build-nobst", "--depth", "5", "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"]["params"]["depth"] == 5
    model = modelspec.read_model_file(out)
    assert model.params["depth"] == 5


def test_cli_reproduce_exit_codes(capsys):
    assert cli.main(["reproduce", "figure1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_bad_usage():
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify"])  # missing model file
    assert exc.value.code == 2


def test_gallery_names():
    assert len(gallery.names()) >= 10
    with pytest.raises(KeyError):
        gallery.get("nope")


@pytest.mark.parametrize(
    "text",
    [
        "family = lp\np = 0.5\n",
        "family = blend\neps = inf\nbase.family = lp\nbase.p = 4\n",
        "family = arc_chain\narc = 0,0,1,0,nan\n",
        "family = arc_chain\narc = 0,0,1,0,inf\n",
        # positive turns, but twice around the origin on an edge through it
        "family = polygon\nvertices = 1,0; 0,1; -1,0; 0,-1; 1e-20,1e-20; -1e-20,-1e-20\n",
        # malformed numbers and field counts
        "family = polygon\nvertices = 1,0; 0\n",
        "family = lp\np = abc\n",
        "family = polar\nsin = 4:x\n",
        "family = polar\nsin = 4\n",
        "family = ellipse_intersection\nm1 = 1,0\nm2 = 1,0,1\n",
        "family = arc_chain\narc = 1,2\n",
        "family = nobst\ndepth = 2.5\n",
        "family = spliced\nradius = x\n",
        None,  # no such file
    ],
    ids=[
        "lp_p_below_1", "blend_eps_inf", "arc_nan", "arc_inf", "polygon_winds_twice",
        "vertex_one_field", "p_not_a_number", "sin_amplitude_not_a_number", "sin_no_amplitude",
        "form_two_fields", "arc_two_fields", "depth_not_an_integer", "radius_not_a_number",
        "missing_file",
    ],
)
def test_cli_invalid_model_exits_2(tmp_path, text):
    path = tmp_path / "bad.model"
    if text is not None:
        path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "normplane.cli", "classify", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("normplane: error: ")
    assert proc.stdout == ""


_SCIPY_FREE_VERDICTS = """
import normplane.cli
from normplane import classify, gallery
from normplane.errors import SelfCheckFailed
for name in ("nobst", "grandpa_pig_strict"):
    model = gallery.get(name)
    classify.classify(model)
    try:
        classify.classify_st(model, dual_check=True)
    except SelfCheckFailed:
        pass  # nobst's sampled dual sweep disagrees with its primal one
"""

_SCIPY_FREE_ORBITS = """
from normplane import gallery, geometry, semigroup, tangency
for name in gallery.names():
    tangency.john_ellipse(gallery.get(name))
for name in ("grandpa_pig_strict", "nobst"):
    model = gallery.get(name)
    semigroup.orbit_map(model, geometry.sphere_point(model, 0.3), geometry.sphere_point(model, 2.0))
"""


def _scipy_modules_after(script: str) -> str:
    """The scipy modules loaded once script has run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    report = 'import sys\nprint(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))'
    proc = subprocess.run(
        [sys.executable, "-c", script + report],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_verdicts_import_no_scipy():
    # the sampled duals' spline is the package's own, so no verdict, with or
    # without the dual check, pays for importing scipy
    assert _scipy_modules_after(_SCIPY_FREE_VERDICTS) == "[]"


def test_orbit_path_imports_no_scipy():
    # the John ellipse that seeds every outer ellipse is fitted in numpy, so
    # the per-point certificate path does not import scipy either
    assert _scipy_modules_after(_SCIPY_FREE_ORBITS) == "[]"


def test_cli_dual_check_disagreement_exits_1(tmp_path, monkeypatch, capsys):
    # the primal sweep says yes, the dual sweep no
    kinds = iter(["yes", "no"])

    def fake_primal(model):
        return classify.StVerdict(next(kinds))

    monkeypatch.setattr(classify, "_classify_st_primal", fake_primal)
    path = tmp_path / "l2.model"
    path.write_text("family = lp\np = 2\n")
    assert cli.main(["classify", str(path), "--dual-check"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("normplane: error: dual ST verdict no")


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "{model}", "--pilgrim-grid", "-5"],
        ["moduli", "{model}", "--eps-grid", "abc"],
        ["moduli", "{model}", "--eps-grid", "0.5,,1"],
        ["curvature", "{model}", "--n", "0", "--out", "{dir}"],
        ["curvature", "{model}", "--n", "-3", "--out", "{dir}"],
    ],
)
def test_cli_bad_numeric_arguments_exit_2(tmp_path, capsys, args):
    path = tmp_path / "hexagon.model"
    modelspec.write_model_file(gallery.get("hexagon"), path)
    argv = [a.format(model=path, dir=tmp_path) for a in args]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("normplane: error: ")
    assert not list(tmp_path.glob("*.csv"))



@pytest.mark.parametrize(
    "args",
    [
        ["orbit", "{model}", "--from", "nan", "--to", "1.0"],
        ["orbit", "{model}", "--from", "inf", "--to", "1.0"],
        ["orbit", "{model}", "--from", "1.0", "--to=-inf"],
        ["render", "{model}", "--overlay", "discs", "--theta", "nan", "--out", "{svg}"],
        ["render", "{model}", "--overlay", "ellipses", "--theta", "inf", "--out", "{svg}"],
    ],
)
def test_cli_non_finite_angle_exits_2(tmp_path, capsys, args):
    path = tmp_path / "ellipse.model"
    modelspec.write_model_file(gallery.get("ellipse_2_1"), path)
    svg = tmp_path / "out.svg"
    argv = [a.format(model=path, svg=svg) for a in args]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("normplane: error: theta must be finite")
    assert not svg.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["render", "{model}", "--out", "{missing}/x.svg"],
        ["curvature", "{model}", "--out", "{missing}"],
        ["build-nobst", "--depth", "5", "--out", "{missing}/x.model"],
    ],
)
def test_cli_failed_write_exits_2(tmp_path, capsys, args):
    path = tmp_path / "hexagon.model"
    modelspec.write_model_file(gallery.get("hexagon"), path)
    argv = [a.format(model=path, missing=tmp_path / "missing") for a in args]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("normplane: error: ")


def test_pilgrim_probe_needs_a_grid(euclid):
    sp = geometry.sphere_point(euclid, 0.4)
    for grid in (0, -1):
        with pytest.raises(BadParameter):
            classify.pilgrim_probe(euclid, sp, grid=grid)
