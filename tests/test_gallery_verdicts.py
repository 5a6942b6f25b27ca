"""Every gallery verdict against a committed reference.

``tests/data/gallery_verdicts.json`` maps each gallery name to its
``model.family``, ``model.params`` and
``reports.verdict_dict(classify.classify(model))``. It was generated with

    PYTHONPATH=src python -c "import json; from normplane import classify, \\
    gallery, reports; print(json.dumps({n: {'family': m.family, 'params': \\
    m.params, 'verdict': reports.verdict_dict(classify.classify(m))} for n, m \\
    in gallery.all_models().items()}, indent=1, sort_keys=True, \\
    allow_nan=False))" > tests/data/gallery_verdicts.json

when BST came to be decided by the disc sweep alone, without the convexity
moduli: the BST reason of l1, linf, l2_l1_hybrid, two_ellipses and hexagon
moved from a vanishing modulus to "some point lacks an inner or outer disc",
and no verdict kind moved. Nine UMST table deltas moved in their last digits
(under 2e-15 relative), as the code before that change already computed them.

Regenerate it only together with a CHANGES.md line saying why the verdicts
moved. Strings, bools, ints and None must match exactly, so a parameter given
as the int 4 must not come back as 4.0; floats within 1e-12 relative.
"""

import json
from pathlib import Path

import pytest

from normplane import classify, reports

REFERENCE = Path(__file__).parent / "data" / "gallery_verdicts.json"


def _assert_matches(got, want, path):
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for j, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{j}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert got == want, path


def test_gallery_verdicts_match_reference(all_gallery):
    want = json.loads(REFERENCE.read_text())
    assert sorted(want) == sorted(all_gallery)
    for name, model in all_gallery.items():
        # through JSON, so tuples become lists as in the reference
        got = json.loads(json.dumps(
            {
                "family": model.family,
                "params": model.params,
                "verdict": reports.verdict_dict(classify.classify(model)),
            }
        ))
        _assert_matches(got, want[name], name)
