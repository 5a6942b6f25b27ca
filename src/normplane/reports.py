"""JSON-facing serialization of verdicts, certificates, and reports.

Reports are deterministic for fixed inputs except for the ``generated_at``
field, which comparisons must strip. Floats serialize with their shortest
round-trip representation.
"""

from __future__ import annotations

import json
import time

SCHEMA = "normplane-report/1"


def _num(x):
    if x is None:
        return None
    x = float(x)
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return x


def certificate_dict(cert):
    return {
        "matrix": [[_num(cert.T.m11), _num(cert.T.m12)], [_num(cert.T.m21), _num(cert.T.m22)]],
        "op_norm": _num(cert.op_norm),
        "inv_norm": _num(cert.inv_norm),
        "is_contractive": cert.is_contractive,
        "witness_angle": _num(cert.witness_angle),
        "tolerance": _num(cert.tolerance),
        "boundary": cert.boundary,
    }


def verdict_dict(v):
    return {
        "st": {"kind": v.st.kind, "witness_theta": _num(v.st.witness_theta),
               "missing_side": v.st.missing_side},
        "bst": {"kind": v.bst.kind, "lambda": _num(v.bst.lam), "reason": v.bst.reason},
        "umst": {
            "kind": v.umst.kind,
            "kappa_min": _num(v.umst.kappa_min),
            "delta_table": [
                {"eps": _num(e), "delta": _num(d), "pairs": n, "failures": f}
                for (e, d, n, f) in v.umst.delta_table
            ],
            "reason": v.umst.reason,
        },
        "flat_points": [[_num(a), _num(b)] for a, b in v.flat_points],
        "pilgrim_dense": v.pilgrim_dense,
        "sweep_n": v.sweep_n,
    }


def report(model, body: dict) -> str:
    doc = {
        "schema": SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "model": {"family": model.family, "params": model.params},
        **body,
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
