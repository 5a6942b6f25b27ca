"""One benchmark process: set-up, then the timed closed loop of one workload.

run.py starts it as ``python3 perfbench/worker.py WORKLOAD --seed N --seconds S
--trace 0|1 --out DIR [--setup-only]`` with ``src`` on PYTHONPATH and BLAS
pinned to one thread. It prints ``READY`` once set-up is done (run.py times
set-up from spawn to that line), then one JSON line: the operation
latencies and the model of each operation, the length of the timed phase,
the failed count, the check errors and, when traced, the per-layer metrics.

Workloads run here:
  orbit_pairs      sphere_point twice + semigroup.orbit_map on a seeded,
                   uniformly random angle pair; one op per model per round
  modulus_queries  moduli.delta_uc(model, eps), eps seeded log-uniform in
                   [0.02, 2]; one op per model per round
  classify_cli     set-up only: builds the gallery models and writes the
                   model files that run.py's verdict processes read
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

ORBIT_MODELS = ("ellipse_2_1", "grandpa_pig_strict", "spliced", "nobst")
MODULUS_MODELS = ("euclidean", "ellipse_2_1", "l4", "l1_5")
CLASSIFY_MODELS = ("grandpa_pig_strict", "ellipse_2_1", "nobst", "hexagon")

#: traced runs do a fixed number of rounds, so their counts repeat exactly;
#: 50 rounds of 4 give 200 operations, ten of them beyond the 95th percentile
TRACED_ROUNDS = 50

EPS_RANGE = (0.02, 2.0)


def _build(names):
    from normplane import gallery

    return {name: gallery.get(name) for name in names}


def setup_orbit_pairs(args):
    from normplane import geometry, semigroup

    models = _build(ORBIT_MODELS)
    # the first orbit_map on a model imports scipy, fits the John ellipse and
    # fills the sphere caches; none of that belongs to a timed operation
    for model in models.values():
        semigroup.orbit_map(model, geometry.sphere_point(model, 0.3), geometry.sphere_point(model, 2.0))
    return models


def setup_modulus_queries(args):
    from normplane import moduli

    models = _build(MODULUS_MODELS)
    for model in models.values():
        moduli.delta_uc(model, 1.0)
    return models


def setup_classify_cli(args):
    from normplane import modelspec

    models = _build(CLASSIFY_MODELS)
    out = Path(args.out) / "models"
    out.mkdir(exist_ok=True)
    for name, model in models.items():
        modelspec.write_model_file(model, out / f"{name}.model")
    return models


def orbit_pairs_round(models, rng, seen):
    """One operation per model: sphere_point twice and orbit_map on a
    uniformly random angle pair that no earlier operation used."""
    from normplane import geometry, semigroup

    def op(model, a, b):
        x = geometry.sphere_point(model, a)
        y = geometry.sphere_point(model, b)
        return x, y, semigroup.orbit_map(model, x, y)

    ops = []
    for name in ORBIT_MODELS:
        while True:
            a, b = (float(t) for t in rng.uniform(0.0, 2.0 * math.pi, 2))
            if (a, b) not in seen:
                seen.add((a, b))
                break
        ops.append(((name, a, b), lambda m=models[name], a=a, b=b: op(m, a, b)))
    return ops


def check_orbit_pairs(models, records):
    """Returns (failed, errors); an operation fails when no certificate comes back."""
    import reference

    failed, errors = 0, []
    for (name, a, b), (x, y, cert) in records:
        if cert is None:
            failed += 1
            continue
        errors += reference.check_orbit(
            name, a, b, x.point.as_array(), y.point.as_array(), cert.T.matrix(),
            cert.op_norm, cert.inv_norm, gauge=models[name].gauge_many,
        )
    return failed, errors


def modulus_queries_round(models, rng, seen):
    """One delta_uc per model at an eps drawn log-uniformly from EPS_RANGE."""
    from normplane import moduli

    lo, hi = (math.log(e) for e in EPS_RANGE)
    ops = []
    for name in MODULUS_MODELS:
        eps = math.exp(float(rng.uniform(lo, hi)))
        ops.append(((name, eps), lambda m=models[name], eps=eps: moduli.delta_uc(m, eps)))
    return ops


def check_modulus_queries(models, records):
    import reference

    errors = []
    for (name, eps), value in records:
        errors += reference.check_modulus(name, eps, value)
    return 0, errors


WORKLOADS = {
    "orbit_pairs": (setup_orbit_pairs, orbit_pairs_round, check_orbit_pairs),
    "modulus_queries": (setup_modulus_queries, modulus_queries_round, check_modulus_queries),
    "classify_cli": (setup_classify_cli, None, None),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import normplane.cli  # noqa: F401  (loads every layer, as the CLI does)

    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    setup, make_round, check = WORKLOADS[args.workload]
    models = setup(args)
    print("READY", flush=True)

    result = {"import_s": import_s}
    if not args.setup_only:
        latencies, records, timed_s = timed_loop(models, make_round, args.seed, args.seconds, tracer)
        result.update(latencies=latencies, timed_s=timed_s,
                      models=[key[0] for key, _ in records])
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        phase = "setup" if args.setup_only else "run"
        tracer.dump(Path(args.out) / f"trace-{args.workload}-seed{args.seed}-{phase}.json",
                    result["metrics"])
    if not args.setup_only:
        result["failed"], result["errors"] = check(models, records)
    print(json.dumps(result), flush=True)
    return 0


def timed_loop(models, make_round, seed: int, seconds: float, tracer):
    """Closed loop, one client: whole rounds until ``seconds`` have passed
    (at least one), or TRACED_ROUNDS rounds when traced."""
    import numpy as np

    rng = np.random.default_rng(seed)
    seen: set = set()
    latencies, records = [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        for key, op in make_round(models, rng, seen):
            if tracer is not None:
                tracer.op = len(latencies)
            t0 = time.perf_counter()
            out = op()
            latencies.append(time.perf_counter() - t0)
            records.append((key, out))
        rounds += 1
        if tracer is not None:
            if rounds >= TRACED_ROUNDS:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return latencies, records, time.perf_counter() - start


if __name__ == "__main__":
    sys.exit(main())
