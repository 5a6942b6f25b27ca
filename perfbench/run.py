"""normplane benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a normplane checkout (the directory holding ``src``):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of classify_cli, orbit_pairs, modulus_queries (see README.md).
Every output is checked against the independent references in
reference.py. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from worker import CLASSIFY_MODELS

HERE = Path(__file__).resolve().parent

#: pinned in every process the benchmark starts, and here before the checks
#: load numpy: the installed OpenBLAS would otherwise start a thread per core
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = ("classify_cli", "orbit_pairs", "modulus_queries")

#: set-up is timed in this many fresh processes per run; setup_s is the median
SETUP_REPEATS = 5

#: a child still running after this long is killed and the run fails
CHILD_TIMEOUT_S = 170.0

#: classify_cli starts no further round once this much of the run has passed
#: with a round's length still to come, so a run ends within 180 s
ROUND_CAP_S = 150.0


@dataclass
class Child:
    stdout: str
    ready_s: float | None  # spawn to the READY line
    elapsed_s: float  # spawn to exit
    peak_rss_mb: float


def run_child(cmd, env, cwd, wait_ready: bool = False) -> Child:
    """Run one process to its end, reaping it with wait4 for its peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=env, cwd=cwd, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    ready_s = None
    try:
        if wait_ready and proc.stdout.readline().strip() == "READY":
            ready_s = time.perf_counter() - t0
        text = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, cmd))} exited with {proc.returncode}")
    if wait_ready and ready_s is None:
        raise RuntimeError(f"{' '.join(map(str, cmd))} never reported READY")
    return Child(text, ready_s, elapsed, usage.ru_maxrss / 1024.0)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def metric_dict(values: dict) -> dict:
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def end_to_end(setups, lat_ms, timed_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_per_s": len(lat_ms) / timed_s,
        "latency_p50_ms": statistics.median(lat_ms),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(traces: list[dict], import_s: float, lat_ms, timed_s: float) -> dict:
    """Sum the per-layer metrics of a run's traced processes and add the
    run-level ones."""
    out: dict = {}
    for metrics in traces:
        for k, v in metrics.items():
            out[k] = out.get(k, 0) + v
    out["cli.import_s"] = import_s
    out["op.latency_p95_ms"] = statistics.quantiles(lat_ms, n=20, method="inclusive")[-1]
    out["op.throughput_ops_per_s"] = len(lat_ms) / timed_s
    return out


def worker_cmd(workload: str, args, out: Path) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]


def run_in_worker(args, env, root: Path, out: Path):
    """orbit_pairs and modulus_queries: set-up and the timed loop in one process."""
    cmd = worker_cmd(args.workload, args, out)
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_child(cmd + ["--setup-only"], env, root, wait_ready=True).ready_s)
    child = run_child(cmd, env, root, wait_ready=True)
    setups.append(child.ready_s)
    res = last_json(child.stdout)
    lat_ms = [1000.0 * t for t in res["latencies"]]
    for name in dict.fromkeys(res["models"]):
        own = [t for t, m in zip(lat_ms, res["models"]) if m == name]
        print(f"{name}: {len(own)} ops, median {statistics.median(own):.1f} ms", file=sys.stderr)
    if args.trace:
        metrics = per_layer([res["metrics"]], res["import_s"], lat_ms, res["timed_s"])
    else:
        metrics = end_to_end(setups, lat_ms, res["timed_s"], child.peak_rss_mb)
    return len(lat_ms), res["failed"], res["errors"], metrics


def run_classify(args, env, root: Path, out: Path):
    """classify_cli: one fresh ``normplane classify FILE`` process per verdict."""
    import reference

    models_dir = out / "models"
    cmd = worker_cmd("classify_cli", args, out) + ["--setup-only"]
    setups, traces = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        child = run_child(cmd, env, root, wait_ready=True)
        setups.append(child.ready_s)
        if args.trace:
            traces.append(last_json(child.stdout)["metrics"])

    rng = random.Random(args.seed)
    records, lat_ms, rss, imports = [], [], [], []
    start = time.perf_counter()
    while True:
        order = list(CLASSIFY_MODELS)
        rng.shuffle(order)
        round_start = time.perf_counter()
        for name in order:
            model_file = str(models_dir / f"{name}.model")
            if args.trace:
                trace_file = out / f"trace-classify_cli-seed{args.seed}-{name}.json"
                verdict_cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file),
                               "classify", model_file]
            else:
                verdict_cmd = [sys.executable, "-m", "normplane.cli", "classify", model_file]
            child = run_child(verdict_cmd, env, root)
            print(f"{name}: {child.elapsed_s:.2f} s, peak RSS {child.peak_rss_mb:.1f} MB", file=sys.stderr)
            lat_ms.append(1000.0 * child.elapsed_s)
            rss.append(child.peak_rss_mb)
            records.append((name, child.stdout))
            if args.trace:
                metrics = json.loads(trace_file.read_text())["metrics"]
                imports.append(metrics.pop("cli.import_s"))
                traces.append(metrics)
        now = time.perf_counter()
        if args.trace or now - start >= args.seconds or now + (now - round_start) - start > ROUND_CAP_S:
            break
    timed_s = time.perf_counter() - start

    errors = []
    for name, text in records:
        report = json.loads(text)
        errors += reference.check_verdict(name, report["verdict"], report["grid"]["sweep_n"])
    if args.trace:
        metrics = per_layer(traces, statistics.median(imports), lat_ms, timed_s)
    else:
        metrics = end_to_end(setups, lat_ms, timed_s, max(rss))
    return len(lat_ms), 0, errors, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="normplane benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "normplane" / "cli.py").is_file():
        print("run.py: no src/normplane under the current directory; "
              "run from the root of a normplane checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = HERE / "out"
    out.mkdir(exist_ok=True)

    run = run_classify if args.workload == "classify_cli" else run_in_worker
    attempted, failed, errors, metrics = run(args, env, root, out)
    for err in errors[:20]:
        print("CHECK FAILED:", err, file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_dict(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
