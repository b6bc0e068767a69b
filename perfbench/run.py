"""obliquecone benchmark: closed-loop workloads with checked outputs, and a traced run.

    python3 perfbench/run.py --workload phase-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ./src.  One
caller issues each block of operations after the previous one returned, for
`--seconds` of wall clock, with one BLAS thread.  Every output is checked
after the clock stops.  `--trace 0` measures the end-to-end metrics of
BENCHMARK.json; `--trace 1` runs blocks both untraced and with spans to
measure the tracing overhead, then runs the layer probe (probe.py) for the
per-layer metrics.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}

Provenance, the input hash, fail_ratio and the tail latency go to the line
before it and to perfbench/out/.  The process exits 2 without a result when
the package sources are missing.
"""

from __future__ import annotations

import os

# one BLAS thread for the whole process tree, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import NullTracer, Tracer, span_cost_s  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("phase-sweep", "oblique-solve", "verify-suite")

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 5

#: Share of --seconds the traced run spends on blocks run untraced and traced.
OVERHEAD_SHARE = 0.4


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_samples(workload: str, repeats: int) -> list[dict]:
    """Time `repeats` fresh interpreters that import obliquecone and warm up."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            env=child_env(), check=True, capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - start
        samples.append(dict(json.loads(done.stdout.strip().splitlines()[-1]), wall_s=wall))
    return samples


def run_loop(workload, blocks, tracer, seconds: float, ids) -> tuple[list, float, int]:
    """Closed loop over whole blocks for about `seconds`.

    The loop stops before a block that would end more than half a block
    past the deadline, judged by the last block's duration.
    """
    outcomes = []
    cycle = itertools.cycle(blocks)
    start = time.perf_counter()
    n_blocks = 0
    while True:
        block_start = time.perf_counter()
        outcomes.extend(workload.run_block(next(cycle), tracer, ids))
        n_blocks += 1
        now = time.perf_counter()
        if now - start + 0.5 * (now - block_start) >= seconds:
            return outcomes, now - start, n_blocks


def overhead_pairs(workload, blocks, tracer, seconds: float) -> tuple[list, dict]:
    """Each block untraced and traced, in alternating order, for about `seconds`.

    Returns all outcomes and the summed wall time of each side.
    """
    outcomes = []
    sides = [(NullTracer(), "untraced_s"), (tracer, "traced_s")]
    totals = {"untraced_s": 0.0, "traced_s": 0.0, "blocks": 0}
    ids = itertools.count()
    for block in itertools.cycle(blocks):
        for side_tracer, key in sides:
            start = time.perf_counter()
            outcomes.extend(workload.run_block(block, side_tracer, ids))
            totals[key] += time.perf_counter() - start
        totals["blocks"] += 1
        sides.reverse()
        if totals["untraced_s"] + totals["traced_s"] >= seconds:
            return outcomes, totals


def check_all(workload, outcomes) -> list[str]:
    """Failure reasons; each failed operation appears once."""
    failures = []
    for o in outcomes:
        reason = o.error if o.error is not None else workload.check(o)
        if reason is not None:
            failures.append(f"op {o.op} {o.kind} {o.inputs!r}: {reason}")
    return failures


def tail(latencies_ms: list[float]) -> dict | None:
    """Latency at the highest percentile with at least ten samples beyond it.

    Omitted (None) unless that percentile is at least the 90th, i.e. below
    100 operations; a lower percentile is never substituted.
    """
    n = len(latencies_ms)
    rank = n - 10
    if n < 100:
        return None
    ordered = sorted(latencies_ms)
    return {"value_ms": ordered[rank - 1], "percentile": 100.0 * rank / n, "samples": n}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "obliquecone").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python_threads": threading.active_count(),
    }


def emit(metrics: dict, spec: list[dict], attempted: int, failures: list[str], record: dict):
    """Write the full record to perfbench/out and print the result line last."""
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    record = dict(record, failures=failures, result=result, provenance=provenance())
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "input_sha256", "report")}))
    print(json.dumps(result))


def measure(workload, seed: int, seconds: float, bench: dict, record: dict) -> None:
    """End-to-end metrics from an untraced run."""
    setups = setup_samples(workload.name, SETUP_REPEATS)
    workload.warm_up()
    outcomes, elapsed, n_blocks = run_loop(
        workload, workload.blocks(seed), NullTracer(), seconds, itertools.count()
    )
    failures = check_all(workload, outcomes)
    latencies = [1e3 * o.latency_s for o in outcomes]
    passed = len(outcomes) - len(failures)
    metrics = {
        "ops_per_s": passed / elapsed,
        "op_p50_ms": statistics.median(latencies),
        "setup_s": statistics.median(s["wall_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = dict(
        metrics,
        fail_ratio=len(failures) / len(outcomes),
        op_tail_ms=tail(latencies),
        operations=len(outcomes),
        blocks=n_blocks,
        elapsed_s=elapsed,
        **workload.notes(outcomes),
    )
    latency_log = [(o.kind, o.latency_s) for o in outcomes]
    emit(metrics, bench["end_to_end"], len(outcomes), failures,
         dict(record, report=report, setup_samples=setups, latencies=latency_log))


def measure_traced(workload, seed: int, seconds: float, bench: dict, record: dict) -> None:
    """Per-layer metrics and the tracing overhead from a traced run."""
    import probe

    setups = setup_samples(workload.name, 3)
    workload.warm_up()
    tracer = Tracer()
    outcomes, sides = overhead_pairs(
        workload, workload.blocks(seed), tracer, OVERHEAD_SHARE * seconds
    )
    overhead_s = sides["traced_s"] - sides["untraced_s"]
    failures = check_all(workload, outcomes)
    probe_tracer = Tracer()
    metrics, checks = probe.layer_metrics(probe_tracer, seed, OUT, child_env())
    failures += [reason for reason in checks if reason is not None]
    metrics.update({
        "cli.import_s": statistics.median(s["import_s"] for s in setups),
        "trace.overhead_s": overhead_s,
        "trace.overhead_pct": 100.0 * overhead_s / sides["untraced_s"],
        "trace.span_us": 1e6 * span_cost_s(),
    })
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "workload_pairs": dict(sides, spans=tracer.spans, **tracer.summary()),
        "probe": {"spans": probe_tracer.spans, **probe_tracer.summary()},
    }, default=str) + "\n")
    report = dict(sides, overhead_s=overhead_s, trace_file=str(trace_file.relative_to(ROOT)))
    emit(metrics, bench["per_layer"], len(outcomes) + len(checks), failures,
         dict(record, report=report, setup_samples=setups))


def run_all(args) -> int:
    """Each workload in its own process, as a single-workload run would; prints a table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows[name] = dict(result, report=info["report"])
        print(f"{name}: attempted={result['attempted']} failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
        if args.trace == 0:
            print(f"  fail_ratio = {info['report']['fail_ratio']:.6g}")
            t = info["report"]["op_tail_ms"]
            print("  op_tail_ms = " + ("omitted (under 100 operations)" if t is None else
                  f"{t['value_ms']:.6g} ms at p{t['percentile']:.2f} of {t['samples']}"))
    print(json.dumps(rows))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "obliquecone" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {SRC / 'obliquecone'} or {bench_file} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(HERE)]
    import obliquecone

    if Path(obliquecone.__file__).resolve().parent != (SRC / "obliquecone").resolve():
        print(f"error: imported {obliquecone.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    bench = json.loads(bench_file.read_text())
    workload = workloads.WORKLOADS[args.workload]
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == workload.name),
        "input_sha256": workloads.input_digest(workload, args.seed),
    }
    measure_fn = measure_traced if args.trace else measure
    measure_fn(workload, args.seed, args.seconds, bench, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
