"""Benchmark of the zerommt pipeline: one workload, one seed, one process.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run sets up several times, then repeats passes of
the workload's work until ``--seconds`` have gone by, and reports the
end-to-end metrics. With ``--trace 1`` it sets up once under the tracer,
repeats untraced passes for ``--seconds``, makes one traced pass, and
reports the per-layer metrics. Either way it checks the outputs, writes a run record under
``.perfbench/records/`` and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads: one BLAS thread (at most nproc; more threads
# only contend on these tiny matrices) and zerommt's default of one
# scoring thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["ZEROMMT_THREADS"] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# set-ups per untraced run: at least SETUP_MIN, and more while they have
# taken less than SETUP_MIN_S in all (a cheap set-up is a noisy one)
SETUP_MIN = 3
SETUP_MIN_S = 3.0
SETUP_MAX = 15
CPUS = sorted(os.sched_getaffinity(0))
SEGMENT_KINDS = {
    "items_per_s": ("method", "other"),
    "method_items_per_s": ("method",),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "decode", "score"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long configuration for smoke tests")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(f.read_text().splitlines())
                    for f in sorted((SRC / "zerommt").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "zerommt_threads": os.environ["ZEROMMT_THREADS"],
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def _sentence_latency(passes) -> dict[str, float]:
    """Percentiles of the per-sentence times of directly timed decodes."""
    latencies = [1e3 * t for p in passes for s in p.segments
                 if len(s.unit_s) > 1 for t in s.unit_s]
    if len(latencies) < 2:
        return {"p50": 0.0, "p90": 0.0, "n": len(latencies)}
    return {"p50": statistics.median(latencies),
            "p90": statistics.quantiles(latencies, n=10)[-1],
            "n": len(latencies)}


def _throughput(passes, kinds) -> float:
    """Items per second over the segments of ``kinds`` in every pass."""
    segs = [s for p in passes for s in p.segments if s.kind in kinds]
    return sum(s.items for s in segs) / sum(s.seconds for s in segs)


def on_cpu(k: int) -> None:
    """Move this process to the k-th CPU it may run on, round robin.

    The CPUs of a shared machine differ in speed from minute to minute; a
    run that stayed on one would carry that CPU's speed, so set-ups and
    passes take turns, and a run makes at least one pass on each CPU.
    """
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def repeat_passes(wl, seconds: float) -> tuple[list, list]:
    """Passes until ``seconds`` have gone by (at least one per CPU), with
    the checks on the first and the digests of every other."""
    passes = []
    start = perf_counter()
    while len(passes) < len(CPUS) or perf_counter() - start < seconds:
        on_cpu(len(passes))
        passes.append(wl.run_pass())
        # before the next pass overwrites the run directory
        wl.inspect(passes[-1])
    checks = wl.checks(passes[0])
    if wl.setup_shas:
        checks.append(("every set-up pretrains the same base bytes",
                       len(set(wl.setup_shas)) == 1))
    checks += [("every pass repeats the first pass's digests",
                p.digests == passes[0].digests) for p in passes[1:]]
    return passes, checks


def measure(wl, seconds: float, work: Path) -> dict:
    """Untraced run: end-to-end metrics."""
    setup_s = []
    while len(setup_s) < SETUP_MIN or (sum(setup_s) < SETUP_MIN_S
                                       and len(setup_s) < SETUP_MAX):
        on_cpu(len(setup_s))
        t0 = perf_counter()
        wl.setup(work / f"setup{len(setup_s)}")
        setup_s.append(perf_counter() - t0)
    passes, checks = repeat_passes(wl, seconds)
    metrics = {"setup_s": (statistics.median(setup_s), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                               .ru_maxrss / 1024.0, "MB")}
    for name, kinds in SEGMENT_KINDS.items():
        metrics[name] = (_throughput(passes, kinds), "1/s")
    return {"setup_s": setup_s, "passes": passes, "checks": checks,
            "metrics": metrics, "latency_ms": _sentence_latency(passes)}


def trace_run(wl, seconds: float, work: Path, spans_path: Path) -> dict:
    """Traced run: per-layer metrics of one set-up and one pass."""
    import tracing

    modules = {layer: importlib.import_module(f"zerommt.{layer}")
               for layer in tracing.LAYERS}
    tracer = tracing.Tracer()

    def traced(phase: str, fn):
        tracer.install(modules)
        tracer.begin(phase)
        try:
            return fn()
        finally:
            stats[phase] = tracer.end()
            tracer.uninstall()

    stats = {}
    traced("setup", lambda: wl.setup(work / "setup0"))
    passes, checks = repeat_passes(wl, seconds)
    result = traced("work", wl.run_pass)
    wl.inspect(result)
    checks.append(("tracing leaves the digests unchanged",
                   result.digests == passes[0].digests))
    metrics = {**tracing.work_metrics(stats["work"]),
               **tracing.setup_metrics(stats["setup"])}
    metrics["trace_overhead_s"] = (
        result.wall_s - statistics.median(p.wall_s for p in passes), "s")
    latency = _sentence_latency(passes)
    metrics["decoding.sentence_ms_p50"] = (latency["p50"], "ms")
    metrics["decoding.sentence_ms_p90"] = (latency["p90"], "ms")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_path)
    return {"passes": passes + [result], "checks": checks, "metrics": metrics,
            "latency_ms": latency, "spans": str(spans_path.relative_to(ROOT))}


# ---------------------------------------------------------------------------


def _pass_record(p) -> dict:
    return {"wall_s": p.wall_s, "segments": [asdict(s) for s in p.segments],
            "digests": p.digests, "quality": p.quality}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "zerommt" / "__init__.py").is_file():
        print(f"perfbench: no zerommt sources under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.size)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    records = OUT / "records"
    try:
        if args.trace:
            run = trace_run(wl, args.seconds, work,
                            records / f"{tag}.spans.npz")
        else:
            run = measure(wl, args.seconds, work)
        models = wl.record()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = Counter()
    failed = Counter()
    for name, ok in run["checks"]:
        tally[name] += 1
        failed[name] += not ok
    n_failed = sum(failed.values())
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds,
        "environment": {**environment(), **models},
        "setup_s": run.get("setup_s"),
        "passes": [_pass_record(p) for p in run["passes"]],
        "latency_ms": run["latency_ms"],
        "checks": {n: {"attempted": tally[n], "failed": failed[n]}
                   for n in tally},
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in run["metrics"].items()},
    }
    if "spans" in run:
        record["spans"] = run["spans"]
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in run["metrics"].items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for key, value in run["passes"][0].quality.items():
        print(f"quality {key:32s} {value:14.6g}")
    for name in tally:
        print(f"check {name}: {tally[name] - failed[name]}/{tally[name]} ok")
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": sum(tally.values()),
        "failed": n_failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
