"""Paired benchmark runs of two checkouts: a parent and a change.

Runs ``python3 perfbench/run.py --trace 0`` in each checkout in turn, once
per pair and workload, flipping which side runs first every pair so that
drift of the machine falls on both sides alike. Each run's last output line
is its JSON summary. For each workload, and every end-to-end metric of the
change's ``BENCHMARK.json``, it prints each side's median and quartiles,
the ratio of the medians, how many pairs the change won (in the metric's
``better`` direction), whether the gap between the medians exceeds the
parent's interquartile range and whether the change's median is worse than
the parent's by more than the metric's ``bound`` times the parent's median,
then every run's value in pair order. That relative reading of ``bound``
is an aid for reading the table, not the benchmark's own verdict. After
each run it reads the first pass's digests from the run record that
checkout wrote (``.perfbench/records/<workload>-seed<n>-trace0.json``),
and for each workload it prints in how many pairs the parent's and the
change's digests were equal: a bit-for-bit change must read n/n. Under
each table's title it prints each checkout's ``src/zerommt/*.py`` line
count.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload train score --seed 31 --pairs 10 --seconds 30

Exits 1 if any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict],
              metrics: list[dict]) -> list[dict]:
    """One row per end-to-end metric from the runs' ``metrics`` dicts
    (name -> {"value": ...}); ``parent[i]`` and ``change[i]`` are pair i."""
    rows = []
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        if any(name not in r for r in parent + change):
            continue
        p = [r[name]["value"] for r in parent]
        c = [r[name]["value"] for r in change]
        pq, cq = quartiles(p), quartiles(c)
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        worse_by = (pq[1] - cq[1]) if higher else (cq[1] - pq[1])
        bound = spec.get("bound")
        rows.append({
            "metric": name, "better": spec["better"],
            "parent": pq, "change": cq,
            "ratio": cq[1] / pq[1] if pq[1] else float("nan"),
            "wins": wins, "pairs": len(p),
            "gap_exceeds_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
            "bound": bound,
            "beyond_bound": (None if bound is None
                             else worse_by > bound * abs(pq[1])),
            "runs": (p, c),
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = ["| metric | better | parent median [q1, q3] | "
             "change median [q1, q3] | change/parent | change wins | "
             "gap > parent IQR | worse by > bound × parent median |",
             "|---|---|---|---|---|---|---|---|"]
    for r in rows:
        p, c = r["parent"], r["change"]
        beyond = ("-" if r["bound"] is None else
                  f"{'yes' if r['beyond_bound'] else 'no'} "
                  f"(bound {r['bound']:g})")
        lines.append(
            f"| {r['metric']} | {r['better']} "
            f"| {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}] "
            f"| {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}] "
            f"| {r['ratio']:.3f} | {r['wins']}/{r['pairs']} "
            f"| {'yes' if r['gap_exceeds_iqr'] else 'no'} | {beyond} |")
    lines.append("")
    for r in rows:
        for side, values in zip(("parent", "change"), r["runs"]):
            lines.append(f"{r['metric']} {side}: "
                         + " ".join(f"{v:.6g}" for v in values))
    return "\n".join(lines)


def src_lines(checkout: Path) -> int:
    """Lines of ``src/zerommt/*.py`` in ``checkout``."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (checkout / "src" / "zerommt").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its JSON summary."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    summary = json.loads(lines[-1])
    if not summary["correct"]:
        raise RuntimeError(f"{checkout}: perfbench reports correct: false "
                           f"({summary['failed']} of {summary['attempted']} "
                           "checks failed)")
    return summary


def pass_digests(checkout: Path, workload: str, seed: int) -> dict | None:
    """The first pass's digests in the record of the last untraced run of
    ``workload`` at ``seed`` in ``checkout``, or None if there is none."""
    path = (checkout / ".perfbench" / "records"
            / f"{workload}-seed{seed}-trace0.json")
    try:
        return json.loads(path.read_text())["passes"][0]["digests"]
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return None


def format_digests(parent: list[dict | None],
                   change: list[dict | None]) -> str:
    """How many pairs' pass digests were equal; ``parent[i]`` and
    ``change[i]`` are pair i, None where a run left no record."""
    equal = sum(p is not None and p == c for p, c in zip(parent, change))
    line = f"pass digests equal in {equal}/{len(parent)} pairs"
    missing = sum(d is None for d in parent + change)
    if missing:
        line += f" ({missing} of {2 * len(parent)} runs left no record)"
    return line


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = {w: {"parent": [], "change": []} for w in args.workload}
    digests = {w: {"parent": [], "change": []} for w in args.workload}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            for side in order:
                try:
                    summary = run_once(getattr(args, side), workload,
                                       args.seed, args.seconds)
                except RuntimeError as err:
                    print(f"pair {i + 1}, {workload}, {side}: {err}",
                          file=sys.stderr)
                    return 1
                runs[workload][side].append(summary["metrics"])
                digests[workload][side].append(pass_digests(
                    getattr(args, side), workload, args.seed))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    lines = (f"src/zerommt/*.py lines: parent {src_lines(args.parent)}, "
             f"change {src_lines(args.change)}")
    tables = []
    for workload, sides in runs.items():
        tables.append(f"{workload}, seed {args.seed}, {args.pairs} pairs of "
                      f"{args.seconds:g} s runs, alternating order\n"
                      + lines + "\n"
                      + format_rows(summarize(sides["parent"], sides["change"],
                                              spec["end_to_end"]))
                      + "\n" + format_digests(digests[workload]["parent"],
                                              digests[workload]["change"]))
    print("\n\n".join(tables))
    return 0


if __name__ == "__main__":
    sys.exit(main())
