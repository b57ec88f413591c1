"""Seed spread of the acceptance checks.

Runs the acceptance run of ``tests/acceptance_run.py`` (the CLI stages at
the acceptance configuration, as ``tests/test_acceptance.py`` checks them)
once per seed in a temporary run directory, with every seed of the run set
to that value, and prints one markdown table: per seed the value and
PASS/FAIL of each ablation and guidance check, then the mean and SD over
seeds and the pass rate. The guidance check has three parts, each in a
column of its own: the accuracy gain at gamma=2, the worst accuracy dip
between neighbouring gammas, and BLEU at gamma=3 minus BLEU at gamma=1.
Accuracies carry a 95% Wilson interval over the contrastive rows.

    PYTHONPATH=src python3 scripts/seed_spread.py --seeds 0 1 2 3 4 --jobs 2

``--replacement-lam L`` also trains the supervised replacement
(``mmt_no_kl``) with its NLL term at weight L instead of the default λ,
and adds the supervised-replacement check against that run: the default
λ weighs the anchor in ``full`` and the NLL term in ``mmt_no_kl`` alike.

One seed took 74 s on one core of a 2-vCPU VM, and 107 s with
``--replacement-lam``. The stages' own output goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import statistics
import sys
import tempfile
from multiprocessing import get_context
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

# zerommt first: importing it picks one BLAS thread unless the user chose,
# which works only before numpy loads (here and in each spawned worker)
import zerommt  # noqa: E402,F401
import acceptance_run as ar  # noqa: E402
from zerommt import synthcorpus as sc  # noqa: E402
from zerommt import training as tr  # noqa: E402


def wilson(p_percent: float, n: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval, in percent, of a proportion over n rows."""
    p = p_percent / 100.0
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return 100.0 * (center - half), 100.0 * (center + half)


def measure(seed: int, replacement_lam: float | None = None) -> dict:
    """Every number the ablation and guidance checks read, for one seed."""
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        out = Path(tmp)
        r = ar.run(out, seed, replacement_lam)
        test_c = sc.read_contrastive(out / "corpus" / "test_contrastive.jsonl")
    return dict(r, seed=seed, base_sha=r["base_sha"][:8], rows=2 * len(test_c))


def checks(r: dict) -> list[tuple[str, float, bool]]:
    """(label, shown value, pass) per check, with the threshold constants
    of tests/acceptance_run.py that the same-named tests use."""
    accs = [r[f"acc_g{g:g}"] for g in ar.GAMMA_GRID]
    gain = r["acc_g2"] - r["acc_g1"]
    dip = max(a - b for a, b in zip(accs, accs[1:]))
    bleu_drop = r["bleu_g3"] - r["full_bleu"]
    lo, hi = ar.CHANCE_BAND
    out = [
        ("ablation_full: full acc", r["full_acc"],
         r["full_acc"] >= ar.FULL_MIN_ACC
         and r["full_bleu"] >= r["base_bleu"] - ar.MAX_BLEU_DROP),
        ("supervised_replacement: full - mmt_no_kl",
         r["full_acc"] - r["mmt_no_kl_acc"],
         r["mmt_no_kl_acc"] <= r["full_acc"]),
        ("guidance_sweep: gain at g=2", gain, gain >= ar.MIN_GUIDANCE_GAIN),
        ("guidance_sweep: worst dip", dip, dip <= ar.MAX_GUIDANCE_DIP),
        ("guidance_sweep: bleu g=3 - g=1", bleu_drop, bleu_drop <= 0.0),
        ("masked_loss: no_vmlm acc", r["no_vmlm_acc"],
         lo <= r["no_vmlm_acc"] <= hi),
        ("anchor_accuracy: no_kl - full", r["no_kl_acc"] - r["full_acc"],
         r["no_kl_acc"] >= r["full_acc"] - ar.MAX_ACC_DROP),
    ]
    if "replacement_lam" in r:
        out.insert(2, (
            f"supervised_replacement at lam={r['replacement_lam']:g}: "
            "full - mmt_no_kl",
            r["full_acc"] - r["mmt_no_kl_lam_acc"],
            r["mmt_no_kl_lam_acc"] <= r["full_acc"],
        ))
    return out


def _shown(label: str, value: float, rows: int) -> str:
    if label.endswith(" acc"):
        lo, hi = wilson(value, rows)
        return f"{value:.2f} [{lo:.1f}, {hi:.1f}]"
    return f"{value:+.2f}"


def _mean_sd(values: list[float]) -> str:
    sd = statistics.stdev(values) if len(values) > 1 else 0.0
    return f"{statistics.mean(values):.2f} ± {sd:.2f}"


def table(results: list[dict]) -> str:
    extra = [("mmt_no_kl acc", "mmt_no_kl_acc"), ("g=2 acc", "acc_g2")]
    modes = list(tr.TRAIN_MODES)
    if "replacement_lam" in results[0]:
        lam = results[0]["replacement_lam"]
        extra.insert(1, (f"mmt_no_kl (lam={lam:g}) acc", "mmt_no_kl_lam_acc"))
        modes.append("mmt_no_kl_lam")
    labels = [label for label, _, _ in checks(results[0])]
    head = (["seed", "base sha256", f"selected step ({'/'.join(modes)})"]
            + labels + [label for label, _ in extra])
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for r in results:
        steps = "/".join(str(r[f"{mode}_step"]) for mode in modes)
        cells = [str(r["seed"]), r["base_sha"], steps]
        for label, value, ok in checks(r):
            cells.append(f"{_shown(label, value, r['rows'])} "
                         f"{'PASS' if ok else 'FAIL'}")
        for label, key in extra:
            cells.append(_shown(label, r[key], r["rows"]))
        lines.append("| " + " | ".join(cells) + " |")
    columns = list(zip(*(checks(r) for r in results)))
    summary = ["mean ± SD", "", ""] + [
        _mean_sd([value for _, value, _ in column]) for column in columns
    ] + [_mean_sd([r[key] for r in results]) for _, key in extra]
    rates = ["pass rate", "", ""] + [
        f"{sum(ok for _, _, ok in column)}/{len(column)}" for column in columns
    ] + [""] * len(extra)
    lines.append("| " + " | ".join(summary) + " |")
    lines.append("| " + " | ".join(rates) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--jobs", type=int, default=1,
                        help="seeds measured at once, one process each")
    parser.add_argument("--replacement-lam", type=float, default=None,
                        help="also train mmt_no_kl with this NLL weight")
    args = parser.parse_args(argv)
    run = functools.partial(measure, replacement_lam=args.replacement_lam)
    if args.jobs > 1:
        with get_context("spawn").Pool(min(args.jobs, len(args.seeds))) as pool:
            results = pool.map(run, args.seeds)
    else:
        results = [run(s) for s in args.seeds]
    print(table(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
