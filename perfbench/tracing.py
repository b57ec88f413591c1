"""Per-layer tracing of zerommt from outside the program.

``Tracer.install`` rebinds the public functions of the zerommt modules (and
the ``distributions`` methods of the evaluation scorers) to timing and
counting wrappers, in this process only; no file of the program changes.
A function imported by name into another zerommt module (``objectives``
imports ``decoder_logits``, ``evaluation`` imports ``cfg_distribution``) is
rebound there as well, so every call goes through the same wrapper.

Each call records one span: id, name, phase, start, end and the id of the
span that was open when it started. Spans stay in memory until ``save``.
A span's self time is its duration minus the durations of its direct
children; both are aggregated per name as the spans close, together with
work counts (positions, rows, sentences) read from the arguments and
results at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("autodiff", "model", "objectives", "training", "decoding",
          "evaluation", "synthcorpus", "cli")
SCORERS = ("TextOnlyScorer", "MultimodalScorer", "CfgScorer")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class PhaseStats:
    """Aggregates of one traced phase: per span name calls, total and self
    seconds; free-form counts; the set of distinct text-side targets."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.text_pairs: set = set()
        self.wall_s = 0.0

    def calls(self, *names: str) -> int:
        return sum(self.spans[n][0] for n in names if n in self.spans)

    def total_s(self, *names: str) -> float:
        return sum(self.spans[n][1] for n in names if n in self.spans)

    def self_s(self, *names: str) -> float:
        return sum(self.spans[n][2] for n in names if n in self.spans)

    def layer_self_s(self, layer: str) -> float:
        return sum(v[2] for n, v in self.spans.items()
                   if n.split(".", 1)[0] == layer)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phases: list[str] = []
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_phase = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.stats: PhaseStats | None = None
        self._phase_id = -1

    # -- phases ------------------------------------------------------------

    def begin(self, phase: str) -> None:
        self.phases.append(phase)
        self._phase_id = len(self.phases) - 1
        self.stats = PhaseStats()
        self._phase_t0 = perf_counter()

    def end(self) -> PhaseStats:
        stats = self.stats
        stats.wall_s = perf_counter() - self._phase_t0
        self.stats = None
        return stats

    # -- wrapping ----------------------------------------------------------

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every public function of ``modules`` (layer name -> module)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", fn,
                                             _COUNTERS.get(f"{layer}.{attr}"))
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrapped and inspect.isfunction(fn):
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapped[id(fn)])
        ev = modules["evaluation"]
        for cls_name in SCORERS:
            cls = getattr(ev, cls_name)
            fn = cls.distributions
            name = f"evaluation.{cls_name}.distributions"
            self._patched.append((cls, "distributions", fn))
            cls.distributions = self._wrap(name, fn, _COUNTERS.get(name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, counter):
        tracer = self
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = tracer.stats
            if stats is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [0.0, sid, layer, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                agg = stats.spans[name]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                tracer.span_id.append(sid)
                tracer.span_name.append(nid)
                tracer.span_phase.append(tracer._phase_id)
                tracer.span_parent.append(-1 if parent is None else parent[1])
                tracer.span_start.append(t0)
                tracer.span_end.append(t1)
            if counter is not None:
                counter(stats, parent, args, kwargs, result)
            return result

        return wrapper

    # -- output ------------------------------------------------------------

    def save(self, path) -> None:
        """Write every span (sorted by start) as a compressed npz."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        order = np.argsort(start, kind="stable")
        t0 = start[order[0]] if len(order) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            phases=np.array(self.phases),
            id=np.frombuffer(self.span_id, dtype=np.int64)[order],
            name=np.frombuffer(self.span_name, dtype=np.int32)[order],
            phase=np.frombuffer(self.span_phase, dtype=np.int32)[order],
            parent=np.frombuffer(self.span_parent, dtype=np.int64)[order],
            start=start[order] - t0,
            end=np.frombuffer(self.span_end, dtype=np.float64)[order] - t0,
        )


# ---------------------------------------------------------------------------
# work counts read at the wrapped boundaries


def _encode_batch(stats, parent, args, kwargs, result):
    ids = _arg(args, kwargs, 1, "src_ids")
    stats.counts["model.encode_positions"] += ids.size


def _decoder_logits(stats, parent, args, kwargs, result):
    ids = _arg(args, kwargs, 2, "tgt_in")
    stats.counts["model.decoder_positions"] += ids.size
    stats.counts["model.decoder_rows"] += ids.shape[0]
    if parent is not None and parent[3] == "model.decode_step":
        stats.counts["model.step_positions"] += ids.size


def _hypothesis(stats, parent, args, kwargs, result):
    stats.counts["decoding.tokens_out"] += len(result.tokens)
    stats.counts["decoding.finished"] += int(result.finished)


def _cfg_distribution(stats, parent, args, kwargs, result):
    if parent is not None and parent[2] == "evaluation":
        stats.counts["evaluation.cfg_blend_calls"] += 1


def _teacher(stats, parent, args, kwargs, result):
    stats.counts["objectives.teacher_examples"] += len(_arg(args, kwargs, 1,
                                                             "examples"))


def _commute_rows(stats, parent, args, kwargs, result):
    stats.counts["evaluation.rows"] += len(result)


def _text_distributions(stats, parent, args, kwargs, result):
    src = _arg(args, kwargs, 1, "src")
    tgt = _arg(args, kwargs, 3, "tgt")
    stats.text_pairs.add((tuple(src), tuple(tgt)))


def _generate_splits(stats, parent, args, kwargs, result):
    stats.counts["synthcorpus.examples"] += sum(
        len(getattr(result, f)) for f in vars(result)
    )


def _pseudo_translate(stats, parent, args, kwargs, result):
    _, report = result
    stats.counts["synthcorpus.pseudo_total"] += report.n_total
    stats.counts["synthcorpus.pseudo_kept"] += report.n_total - report.n_dropped


_COUNTERS = {
    "model.encode_batch": _encode_batch,
    "model.decoder_logits": _decoder_logits,
    "decoding.beam_search": _hypothesis,
    "decoding.cfg_beam_search": _hypothesis,
    "decoding.cfg_distribution": _cfg_distribution,
    "objectives.base_teacher_logprobs": _teacher,
    "evaluation.commute_rows": _commute_rows,
    "evaluation.TextOnlyScorer.distributions": _text_distributions,
    "synthcorpus.generate_splits": _generate_splits,
    "synthcorpus.pseudo_translate": _pseudo_translate,
}


# ---------------------------------------------------------------------------
# per-layer metrics


AUTODIFF_OPS = ("matmul", "add", "mul", "scale", "layer_norm", "softmax",
                "log_softmax", "transpose", "reshape", "embedding", "concat",
                "gather", "relu", "tsum")
AUTODIFF_ALL_OPS = AUTODIFF_OPS + ("sub", "neg", "linear", "exp", "log",
                                   "clip_min")
IO_FUNCS = ("write_examples", "read_examples", "write_contrastive",
            "read_contrastive")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def work_metrics(s: PhaseStats) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass of the workload's work."""
    out: dict[str, tuple[float, str]] = {}
    ops = [f"autodiff.{op}" for op in AUTODIFF_ALL_OPS]
    out["autodiff.op_calls"] = (s.calls(*ops), "count")
    out["autodiff.op_self_s"] = (s.self_s(*ops), "s")
    for op in AUTODIFF_OPS:
        out[f"autodiff.{op}.calls"] = (s.calls(f"autodiff.{op}"), "count")
        out[f"autodiff.{op}.self_s"] = (s.self_s(f"autodiff.{op}"), "s")
    out["autodiff.backward_calls"] = (s.calls("autodiff.backward"), "count")
    out["autodiff.backward_s"] = (s.total_s("autodiff.backward"), "s")

    c = s.counts
    enc = ("model.encode_batch", "model.encode")
    dec_calls = s.calls("model.decoder_logits")
    step_calls = s.calls("model.decode_step")
    out["model.encode_calls"] = (s.calls("model.encode_batch"), "count")
    out["model.encode_positions"] = (c["model.encode_positions"], "count")
    out["model.encode_self_s"] = (s.self_s(*enc), "s")
    out["model.decoder_calls"] = (dec_calls, "count")
    out["model.decoder_positions"] = (c["model.decoder_positions"], "count")
    out["model.decoder_self_s"] = (
        s.self_s("model.decoder_logits", "model.decode_step"), "s")
    out["model.decoder_rows_per_call"] = (
        _ratio(c["model.decoder_rows"], dec_calls), "rows")
    out["model.decode_step_calls"] = (step_calls, "count")
    out["model.decoder_positions_per_step"] = (
        _ratio(c["model.step_positions"], step_calls), "positions")
    out["model.checkpoint_s"] = (
        s.total_s("model.save_checkpoint", "model.load_checkpoint"), "s")

    out["objectives.teacher_calls"] = (
        s.calls("objectives.base_teacher_logprobs"), "count")
    out["objectives.teacher_examples"] = (
        c["objectives.teacher_examples"], "count")
    out["objectives.teacher_s"] = (
        s.total_s("objectives.base_teacher_logprobs"), "s")
    out["objectives.vmlm_s"] = (s.total_s("objectives.vmlm_loss"), "s")
    out["objectives.kl_s"] = (s.total_s("objectives.kl_penalty"), "s")
    out["objectives.text_nll_s"] = (s.total_s("objectives.text_nll"), "s")

    out["training.adam_calls"] = (s.calls("training.adam_step"), "count")
    out["training.adam_s"] = (s.total_s("training.adam_step"), "s")
    out["training.snapshot_calls"] = (
        s.calls("training.evaluate_checkpoint"), "count")
    out["training.snapshot_s"] = (
        s.total_s("training.evaluate_checkpoint"), "s")
    out["training.loop_self_s"] = (
        s.self_s("training.pretrain_base", "training.train"), "s")

    searches = ("decoding.beam_search", "decoding.cfg_beam_search")
    sentences = s.calls(*searches)
    tokens = c["decoding.tokens_out"]
    out["decoding.sentences"] = (sentences, "count")
    out["decoding.tokens_out"] = (tokens, "count")
    out["decoding.search_self_s"] = (
        s.self_s("decoding.beam_search_steps", *searches), "s")
    out["decoding.cfg_calls"] = (s.calls("decoding.cfg_distribution"), "count")
    out["decoding.cfg_self_s"] = (s.self_s("decoding.cfg_distribution"), "s")
    out["decoding.finished_ratio"] = (
        _ratio(c["decoding.finished"], sentences), "ratio")
    out["decoding.steps_per_token"] = (_ratio(step_calls, tokens), "steps")

    text_calls = s.calls("evaluation.TextOnlyScorer.distributions")
    out["evaluation.rows"] = (c["evaluation.rows"], "count")
    out["evaluation.sequences"] = (
        s.calls("evaluation.sequence_perplexity"), "count")
    out["evaluation.self_s"] = (s.layer_self_s("evaluation"), "s")
    out["evaluation.text_distributions"] = (text_calls, "count")
    out["evaluation.mm_distributions"] = (
        s.calls("evaluation.MultimodalScorer.distributions"), "count")
    out["evaluation.cfg_blend_calls"] = (
        c["evaluation.cfg_blend_calls"], "count")
    out["evaluation.text_reuse_ratio"] = (
        _ratio(len(s.text_pairs), text_calls), "ratio")
    out["evaluation.bleu_s"] = (s.total_s("evaluation.bleu"), "s")

    out["synthcorpus.generate_s"] = (
        s.total_s("synthcorpus.generate_world", "synthcorpus.generate_splits"),
        "s")
    out["synthcorpus.examples"] = (c["synthcorpus.examples"], "count")
    out["synthcorpus.io_s"] = (
        s.total_s(*(f"synthcorpus.{f}" for f in IO_FUNCS)), "s")
    out["synthcorpus.pseudo_translate_s"] = (
        s.total_s("synthcorpus.pseudo_translate"), "s")
    out["synthcorpus.pseudo_kept_ratio"] = (
        _ratio(c["synthcorpus.pseudo_kept"], c["synthcorpus.pseudo_total"]),
        "ratio")

    for stage in ("pretrain", "translate", "train"):
        out[f"cli.{stage}_self_s"] = (s.self_s(f"cli.cmd_{stage}"), "s")
    out["work.traced_wall_s"] = (s.wall_s, "s")
    return out


def setup_metrics(s: PhaseStats) -> dict[str, tuple[float, str]]:
    """Per-layer breakdown of one traced set-up."""
    out: dict[str, tuple[float, str]] = {
        "setup.traced_wall_s": (s.wall_s, "s"),
    }
    for layer in LAYERS:
        out[f"setup.{layer}.self_s"] = (s.layer_self_s(layer), "s")
    out["setup.cli.gen_self_s"] = (s.self_s("cli.cmd_gen"), "s")
    out["setup.cli.pretrain_self_s"] = (s.self_s("cli.cmd_pretrain"), "s")
    out["setup.synthcorpus.generate_s"] = (
        s.total_s("synthcorpus.generate_world", "synthcorpus.generate_splits"),
        "s")
    out["setup.synthcorpus.io_s"] = (
        s.total_s(*(f"synthcorpus.{f}" for f in IO_FUNCS)), "s")
    out["setup.model.checkpoint_s"] = (
        s.total_s("model.save_checkpoint", "model.load_checkpoint"), "s")
    out["setup.training.adam_s"] = (s.total_s("training.adam_step"), "s")
    out["setup.autodiff.backward_s"] = (s.total_s("autodiff.backward"), "s")
    return out
