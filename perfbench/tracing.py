"""Spans around the library's public functions, installed from outside.

Each traced function is replaced by a wrapper on its module or class
attribute, so every call that looks the name up at call time (calls from
other modules, from the module itself, and method calls) passes through it.
A span's self time is its duration minus the durations of the traced spans
it encloses.  Spans are aggregated in memory by (parent, name), which keeps
the call tree's shape at a fixed cost per call, and written out when the
run ends.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

# (module name, attribute path) of every traced public function.
TRACED = (
    ("tasks", "generate"),
    ("nn", "lstm_step_forward"),
    ("nn", "lstm_step_backward"),
    ("nn", "sigmoid"),
    ("nn", "softmax"),
    ("nn", "conv1d_forward"),
    ("nn", "conv1d_backward"),
    ("nn", "dense_forward"),
    ("nn", "dense_backward"),
    ("nn", "Adam.step"),
    ("models", "train_sequence_model"),
    ("models", "train_label_model"),
    ("models", "train_multilabel_baseline"),
    ("models", "SequenceModel.loss_and_grads"),
    ("models", "SequenceModel.decode_step"),
    ("models", "LabelModel.posterior"),
    ("penalty", "margin_stats"),
    ("penalty", "solve_lambda"),
    ("penalty", "solve_lambda_per_position"),
    ("lambda_net", "build_lambda_training_set"),
    ("lambda_net", "train_lambda_net"),
    ("lambda_net", "LambdaNet.loss_and_grads"),
    ("lambda_net", "LambdaNet.classify"),
    ("decoder", "decode_sequence_set"),
    ("decoder", "penalized_argmax"),
    ("decoder", "decode_set"),
    ("metrics", "evaluate"),
)


class Tracer:
    """Install wrappers, aggregate spans and counts, restore on uninstall."""

    def __init__(self, package):
        self.package = package
        self.spans: dict[tuple[str | None, str], list] = {}  # -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [start, child time, name]
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [time.perf_counter(), 0.0, name]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        dur = time.perf_counter() - frame[0]
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        key = (parent[2] if parent else None, frame[2])
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[1]

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, such as a stage."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrappers ----------------------------------------------------------------

    def _wrapper(self, name: str, fn):
        enter, exit_ = self._enter, self._exit
        if name == "lambda_net.train_lambda_net":
            def wrapped(examples, variant, *args, **kwargs):
                frame = enter(f"{name}.{variant}")
                try:
                    return fn(examples, variant, *args, **kwargs)
                finally:
                    exit_(frame)
        elif name == "penalty.solve_lambda":
            def wrapped(records, *args, **kwargs):
                self.add("penalty.solve_lambda.records", len(records))
                frame = enter(name)
                tracemalloc.start()
                try:
                    return fn(records, *args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    exit_(frame)
                    self.counts["penalty.solve_lambda.peak_mb"] = max(
                        self.counts.get("penalty.solve_lambda.peak_mb", 0.0), peak / 2**20)
        elif name == "lambda_net.build_lambda_training_set":
            def wrapped(*args, **kwargs):
                frame = enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    exit_(frame)
                self.add("lambda_net.build_lambda_training_set.examples", len(out))
                return out
        elif name == "decoder.decode_sequence_set":
            def wrapped(*args, **kwargs):
                frame = enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    exit_(frame)
                self.add("decoder.iterations", out.iterations)
                self.add("decoder.dead_ends", out.dead_ends)
                self.add("decoder.dropped_branches", out.dropped_branches)
                self.add("decoder.truncated_samples", int(out.truncated))
                self.add("decoder.sequences", len(out.sequences))
                return out
        else:
            def wrapped(*args, **kwargs):
                frame = enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
        wrapped.__wrapped__ = fn
        return wrapped

    def install(self) -> None:
        for module_name, path in TRACED:
            owner = getattr(self.package, module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(f"{module_name}.{path}", original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def by_name(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, summed over parents."""
        out: dict[str, list] = {}
        for (_, name), (calls, _, self_s) in self.spans.items():
            agg = out.setdefault(name, [0, 0.0])
            agg[0] += calls
            agg[1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def calls_under(self, parent: str, name: str) -> int:
        agg = self.spans.get((parent, name))
        return agg[0] if agg else 0

    def dump(self) -> dict:
        return {
            "spans": [
                {"parent": parent, "name": name, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (parent, name), (calls, total, self_s) in sorted(
                    self.spans.items(), key=lambda kv: -kv[1][1])
            ],
            "counts": dict(sorted(self.counts.items())),
        }
