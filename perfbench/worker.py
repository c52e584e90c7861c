"""One workload run, in a fresh process, driving setgen's public API stage by stage.

Started by ``run.py``; not meant to be run by hand.  The process prints
``SETUP_DONE`` once imports and the generation of the training corpus and
the held-out inputs are finished, and a JSON document as its last line.
``run.py`` timestamps the marker line, so set-up time includes interpreter
start.  With ``--setup-only`` the process exits after the marker.

Stages (each timed around the library calls it makes):

* ``train``: base-model fits (plus the multi-label baseline on label sets);
* ``calibrate``: penalty solves, gate example build and gate fits;
* ``decode``: every held-out sample with every variant, in whole rounds;
* ``score``: the task's set metric on the first round's predictions.

A workload runs its pipeline in one or more passes: each pass fits,
calibrates and then decodes whole rounds until its share of ``--seconds``
of decoding has been measured.  Every fit is seeded, so every pass does the
same work.  Output checks run after the timed stages, with tracing removed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (the benchmark's own module, beside this file)


@dataclass(frozen=True)
class Workload:
    """The make-up of one workload's inputs and fits."""

    task: str
    n_train: int
    n_test: int
    epochs: int
    learning_rate: float
    batch_size: int
    gate_epochs: int = 0
    sequence_dims: tuple[int, int, int] = (0, 0, 0)  # embed, encoder, decoder sizes
    passes: int = 1  # fit-calibrate-decode passes per untraced run


# The training corpus and every fit are seeded with this constant (the
# seed `setgen reproduce` pins); --seed draws the held-out inputs only, from
# HELD_OUT_SEED + --seed, so they never coincide with the corpus.  With the
# corpus drawn from --seed as well, the fitted gates' set sizes, and with
# them the decode load, varied several-fold from seed to seed (see README).
TRAIN_SEED = 7
HELD_OUT_SEED = 1000

WORKLOADS = {
    # The paper's set-of-sequences case, composed as `reproduce task2`
    # composes it, at a size that leaves the LSTM fit, both gate fits and
    # the frontier decoder each several seconds of work per run.  The
    # decoder-side sizes are half the library defaults and the step size is
    # raised, so 36 epochs reach a model whose gates emit whole sequences.
    "task2-seqsets": Workload(task="task2", n_train=700, n_test=200, epochs=36,
                              learning_rate=0.01, batch_size=30, gate_epochs=10,
                              sequence_dims=(30, 30, 60)),
    # The README quick-start case at a size where ~7,200 margin records
    # make the infeasible-penalty scan the calibration cost and the memory
    # peak.  No recurrent layer runs.  Its stages are short, so a single
    # fit sits in one fast or slow phase of a shared machine; six passes
    # spread over the run sample its whole length (see README).
    "threshold-labels": Workload(task="threshold", n_train=1300, n_test=1500, epochs=20,
                                 learning_rate=1e-3, batch_size=15, passes=6),
}


def environment() -> dict:
    """Core count, BLAS library and threads, numpy and Python versions."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


class Stages:
    """Wall-clock of every run of each stage, plus a tracer span per run when tracing."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds: dict[str, list[float]] = {}

    def run(self, name: str, fn):
        t0 = time.perf_counter()
        if self.tracer is None:
            out = fn()
        else:
            with self.tracer.span(f"stage.{name}"):
                out = fn()
        self.seconds.setdefault(name, []).append(time.perf_counter() - t0)
        return out

    def total(self, name: str) -> float:
        return sum(self.seconds.get(name, ()))


def score(sg, task: str, test, fitted, first_round) -> dict:
    """The task's set metric and mean set size for every variant and the baseline."""
    metric = "mED" if task == "task2" else "mF1"
    if task == "task2":
        truths = [frozenset(seq[:-1] for seq in s.y) for s in test.samples]
    else:
        truths = [s.y_set for s in test.samples]
    quality = {}
    for variant, results in first_round.items():
        preds = [frozenset() if r is None else
                 (frozenset(seq[:-1] for seq in r.sequences) if task == "task2"
                  else r.label_set) for r in results]
        rep = sg.metrics.evaluate(preds, truths, metric)
        quality[variant] = {metric: rep.aggregate,
                            "set_size": sum(len(p) for p in preds) / len(preds)}
    if "baseline" in fitted:
        preds = [fitted["baseline"].predict_set(s.x) for s in test.samples]
        quality["baseline"] = {metric: sg.metrics.evaluate(preds, truths, metric).aggregate,
                               "set_size": sum(len(p) for p in preds) / len(preds)}
    quality["truth_set_size"] = sum(len(t) for t in truths) / len(truths)
    return quality


def marker(text: str) -> None:
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


# --- the two pipelines ---------------------------------------------------------------


def task2_pipeline(sg, wl: Workload, train, stages: Stages, ops: list):
    """Fit and calibrate; return (decode function, variants, fitted objects)."""
    embed, enc, dec = wl.sequence_dims

    def fit_base():
        flat = sg.core.flatten(train)
        cfg = sg.models.TrainConfig(epochs=wl.epochs, seed=TRAIN_SEED,
                                    learning_rate=wl.learning_rate, batch_size=wl.batch_size)
        return sg.models.train_sequence_model(
            flat, cfg, input_vocab=train.input_vocab, vocab=train.universe,
            max_len=train.max_len, embed_dim=embed, enc_hidden=enc, dec_hidden=dec)

    model = stages.run("train", fit_base)
    ops.append("fit")

    def calibrate():
        per_position = sg.penalty.solve_lambda_per_position(model, train)
        # Gate examples come from the first 90% of the training samples, as
        # the CLI's gate fit takes them.
        cut = max(1, int(round(0.9 * len(train))))
        examples = sg.lambda_net.build_lambda_training_set(
            model, replace(train, samples=train.samples[:cut]))
        cfg = sg.models.TrainConfig(epochs=wl.gate_epochs, seed=TRAIN_SEED + 1,
                                    learning_rate=wl.learning_rate,
                                    batch_size=wl.batch_size)
        gates = {v: sg.lambda_net.train_lambda_net(examples, v, cfg, max_len=train.max_len)
                 for v in ("recurrent", "windowed")}
        return per_position, gates

    per_position, gates = stages.run("calibrate", calibrate)
    ops.extend(["solve", "build", "fit", "fit"])
    penalties = {"per-position": per_position}
    for v, gate in gates.items():
        penalties[f"learned-{v}"] = sg.penalty.PenaltyParams(variant="learned", classifier=gate)

    def decode_one(variant, sample):
        return sg.decoder.decode_sequence_set(model, penalties[variant], sample.x)

    fitted = {"model": model, "gates": gates, "penalties": penalties}
    return decode_one, tuple(penalties), fitted


def threshold_pipeline(sg, wl: Workload, train, stages: Stages, ops: list):
    def fit():
        cfg = sg.models.TrainConfig(epochs=wl.epochs, seed=TRAIN_SEED,
                                    learning_rate=wl.learning_rate, batch_size=wl.batch_size)
        model = sg.models.train_label_model(sg.core.flatten(train), cfg,
                                            n_labels=train.universe)
        baseline = sg.models.train_multilabel_baseline(train, cfg)
        return model, baseline

    model, baseline = stages.run("train", fit)
    ops.extend(["fit", "fit"])

    def calibrate():
        records = sg.penalty.margin_stats(model, train)
        return records, sg.penalty.solve_lambda(records)

    records, solution = stages.run("calibrate", calibrate)
    ops.extend(["margins", "solve"])

    def decode_one(variant, sample):
        return sg.decoder.decode_set(model, solution.value, sample.x)

    fitted = {"model": model, "baseline": baseline, "records": records, "solution": solution}
    return decode_one, ("scalar",), fitted


# --- decoding rounds --------------------------------------------------------------------


def decode_round(decode_one, variants, samples, latencies: list, failures: list):
    out = {}
    for variant in variants:
        results = []
        for sample in samples:
            t0 = time.perf_counter()
            try:
                r = decode_one(variant, sample)
            except Exception:  # a failed decode is counted, the round goes on
                failures.append(traceback.format_exc())
                r = None
            latencies.append(time.perf_counter() - t0)
            results.append(r)
        out[variant] = results
    return out


def predicted(result):
    if result is None:
        return None
    if hasattr(result, "sequences"):
        return frozenset(result.sequences)
    return result.label_set


# --- checks --------------------------------------------------------------------------------


def run_checks(sg, wl: Workload, train, test, fitted, first_round) -> dict:
    problems: list[str] = []
    problems += checks.check_targets(wl.task, train.samples + test.samples)
    checked = 0
    unchecked = 0
    per_variant = {}
    if wl.task == "threshold":
        problems += checks.check_losses("label model", fitted["model"].train_losses)
        problems += checks.check_losses("baseline", fitted["baseline"].train_losses)
        problems += checks.check_scalar_solution(fitted["records"], fitted["solution"],
                                                 sg.penalty.HINGE_WEIGHT)
        lam = fitted["solution"].value
        for sample, r in zip(test.samples, first_round["scalar"]):
            if r is None:
                continue
            want, decidable = checks.label_set_closed_form(
                fitted["model"].posterior(sample.x), lam)
            if not decidable:
                unchecked += 1
            elif r.label_set != want:
                problems.append(f"x={sample.x}: decoded {sorted(r.label_set)} "
                                f"!= closed form {sorted(want)}")
            else:
                checked += 1
        per_variant["scalar"] = (checked, unchecked)
    else:
        model = fitted["model"]
        problems += checks.check_losses("sequence model", model.train_losses)
        for v, gate in fitted["gates"].items():
            problems += checks.check_losses(f"{v} gate", gate.train_losses)
        for variant, results in first_round.items():
            penalty = fitted["penalties"][variant]
            if penalty.variant == "per-position":
                rule = checks.per_position_tokens(model, penalty)
            else:
                rule = checks.gate_tokens(model, penalty.classifier)
            v_checked = v_unchecked = 0
            for sample, r in zip(test.samples, results):
                if r is None:
                    continue
                want, decidable, _ = checks.search_sequence_set(
                    model, sample.x, rule, model.max_len)
                if not decidable or r.dropped_branches:
                    v_unchecked += 1
                elif frozenset(r.sequences) != want:
                    problems.append(f"{variant} x={sample.x}: decoded set differs from search")
                else:
                    v_checked += 1
            per_variant[variant] = (v_checked, v_unchecked)
            checked += v_checked
            unchecked += v_unchecked
    for variant, (c, u) in per_variant.items():
        if c < u:
            problems.append(f"{variant}: only {c} of {c + u} decodes could be checked")
    return {"problems": problems, "checked": checked, "unchecked": unchecked,
            "per_variant": per_variant}


# --- main ---------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    import setgen as sg
    import setgen.tasks  # noqa: F401  (the package does not import it itself)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(sg)
        tracer.install()
    stages = Stages(tracer)

    def setup():
        train = sg.tasks.generate(
            sg.tasks.TaskSpec(task=wl.task, n=wl.n_train, seed=TRAIN_SEED))
        test = sg.tasks.generate(
            sg.tasks.TaskSpec(task=wl.task, n=wl.n_test, seed=HELD_OUT_SEED + args.seed))
        return train, test

    train, test = stages.run("setup", setup)
    marker("SETUP_DONE")
    if args.setup_only:
        return 0

    ops: list[str] = []
    latencies: list[float] = []
    failures: list[str] = []
    pipeline = task2_pipeline if wl.task == "task2" else threshold_pipeline
    # The traced run makes one pass of one decode round, so its counts
    # repeat exactly for a given seed.
    passes = 1 if tracer is not None else wl.passes
    first_sets = None
    rounds = 0
    for p in range(passes):
        decode_one, variants, fitted = pipeline(sg, wl, train, stages, ops)
        while True:
            results = stages.run("decode", lambda: decode_round(
                decode_one, variants, test.samples, latencies, failures))
            rounds += 1
            sets = {v: [predicted(r) for r in rs] for v, rs in results.items()}
            if first_sets is None:
                first_sets, first_round, first_fit = sets, results, fitted
                quality = stages.run("score", lambda: score(
                    sg, wl.task, test, first_fit, first_round))
                ops.append("score")
            else:
                for v in variants:
                    if sets[v] != first_sets[v]:
                        failures.append(f"{v}: round {rounds} decoded other sets than round 1")
            if tracer is not None or stages.total("decode") >= args.seconds * (p + 1) / passes:
                break

    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = run_checks(sg, wl, train, test, first_fit, first_round)
    n_decodes = len(latencies)
    lat = np.asarray(latencies) * 1e3
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "make_up": asdict(wl) | {"train_seed": TRAIN_SEED,
                                 "held_out_seed": HELD_OUT_SEED + args.seed},
        "stages_s": stages.seconds,
        "passes": passes,
        "decode": {"rounds": rounds, "samples": n_decodes,
                   "samples_per_s": n_decodes / stages.total("decode"),
                   "ms_p50": float(np.percentile(lat, 50)),
                   "ms_p95": float(np.percentile(lat, 95))},
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops) + n_decodes,
        "failed": len(failures),
        "failures": failures[:5],
        "checks": verdict,
        "quality": quality,
        "env": environment(),
    }
    if tracer is not None:
        doc["trace"] = tracer.dump()
        doc["layers"] = layer_metrics(tracer)
    marker(json.dumps(doc))
    return 0


def layer_metrics(tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    spans = tracer.by_name()
    counts = tracer.counts
    out: dict[str, float] = {}

    def put(name, calls=False, s=False):
        n, self_s = spans.get(name, (0, 0.0))
        if calls:
            out[f"{name}.calls"] = n
        if s:
            out[f"{name}.s"] = self_s

    put("tasks.generate", s=True)
    for name in ("nn.lstm_step_forward", "nn.lstm_step_backward", "nn.sigmoid", "nn.Adam.step"):
        put(name, calls=True, s=True)
    for name in ("nn.conv1d_forward", "nn.conv1d_backward", "nn.dense_forward",
                 "nn.dense_backward", "models.train_sequence_model",
                 "models.SequenceModel.loss_and_grads", "models.train_label_model",
                 "models.train_multilabel_baseline", "penalty.margin_stats",
                 "penalty.solve_lambda_per_position",
                 "lambda_net.train_lambda_net.recurrent",
                 "lambda_net.train_lambda_net.windowed",
                 "lambda_net.LambdaNet.loss_and_grads", "metrics.evaluate"):
        put(name, s=True)
    put("nn.softmax", calls=True)
    for name in ("models.SequenceModel.decode_step", "models.LabelModel.posterior",
                 "penalty.solve_lambda", "lambda_net.LambdaNet.classify",
                 "decoder.decode_sequence_set", "decoder.decode_set"):
        put(name, calls=True, s=True)
    put("lambda_net.build_lambda_training_set", s=True)
    put("decoder.penalized_argmax", calls=True)
    for name in ("penalty.solve_lambda.records", "penalty.solve_lambda.peak_mb",
                 "lambda_net.build_lambda_training_set.examples", "decoder.iterations",
                 "decoder.dead_ends", "decoder.dropped_branches",
                 "decoder.truncated_samples"):
        out[name] = counts.get(name, 0)
    steps = tracer.calls_under("decoder.decode_sequence_set", "models.SequenceModel.decode_step")
    out["decoder.sequences_per_expansion"] = counts.get("decoder.sequences", 0) / steps if steps else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main())
