"""Experiment harness: dataset generation, training, calibration, decoding, evaluation.

Verbs: ``gen``, ``import``, ``train``, ``eval``, ``reproduce``.  Every run
writes a resolved config (with its hash and the library version) next to its
artifacts, and nothing mutates a written run directory, so any result can be
re-derived bit-identically from disk (a ``reproduce`` tree stores its dataset
and base model once, in ``base/``).  Reports never embed wall-clock values;
timing goes to stderr only.

Exit codes: 0 success, 1 validation error, 2 training failure,
3 criterion failure (``reproduce`` only).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import operator
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, metrics, tasks
from .core import (
    Dataset,
    TrainingError,
    ValidationError,
    flatten,
    load_dataset,
    save_dataset,
    seq_to_str,
)
from .decoder import decode_sequence_set, position_tokens
from .lambda_net import (
    LambdaNet,
    build_lambda_training_set,
    gate_accuracy,
    train_lambda_net,
)
from .models import (
    TrainConfig,
    checkpoint,
    load_checkpoint,
    save_checkpoint,
    train_label_model,
    train_multilabel_baseline,
    train_sequence_model,
)
from .penalty import PenaltyParams, solve_lambda_per_position

# Each variant's penalty kind (None: the multi-label baseline, which has no
# penalty), its gate's LambdaNet variant and its reproduce column.
VARIANTS = {
    "scalar": ("per-position", None, "ssg-s"),  # a label set's one position
    "per-position": ("per-position", None, "ssg-s"),
    "learned-recurrent": ("learned", "recurrent", "ssg-recurrent"),
    "learned-windowed": ("learned", "windowed", "ssg-windowed"),
    "baseline": (None, None, "multi-label"),
}
# Each task's set kind, the variants that apply to it in reproduce's column
# order, its metric, and its directional criteria as (winner, loser) pairs.
_LABEL_VARIANTS = ("baseline", "scalar", "learned-recurrent", "learned-windowed")
TASKS = {
    "threshold": ("labels", _LABEL_VARIANTS, "mF1", ()),
    "task1": ("sequences", ("baseline", "per-position", "learned-recurrent", "learned-windowed"),
              "mF1", (("learned-windowed", "baseline"), ("learned-windowed", "per-position"),
                      ("learned-recurrent", "per-position"))),
    "task2": ("sequences", ("per-position", "learned-recurrent", "learned-windowed"), "mED",
              (("learned-windowed", "per-position"), ("learned-recurrent", "per-position"))),
    "multilabel-file": ("labels", _LABEL_VARIANTS, "mF1", ()),
}
_BETTER = {"mF1": (">", operator.gt), "mED": ("<", operator.lt)}
REPRODUCE_TAGS = ("task1", "task2", "multilabel-file")
GATE_FILE = "gate.json"  # the learned penalty's classifier, beside penalty.json
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}  # RunConfig's annotations


# --- run hashes -------------------------------------------------------------------
#
# A run's ``config_hash`` hashes its config, which holds ``dataset_hash``, the
# hash of the loaded dataset, when the samples come from a file; a penalty's
# ``model_hash`` hashes its base model's checkpoint; and a ref into a
# reproduce tree's ``base/`` holds the SHA-256 of the file's bytes.


def json_hash(doc: dict) -> str:
    """SHA-256 of a JSON document in canonical form (sorted keys, no whitespace)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def content_hash(model) -> str:
    """The hash of a model's checkpoint document: a penalty's ``model_hash``."""
    return json_hash(checkpoint(model))


def _file_hash(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class RunConfig:
    """Flat, fully serialized description of one train/eval run.

    It holds what a run chooses: the task and data, the penalty variant, the
    stop rule's ``rho``, the split and the schedule.  Model sizes, decision
    thresholds, the batch size and the decoder's branch cap are the
    library's defaults, stated once in the model constructors and the decoder.
    """

    task: str
    variant: str
    n: int = 1000
    seed: int = 7
    rho: float = 0.0
    split: float = 0.7
    epochs: int = 40
    learning_rate: float = 1e-3
    data: str = ""  # sparse multi-label file, multilabel-file task only

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass, so a JSON true would otherwise read as 1
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ValidationError(f"config key {f.name!r} must be of type {f.type}")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.n < 1 or self.epochs < 1:
            raise ValidationError("sample count and epochs must be at least 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValidationError("learning rate must be finite and positive")
        if self.task not in TASKS:
            raise ValidationError(f"unknown task {self.task!r}")
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown penalty variant {self.variant!r}")
        if not 0.0 <= self.rho < 1.0:
            raise ValidationError("rho must lie in [0, 1)")
        if not 0.0 < self.split < 1.0:
            raise ValidationError("split fraction must lie in (0, 1)")
        if (self.task == "multilabel-file") != bool(self.data):
            raise ValidationError("multilabel-file runs need --data, and no other task reads it")
        applicable = TASKS[self.task][1]
        if self.variant not in applicable:
            raise ValidationError(f"not applicable: task {self.task!r} runs "
                                  f"{', '.join(applicable)}, not {self.variant!r}")

    def config_hash(self) -> str:
        return json_hash(asdict(self))


def _load_checked(cfg: RunConfig, path: str) -> Dataset:
    """The dataset file at ``path``; refused whole if of another set kind than the
    task, and on its line a sample whose targets break the task's synthetic rule."""
    kind = TASKS[cfg.task][0]

    def rule(dataset: Dataset, sample) -> None:
        if (cfg.task in tasks.SYNTHETIC_TASKS and dataset.kind == kind
                and sample.y != tasks.targets(cfg.task, sample.x)):
            raise ValidationError(f"targets differ from the {cfg.task} rule")

    dataset = load_dataset(path, check=rule)
    if dataset.kind != kind:
        raise ValidationError(f"task {cfg.task!r} needs {kind}, {path} holds {dataset.kind}")
    return dataset


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _refuse_written(path: str, marker: str) -> None:
    """Refuse, before any work, a run directory holding ``marker``: it is append-only."""
    if os.path.exists(os.path.join(path, marker)):
        raise ValidationError(f"refusing to overwrite existing run artifacts in {path!r} "
                              f"({marker} already present); choose a fresh --out")


def _build_dataset(cfg: RunConfig) -> Dataset:
    if cfg.task == "multilabel-file":
        return tasks.load_multilabel(cfg.data)
    spec = tasks.TaskSpec(task=cfg.task, n=cfg.n, seed=cfg.seed)
    return tasks.generate(spec)


def _train_cfg(cfg: RunConfig, seed_offset: int = 0) -> TrainConfig:
    """The run's schedule; batch and layer sizes are the library's defaults."""
    return TrainConfig(learning_rate=cfg.learning_rate, epochs=cfg.epochs,
                       seed=cfg.seed + seed_offset)


@dataclass
class RunArtifacts:
    """In-memory handles produced by training; mirrored on disk."""

    cfg: RunConfig
    dataset: Dataset
    train_split: Dataset
    test_split: Dataset
    base_model: object = None  # the baseline's own model when ``penalty`` is None
    penalty: PenaltyParams | None = None
    gate_examples: tuple | None = None  # the gate's (train, holdout) GateExamples
    report: dict | None = None
    config_hash: str = ""  # defaults to the hash of ``cfg``

    def __post_init__(self) -> None:
        self.config_hash = self.config_hash or self.cfg.config_hash()


def train_run(cfg: RunConfig, dataset: Dataset | None = None, out: str | None = None,
              base_model=None, gate_examples=None, source: str | None = None,
              base: str | None = None) -> RunArtifacts:
    """Train the base model and calibrate the configured penalty variant.

    A ``base_model`` passed in (already trained on this config's split) is
    reused instead of fitted, and the report says so; so are ``gate_examples``.
    ``source`` names a dataset file to read in place of ``dataset``.  A dataset
    read from a file (``source`` or ``data``) is hashed into the config.  ``n``
    records the dataset's size, and ``base`` goes to ``_persist_run``.
    """
    if out:
        _refuse_written(out, "config.json")
    if source:
        dataset = _load_checked(cfg, source)
    dataset = dataset if dataset is not None else _build_dataset(cfg)
    cfg = replace(cfg, n=len(dataset))
    train_ds, test_ds = tasks.split_train_test(dataset, cfg.split, cfg.seed)
    config = asdict(cfg)
    if source or cfg.data:  # the file's content, not the spelling of its path
        config["dataset_hash"] = json_hash(asdict(dataset))
    art = RunArtifacts(cfg=cfg, dataset=dataset, train_split=train_ds, test_split=test_ds,
                       config_hash=json_hash(config))
    report: dict = {
        "version": __version__,
        "config": config,
        "config_hash": art.config_hash,
        "n_train": len(train_ds),
        "n_test": len(test_ds),
    }

    if base_model is not None:
        art.base_model = base_model
        report["reused_base"] = True
    else:
        art.base_model = _fit_base_model(cfg, train_ds)
    report["train_losses"] = art.base_model.train_losses
    kind, gate_variant, _ = VARIANTS[cfg.variant]
    if kind == "per-position":
        penalty = solve_lambda_per_position(art.base_model, train_ds)
    elif kind == "learned":
        gate, art.gate_examples = _fit_gate(cfg, gate_variant, art.base_model, train_ds,
                                            report, gate_examples)
        penalty = PenaltyParams(variant="learned", classifier=gate)
    if kind is not None:
        art.penalty = replace(penalty, model_hash=content_hash(art.base_model))
        report["penalty"] = art.penalty.to_dict()
    art.report = report
    if out:
        _persist_run(art, out, base)
    return art


def _fit_base_model(cfg: RunConfig, train_ds: Dataset):
    if VARIANTS[cfg.variant][0] is None:  # the baseline; on task1, through the label view
        label_ds = tasks.task1_label_view(train_ds) if cfg.task == "task1" else train_ds
        return train_multilabel_baseline(label_ds, _train_cfg(cfg))
    flat = flatten(train_ds)
    if train_ds.kind == "labels":
        return train_label_model(flat, _train_cfg(cfg), train_ds.universe)
    return train_sequence_model(flat, _train_cfg(cfg), input_vocab=train_ds.input_vocab,
                                vocab=train_ds.universe, max_len=train_ds.max_len)


def _fit_gate(cfg: RunConfig, variant: str, model, train_ds: Dataset, report: dict,
              examples: tuple | None = None) -> tuple[LambdaNet, tuple]:
    """Train on the first 90% of samples; hold out the rest whole.

    The split is by sample, not by example, so no sample has prefixes on
    both sides of it.  The (train, holdout) ``examples`` are built unless
    passed in and are returned with the gate; a split too small to hold any
    sample out reports no validation accuracy.
    """
    if examples is None:
        cut = max(1, int(round(0.9 * len(train_ds))))
        examples = tuple(build_lambda_training_set(model, replace(train_ds, samples=part))
                         for part in (train_ds.samples[:cut], train_ds.samples[cut:]))
    train, holdout = examples  # a label set's max_len, 0, leaves it to the examples: 1
    gate = train_lambda_net(train, variant, _train_cfg(cfg, 1), max_len=train_ds.max_len)
    report["gate_train_losses"] = gate.train_losses
    report["gate_validation_accuracy"] = gate_accuracy(gate, holdout)
    return gate, examples


def _persist_run(art: RunArtifacts, out: str, base: str | None = None) -> None:
    """Write a run; with ``base``, its dataset and base model go there once, and
    ``config.json``'s ``refs`` maps each name to its path from ``out`` and SHA-256.
    """
    os.makedirs(out, exist_ok=True)
    refs = {}
    for name, save in (("dataset.jsonl", lambda p: save_dataset(art.dataset, p)),
                       (_model_file(art.cfg), lambda p: save_checkpoint(art.base_model, p))):
        if base is None or name == "baseline.json":  # the baseline's model is its own
            save(os.path.join(out, name))
            continue
        os.makedirs(base, exist_ok=True)
        path = os.path.join(base, name)
        if not os.path.exists(path):
            save(path)
        refs[name] = {"path": os.path.relpath(path, out),
                      "sha256": _file_hash(path)}
    _write_json(os.path.join(out, "config.json"), {
        "version": __version__,
        "config": art.report["config"],
        "config_hash": art.config_hash,
        **({"refs": refs} if refs else {}),
    })
    if art.penalty is not None:
        if art.penalty.classifier is not None:
            save_checkpoint(art.penalty.classifier, os.path.join(out, GATE_FILE))
        _write_json(os.path.join(out, "penalty.json"), art.penalty.to_dict())
    _write_json(os.path.join(out, "train_report.json"), art.report)


def _model_file(cfg: RunConfig) -> str:
    """The run's checkpoint file: the baseline's model or the penalized base model."""
    return "model.json" if VARIANTS[cfg.variant][0] else "baseline.json"


def _read_run_file(path: str, parse):
    """``parse`` applied to a JSON file's document; a malformed file is refused by path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:  # bad JSON: ValueError
            raise ValidationError(f"{path}: malformed ({type(exc).__name__}: {exc})") from exc


def _run_config(doc, run_dir: str) -> tuple[RunConfig, str, dict]:
    """A ``config.json``'s config, the hash of what it runs, and refs: name -> (path, sha256)."""
    # Skip keys that older versions wrote and RunConfig no longer has (the
    # eval thread count, model sizes, thresholds, the batch size, the branch
    # cap and the gate's epochs), so their run directories still load.  The
    # hash keeps them, so an older run hashes as it did when it was written.
    saved = doc["config"]
    cfg = RunConfig(**{k: saved[k] for k in RunConfig.__dataclass_fields__ if k in saved})
    refs = {name: (os.path.join(run_dir, ref["path"]), ref["sha256"])
            for name, ref in doc.get("refs", {}).items()}
    return cfg, json_hash({**saved, **asdict(cfg)}), refs


def _load_model(path: str, family: str):
    """The model in a checkpoint file, refused unless it is of ``family``."""
    model = load_checkpoint(path)
    if model.family != family:
        raise ValidationError(f"{path}: holds a {model.family!r} model, the run needs {family!r}")
    return model


def load_run(run_dir: str) -> RunArtifacts:
    """Rehydrate the files ``train_run`` wrote for the config's variant.

    Files are read from ``run_dir``, or where ``config.json``'s ``refs`` points.  Refuses a
    missing or malformed file, a referenced one whose bytes differ from its SHA-256, a
    dataset of another kind than the task or that breaks its rule, a model of another family
    than the dataset, and a penalty of another kind than the variant or whose model_hash is
    not the base model's checkpoint hash.  This is where a penalty is held to its base model:
    ``train_run`` binds the two by construction, so decoding does not check them again.
    """
    config = os.path.join(run_dir, "config.json")
    cfg, config_hash, refs = _read_run_file(config, lambda doc: _run_config(doc, run_dir))
    for ref_path, sha256 in refs.values():
        if _file_hash(ref_path) != sha256:
            raise ValidationError(f"{ref_path}: bytes differ from the sha256 in {config}")
    path = lambda name: refs[name][0] if name in refs else os.path.join(run_dir, name)
    dataset = _load_checked(cfg, path("dataset.jsonl"))
    train_ds, test_ds = tasks.split_train_test(dataset, cfg.split, cfg.seed)
    art = RunArtifacts(cfg=cfg, dataset=dataset, train_split=train_ds, test_split=test_ds,
                       config_hash=config_hash)
    kind, gate_variant, _ = VARIANTS[cfg.variant]
    family = ("multilabel" if kind is None else
              "label" if dataset.kind == "labels" else "sequence")
    art.base_model = _load_model(path(_model_file(cfg)), family)
    if kind is None:
        return art
    art.penalty = _read_run_file(path("penalty.json"), PenaltyParams.from_dict)
    if art.penalty.variant != kind:
        raise ValidationError(f"{path('penalty.json')}: variant {cfg.variant!r} needs a "
                              f"{kind!r} penalty, the file holds {art.penalty.variant!r}")
    if art.penalty.model_hash != content_hash(art.base_model):  # None fails it too
        raise ValidationError(f"{path('penalty.json')}: model_hash is not the hash of "
                              f"the run's base model, which the penalty was calibrated for")
    if kind == "learned":  # an older penalty.json's classifier_ref named this same file
        art.penalty.classifier = _load_model(path(GATE_FILE), f"lambda-{gate_variant}")
    return art


# --- decoding + evaluation -----------------------------------------------------


def _predict_sample(art: RunArtifacts, sample):
    """Decode one sample into (predicted set of hashables, iterations, repeats, truncated)."""
    cfg = art.cfg
    sequences = art.dataset.kind == "sequences"
    if art.penalty is None:  # the baseline; on task1, through the label view's features
        x = tasks.featurize_digits(sample.x, tasks.TASK1_MAX_INPUT_LEN) if sequences else sample.x
        pred = art.base_model.predict_set(x)
        if sequences:
            pred = frozenset((int(d),) for d in pred)
        return pred, 1, 0, False
    if not sequences:  # a label set is the one-position case of a sequence set
        logits = art.base_model.scores(np.asarray(sample.x, dtype=float)[None, :])[0]
        labels, iterations, repeats = position_tokens(art.penalty, logits, 1, rho=cfg.rho)
        return frozenset(labels), iterations, repeats, False
    res = decode_sequence_set(art.base_model, art.penalty, sample.x, rho=cfg.rho)
    content = frozenset(seq[:-1] for seq in res.sequences)
    return content, res.iterations, res.repeats, res.truncated


def _sample_report(x, pred, iterations: int, repeats: int, truncated: bool) -> dict:
    """One line of decode_report.jsonl; token sequences are written as digit strings."""
    tokens = bool(x) and isinstance(x[0], int)
    return {
        "x": seq_to_str(x) if tokens else list(x),
        "predicted": sorted(seq_to_str(e) if isinstance(e, tuple) else e for e in pred),
        "iterations": iterations,
        "truncated": truncated,
        "repeats": repeats,
    }


def eval_run(art: RunArtifacts, out: str | None = None,
             metric: str | None = None) -> metrics.EvalReport:
    """Decode the held-out split and score it with the task's metric; an
    ``out`` that holds an eval is refused before any decode."""
    if out:
        _refuse_written(out, "eval_report.json")
    cfg = art.cfg
    metric = metric or TASKS[cfg.task][2]
    ds = art.test_split
    if metric == "mED" and ds.kind == "labels":
        raise ValidationError("mED scores sequence sets; score a label-set run with mF1")
    results = [_predict_sample(art, s) for s in ds.samples]
    preds = [r[0] for r in results]
    if ds.kind == "labels":
        truths = [s.y_set for s in ds.samples]
    else:
        truths = [frozenset(seq[:-1] for seq in s.y) for s in ds.samples]
    n_truncated = sum(1 for r in results if r[3])
    report = metrics.evaluate(preds, truths, metric, n_truncated=n_truncated)
    if out:
        os.makedirs(out, exist_ok=True)
        doc = report.to_dict()
        doc["version"] = __version__
        doc["config_hash"] = art.config_hash
        doc["variant"] = cfg.variant
        doc["task"] = cfg.task
        _write_json(os.path.join(out, "eval_report.json"), doc)
        with open(os.path.join(out, "decode_report.jsonl"), "w", encoding="utf-8") as fh:
            for sample, r in zip(ds.samples, results):
                fh.write(json.dumps(_sample_report(sample.x, *r), sort_keys=True) + "\n")
        with open(os.path.join(out, "summary.csv"), "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["task", "variant", "metric", "aggregate", "exact_match_rate", "n"])
            w.writerow([cfg.task, cfg.variant, metric,
                        f"{report.aggregate:.6f}", f"{report.exact_match_rate:.6f}",
                        report.n_samples])
    return report


# --- reproduce pipelines ----------------------------------------------------------


def reproduce(task: str, out: str, n: int | None = None, seed: int = RunConfig.seed,
              epochs: int | None = None, data: str = "") -> tuple[dict, bool]:
    """Run the baseline and every applicable variant; check directional criteria.

    The penalty variants share one base model, trained by the first of
    them and stored once with the dataset, in ``<out>/base/``.  A
    ``multilabel-file`` run counts its samples, so it refuses ``n``.
    Returns (report, all_criteria_pass).  Absolute scores depend on the
    pinned seed and schedule; only orderings are asserted.
    """
    if task not in REPRODUCE_TAGS:
        raise ValidationError(f"unknown reproduce tag {task!r}")
    if task == "multilabel-file" and n is not None:
        raise ValidationError("--data holds the samples; drop n")
    epochs = epochs if epochs is not None else (60 if task != "multilabel-file" else 80)
    # Every input is checked before the output directory is made.
    configs = [RunConfig(task=task, variant=variant, n=RunConfig.n if n is None else n,
                         seed=seed, epochs=epochs, data=data) for variant in TASKS[task][1]]
    dataset = _build_dataset(configs[0])
    tasks.split_train_test(dataset, configs[0].split, seed)  # refuses too few samples
    _refuse_written(out, "reproduce_report.json")
    os.makedirs(out, exist_ok=True)
    scores: dict[str, float] = {}
    reports: dict[str, dict] = {}
    base_model = gate_examples = None
    metric = TASKS[task][2]
    for cfg in configs:
        variant = cfg.variant
        t0 = time.perf_counter()
        variant_dir = os.path.join(out, variant)
        art = train_run(cfg, dataset=dataset, out=variant_dir, base_model=base_model,
                        gate_examples=gate_examples, base=os.path.join(out, "base"))
        gate_examples = art.gate_examples or gate_examples
        if art.penalty is not None:  # the baseline's model is no base model to reuse
            base_model = art.base_model
        report = eval_run(art, out=variant_dir)
        dt = time.perf_counter() - t0
        scores[variant] = report.aggregate
        reports[variant] = report.to_dict()
        print(f"[{VARIANTS[variant][2]:>14}] {metric}={report.aggregate:.4f} "
              f"exact={report.exact_match_rate:.3f} ({dt:.1f}s)", file=sys.stderr)
    criteria = _criteria(task, scores)
    names, cells = _table(task, scores)
    print(_format_table(task, metric, names, cells))
    all_pass = all(ok for _, ok in criteria)
    for name, ok in criteria:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    doc = {
        "version": __version__,
        "task": task,
        "metric": metric,
        "n": len(dataset),
        "seed": seed,
        "epochs": epochs,
        "columns": {VARIANTS[v][2]: scores[v] for v in scores},
        "not_applicable": [VARIANTS[v][2] for v in _not_applicable(task)],
        "criteria": [{"name": name, "pass": ok} for name, ok in criteria],
        "reports": reports,
    }
    _write_json(os.path.join(out, "reproduce_report.json"), doc)
    with open(os.path.join(out, "table.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["task", "metric"] + names)
        w.writerow([task, metric] + [c if isinstance(c, str) else f"{c:.6f}" for c in cells])
    return doc, all_pass


def _not_applicable(task: str) -> list[str]:
    """The baseline, where the task does not run it (task2): reported N/A."""
    return [] if "baseline" in TASKS[task][1] else ["baseline"]


def _criteria(task: str, scores: dict[str, float]) -> list[tuple[str, bool]]:
    """The task's directional criteria, each as (name, pass), then one per N/A column."""
    _, _, metric, pairs = TASKS[task]
    sign, better = _BETTER[metric]
    col = lambda v: VARIANTS[v][2]
    return ([(f"{col(w)} {metric} {sign} {col(l)} {metric}", better(scores[w], scores[l]))
             for w, l in pairs]
            + [(f"{col(v)} reported N/A", v not in scores) for v in _not_applicable(task)])


def _table(task: str, scores: dict[str, float]) -> tuple[list[str], list]:
    """Score column names and cells of the reproduce table, for stdout and table.csv.

    A variant the task does not run has no score, so its cell reads N/A.
    """
    variants = _not_applicable(task) + list(TASKS[task][1])
    return ([VARIANTS[v][2] for v in variants],
            [scores[v] if v in scores else "N/A" for v in variants])


def _format_table(task: str, metric: str, names: list[str], cells: list) -> str:
    header = f"{'task':<8} {'metric':<7} " + " ".join(f"{n:>15}" for n in names)
    row = " ".join(f"{c:>15}" if isinstance(c, str) else f"{c:>15.4f}" for c in cells)
    return header + "\n" + f"{task:<8} {metric:<7} " + row


# --- argument parsing ----------------------------------------------------------------


def _merged_config(args: argparse.Namespace, required: tuple[str, ...] = ()) -> RunConfig:
    doc: dict = _read_run_file(args.config, dict) if args.config else {}
    unknown = sorted(set(doc) - set(RunConfig.__dataclass_fields__))
    if unknown:
        raise ValidationError(f"unknown config key(s) {', '.join(map(repr, unknown))}")
    for key in RunConfig.__dataclass_fields__:
        val = getattr(args, key, None)
        if val is not None:
            doc[key] = val
    for key in required:
        if key not in doc:
            raise ValidationError(f"missing required config key {key!r}")
    if args.dataset is not None:  # it holds the samples, data names it
        given = [key for key in ("n", "data") if key in doc]
        if given:
            raise ValidationError(f"--dataset holds the samples; drop {' and '.join(given)}")
        if doc["task"] == "multilabel-file":  # the one task that reads data
            doc["data"] = args.dataset
    elif doc["task"] == "multilabel-file" and "n" in doc:
        raise ValidationError("--data holds the samples; drop n")
    return RunConfig(**doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="setgen", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--task", required=True, choices=tasks.SYNTHETIC_TASKS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("import", help="convert a sparse multi-label file to the dataset format")
    p.add_argument("--data", required=True)
    p.add_argument("--features", type=int, default=None)
    p.add_argument("--universe", type=int, default=None)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("train", help="train a base model and calibrate its penalty")
    p.add_argument("--task", choices=TASKS, default=None)
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--dataset", type=str, default=None, help="existing dataset.jsonl")
    p.add_argument("--data", type=str, default=None, help="sparse multi-label file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--split", type=float, default=None)
    p.add_argument("--config", type=str, default=None,
                   help="JSON file of flat RunConfig keys; flags override it")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("eval", help="decode and score the held-out split of a train run")
    p.add_argument("--run", required=True, help="directory written by train")
    p.add_argument("--metric", choices=("mF1", "mED"), default=None)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("reproduce", help="run every applicable variant and check orderings")
    p.add_argument("tag", choices=REPRODUCE_TAGS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--data", type=str, default="")
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--out", type=str, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "gen":
            spec = tasks.TaskSpec(task=args.task, n=args.n, seed=args.seed or 0)
            out = args.out or "."
            ds = tasks.generate(spec)
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, f"{args.task}.jsonl")
            save_dataset(ds, path)
            _write_json(os.path.join(out, f"{args.task}.manifest.json"), {
                "version": __version__,
                "task": args.task,
                "n": args.n,
                "seed": args.seed or 0,
                "samples": len(ds),
            })
            print(path)
            return 0
        if args.cmd == "import":
            ds = tasks.load_multilabel(args.data, n_features=args.features,
                                       universe=args.universe)
            out = args.out or "."
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, "imported.jsonl")
            save_dataset(ds, path)
            print(path)
            return 0
        if args.cmd == "train":
            cfg = _merged_config(args, required=("task", "variant"))
            out = args.out or "run"
            train_run(cfg, out=out, source=args.dataset)
            print(out)
            return 0
        if args.cmd == "eval":
            art = load_run(args.run)
            out = args.out or os.path.join(args.run, "eval")
            report = eval_run(art, out=out, metric=args.metric)
            print(f"{report.metric}={report.aggregate:.6f}")
            return 0
        if args.cmd == "reproduce":
            out = args.out or f"reproduce-{args.tag}"
            _, ok = reproduce(args.tag, out, n=args.n, seed=args.seed,
                              epochs=args.epochs, data=args.data)
            return 0 if ok else 3
        raise ValidationError(f"unknown command {args.cmd!r}")
    except (ValidationError, OSError) as exc:  # OSError: a path the user named
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
