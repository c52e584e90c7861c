import contextlib
import hashlib
import inspect
import io
import json
import os
import shutil
import tempfile
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setgen import cli
from setgen.cli import (
    VARIANTS,
    RunConfig,
    eval_run,
    json_hash,
    load_run,
    main,
    reproduce,
    train_run,
)
from setgen.core import ValidationError, load_dataset
from setgen.lambda_net import LambdaNet
from setgen.metrics import EvalReport
from setgen.models import load_checkpoint
from setgen.tasks import TaskSpec, generate, targets
from tests.conftest import OracleLabelPosterior


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# --- gen / import -----------------------------------------------------------------


def test_gen_writes_dataset_and_manifest(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["gen", "--task", "task1", "--n", "50", "--seed", "7",
                 "--out", str(out)]) == 0
    ds = load_dataset(str(out / "task1.jsonl"))
    assert len(ds) == 50
    manifest = json.loads(read(out / "task1.manifest.json"))
    assert manifest["seed"] == 7 and manifest["n"] == 50


def test_gen_twice_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "--task", "task1", "--n", "100", "--seed", "7",
                     "--out", str(out)]) == 0
    assert read(a / "task1.jsonl") == read(b / "task1.jsonl")
    assert read(a / "task1.manifest.json") == read(b / "task1.manifest.json")


def test_gen_task2_passes_truth_self_check(tmp_path):
    out = tmp_path / "g2"
    assert main(["gen", "--task", "task2", "--n", "10", "--seed", "3",
                 "--out", str(out)]) == 0
    ds = load_dataset(str(out / "task2.jsonl"))
    for s in ds.samples:
        assert s.y == targets("task2", s.x)


def test_import_round_trips_sparse_file(tmp_path):
    src = tmp_path / "ml.txt"
    src.write_text("1,3 0:0.5 2:1.0\n0 1:2.0\n2 0:1.0 1:1.0 2:1.0\n")
    out = tmp_path / "imp"
    assert main(["import", "--data", str(src), "--out", str(out)]) == 0
    ds = load_dataset(str(out / "imported.jsonl"))
    assert len(ds) == 3 and ds.universe == 4


@pytest.mark.parametrize("flag", ["--features", "--universe"])
def test_import_refuses_a_size_below_one(tmp_path, capsys, flag):
    src = tmp_path / "ml.txt"
    src.write_text("1,3 0:0.5 2:1.0\n0 1:2.0\n")
    out = tmp_path / "imp"
    capsys.readouterr()
    assert main(["import", "--data", str(src), flag, "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "at least 1" in err[0]
    assert not out.exists()


def test_import_names_the_file_for_a_label_outside_the_universe(tmp_path, capsys):
    src = tmp_path / "ml.txt"
    src.write_text("5 0:0.5\n0 1:2.0\n")
    out = tmp_path / "imp"
    capsys.readouterr()
    assert main(["import", "--data", str(src), "--universe", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {src}:1: label 5 outside universe 3"]
    assert not out.exists()


@pytest.mark.parametrize("verb", ["import", "train"])
def test_a_non_finite_feature_is_refused_on_its_line(tmp_path, capsys, verb):
    src = tmp_path / "ml.txt"
    src.write_text("0 0:0.5\n\n1,2 0:1.0 1:nan\n2 1:2.0\n")
    out = tmp_path / "o"
    argv = {"import": ["import", "--data", str(src)],
            "train": ["train", "--task", "multilabel-file", "--variant", "scalar",
                      "--epochs", "1", "--data", str(src)]}[verb]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {src}:3: non-finite feature '1:nan'"]
    assert not out.exists()


# --- train ------------------------------------------------------------------------


def test_train_scalar_threshold_reports_one_lambda(tmp_path):
    cfg = RunConfig(task="threshold", variant="scalar", n=60, epochs=3, seed=1)
    out = tmp_path / "run"
    train_run(cfg, out=str(out))
    report = json.loads(read(out / "train_report.json"))
    pen = report["penalty"]
    assert pen["variant"] == "per-position" and "value" not in pen
    assert pen["values"] == [pen["feasibility"][0]["value"]]
    assert isinstance(pen["values"][0], float)
    assert len(pen["feasibility"]) == 1
    assert "feasible" in pen["feasibility"][0]


def test_a_penalty_file_in_the_scalar_form_evaluates_as_its_per_position_form(tmp_path):
    # older versions wrote a label run's penalty as "scalar" with its one "value"
    run = _run_of(tmp_path, "scalar")
    eval_run(load_run(str(run)), out=str(tmp_path / "e-new"))
    doc = json.loads(read(run / "penalty.json"))
    (lam,) = doc["values"]
    (run / "penalty.json").write_text(json.dumps({**doc, "variant": "scalar", "value": lam,
                                                  "values": None}))
    art = load_run(str(run))
    assert art.penalty.variant == "per-position" and art.penalty.values == (lam,)
    eval_run(art, out=str(tmp_path / "e-old"))
    for name in ("decode_report.jsonl", "eval_report.json"):
        assert read(tmp_path / "e-old" / name) == read(tmp_path / "e-new" / name)


def test_a_learned_penalty_file_naming_its_gate_evaluates_as_without_the_name(tmp_path):
    # older versions named the gate's file, always gate.json, in penalty.json
    run = _run_of(tmp_path, "learned-windowed")
    eval_run(load_run(str(run)), out=str(tmp_path / "e-new"))
    doc = json.loads(read(run / "penalty.json"))
    (run / "penalty.json").write_text(json.dumps({**doc, "classifier_ref": "gate.json"}))
    eval_run(load_run(str(run)), out=str(tmp_path / "e-old"))
    for name in ("decode_report.jsonl", "eval_report.json"):
        assert read(tmp_path / "e-old" / name) == read(tmp_path / "e-new" / name)


def test_train_per_position_reports_value_per_position(tmp_path):
    cfg = RunConfig(task="task2", variant="per-position", n=30, epochs=2, seed=1)
    out = tmp_path / "run"
    train_run(cfg, out=str(out))
    pen = json.loads(read(out / "penalty.json"))
    assert pen["variant"] == "per-position"
    assert len(pen["values"]) == 10  # task2 output positions incl. end token
    assert len(pen["feasibility"]) == 10


def test_train_learned_windowed_writes_gate_and_accuracy(tmp_path):
    cfg = RunConfig(task="task1", variant="learned-windowed", n=40, epochs=2, seed=1)
    out = tmp_path / "run"
    train_run(cfg, out=str(out))
    assert os.path.exists(out / "gate.json")
    report = json.loads(read(out / "train_report.json"))
    assert 0.0 <= report["gate_validation_accuracy"] <= 1.0
    pen = json.loads(read(out / "penalty.json"))
    assert pen["variant"] == "learned" and "classifier_ref" not in pen
    assert pen["model_hash"]
    assert report["penalty"] == pen


def test_gate_validation_accuracy_is_null_without_holdout(tmp_path):
    # n=6 leaves 4 training samples; the 90% cut keeps all 4 for the gate.
    cfg = RunConfig(task="threshold", variant="learned-windowed", n=6, epochs=2, seed=1)
    out = tmp_path / "run"
    train_run(cfg, out=str(out))
    report = json.loads(read(out / "train_report.json"))
    assert report["n_train"] == 4
    assert report["gate_validation_accuracy"] is None


def test_baseline_on_task2_is_refused():
    with pytest.raises(ValidationError, match="not applicable"):
        RunConfig(task="task2", variant="baseline")
    assert main(["train", "--task", "task2", "--variant", "baseline"]) == 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_train_exit_code_on_divergence(tmp_path):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({
        "task": "threshold", "variant": "scalar", "n": 30, "epochs": 3,
        "learning_rate": 1e308, "seed": 0,
    }))
    rc = main(["train", "--config", str(conf), "--out", str(tmp_path / "r")])
    assert rc == 2


# --- eval --------------------------------------------------------------------------


def test_eval_round_trip_from_disk(tmp_path):
    cfg = RunConfig(task="threshold", variant="scalar", n=60, epochs=4, seed=2)
    out = tmp_path / "run"
    train_run(cfg, out=str(out))
    art = load_run(str(out))
    report = eval_run(art, out=str(tmp_path / "eval"))
    assert isinstance(report, EvalReport)
    doc = json.loads(read(tmp_path / "eval" / "eval_report.json"))
    assert doc["metric"] == "mF1"
    assert len(doc["per_sample"]) == report.n_samples
    lines = read(tmp_path / "eval" / "decode_report.jsonl").splitlines()
    assert len(lines) == report.n_samples
    row = json.loads(lines[0])
    assert set(row) == {"x", "predicted", "iterations", "truncated", "repeats"}


def test_eval_is_deterministic(tmp_path):
    cfg = RunConfig(task="threshold", variant="scalar", n=50, epochs=3, seed=3)
    out = tmp_path / "run"
    train_run(cfg, out=str(out))
    for name in ("e1", "e2"):
        eval_run(load_run(str(out)), out=str(tmp_path / name))
    for fname in ("eval_report.json", "decode_report.jsonl", "summary.csv"):
        assert read(tmp_path / "e1" / fname) == read(tmp_path / "e2" / fname)


def test_eval_oracle_fixture_scores_perfectly(tmp_path):
    # an oracle posterior plus its calibrated scalar penalty decodes exactly
    from setgen.penalty import PenaltyParams, margin_stats, solve_lambda
    from setgen.cli import RunArtifacts
    from setgen.tasks import split_train_test

    ds = generate(TaskSpec(task="threshold", n=200, seed=4))
    train_ds, test_ds = split_train_test(ds, 0.7, seed=4)
    oracle = OracleLabelPosterior({s.x: s.y_set for s in ds.samples}, ds.universe)
    sol = solve_lambda(margin_stats(oracle, train_ds))
    # strict margins (interior solve) are the separability precondition for
    # exact decoding; at a boundary solve, penalized members tie with the
    # best negative and the tie-break may leave the target set
    assert sol.candidate == "interior"
    art = RunArtifacts(
        cfg=RunConfig(task="threshold", variant="scalar", n=80, seed=4),
        dataset=ds, train_split=train_ds, test_split=test_ds,
        base_model=oracle,
        penalty=PenaltyParams(variant="per-position", values=(sol.value,), solutions=(sol,)),
    )
    report = eval_run(art)
    assert report.aggregate == 1.0
    assert report.exact_match_rate == 1.0


@pytest.mark.parametrize("key, value", [("threads", 2), ("max_branches", 1024),
                                        ("gate_hidden", 24)],
                         ids=["threads", "max_branches", "gate_hidden"])
def test_load_run_drops_removed_config_keys(tmp_path, key, value):
    # older run directories store keys RunConfig no longer has: the eval
    # thread count, and the sizes and caps that are now library defaults;
    # their stored hash covers those keys, and eval reports it unchanged
    cfg = RunConfig(task="threshold", variant="scalar", n=40, epochs=2, seed=5)
    out = tmp_path / "run"
    train_run(cfg, out=str(out))
    path = out / "config.json"
    doc = json.loads(read(path))
    doc["config"][key] = value
    blob = json.dumps(doc["config"], sort_keys=True, separators=(",", ":")).encode()
    doc["config_hash"] = hashlib.sha256(blob).hexdigest()
    path.write_text(json.dumps(doc))
    assert load_run(str(out)).cfg == cfg
    assert main(["eval", "--run", str(out), "--out", str(tmp_path / "e")]) == 0
    report = json.loads(read(tmp_path / "e" / "eval_report.json"))
    assert report["config_hash"] == doc["config_hash"] != cfg.config_hash()


def test_eval_reports_the_hash_of_the_config_it_ran(tmp_path):
    # a dropped key takes its default, so the evaluated config is not the stored one
    out = tmp_path / "run"
    train_run(RunConfig(task="threshold", variant="scalar", n=40, epochs=2, seed=5),
              out=str(out))
    path = out / "config.json"
    doc = json.loads(read(path))
    del doc["config"]["seed"]
    path.write_text(json.dumps(doc))
    assert main(["eval", "--run", str(out), "--out", str(tmp_path / "e")]) == 0
    report = json.loads(read(tmp_path / "e" / "eval_report.json"))
    assert report["config_hash"] == load_run(str(out)).cfg.config_hash() != doc["config_hash"]


def _arch_defaults(cls) -> dict:
    """A constructor's keyword defaults, as a checkpoint's ``arch`` stores them."""
    return {k: list(p.default) if isinstance(p.default, tuple) else p.default
            for k, p in inspect.signature(cls).parameters.items()
            if p.default is not inspect.Parameter.empty and k not in ("seed", "pos_weight")}


@pytest.mark.parametrize("task, variant", [("threshold", "learned-windowed"),
                                           ("threshold", "baseline"),
                                           ("task2", "learned-recurrent")])
def test_train_run_saves_the_constructor_default_arch(tmp_path, task, variant):
    out = tmp_path / "run"
    train_run(RunConfig(task=task, variant=variant, n=20, epochs=1, seed=1), out=str(out))
    saved = [f for f in ("model.json", "baseline.json", "gate.json") if (out / f).exists()]
    assert len(saved) == (1 if variant == "baseline" else 2)
    for fname in saved:
        arch = json.loads(read(out / fname))["arch"]
        defaults = _arch_defaults(type(load_checkpoint(str(out / fname))))
        assert defaults and {k: arch[k] for k in defaults} == defaults


def _run_of(tmp_path, variant, task="threshold"):
    out = tmp_path / "run"
    train_run(RunConfig(task=task, variant=variant, n=30, epochs=2, seed=1), out=str(out))
    return out


def _eval_error(tmp_path, capsys, run) -> str:
    """The one ``error:`` line of a refused ``eval``."""
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--out", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


@pytest.mark.parametrize("variant, fname", [("learned-windowed", "gate.json"),
                                            ("scalar", "model.json"),
                                            ("scalar", "penalty.json")])
def test_eval_refuses_a_run_missing_a_file_of_its_variant(tmp_path, capsys, variant, fname):
    run = _run_of(tmp_path, variant)
    os.remove(run / fname)
    assert fname in _eval_error(tmp_path, capsys, run)


def test_eval_refuses_a_penalty_of_another_kind_than_the_variant(tmp_path, capsys):
    run = _run_of(tmp_path, "learned-windowed")
    doc = json.loads(read(run / "config.json"))
    doc["config"]["variant"] = "scalar"
    (run / "config.json").write_text(json.dumps(doc))
    err = _eval_error(tmp_path, capsys, run)
    assert "penalty.json" in err and "'scalar'" in err and "'learned'" in err


def test_eval_refuses_a_model_of_another_family_than_the_dataset(tmp_path, capsys):
    run = _run_of(tmp_path, "learned-windowed")
    shutil.copy(run / "gate.json", run / "model.json")
    assert "model.json" in _eval_error(tmp_path, capsys, run)


@pytest.fixture(scope="module")
def toy_tree(tmp_path_factory):
    """A small ``reproduce task1`` tree: variants refer to ``base/`` for shared files."""
    tree = tmp_path_factory.mktemp("reproduce") / "tree"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        reproduce("task1", str(tree), n=40, seed=2, epochs=1)
    return tree


@pytest.fixture(scope="module")
def saved_runs(tmp_path_factory, toy_tree):
    """One small trained run directory per (task, penalty variant) pair, and
    each variant directory of ``toy_tree``; each run is alone in its parent
    directory but for the files its refs name."""
    pairs = [("task1" if variant == "per-position" else "threshold", variant)
             for variant in VARIANTS]
    pairs += [("task1", "learned-recurrent"), ("task1", "learned-windowed")]
    runs = {f"reproduce-{variant}": str(toy_tree / variant)
            for variant in cli.TASKS["task1"][1]}
    for task, variant in pairs:
        out = tmp_path_factory.mktemp(variant) / "run"
        train_run(RunConfig(task=task, variant=variant, n=20, epochs=1, seed=2), out=str(out))
        runs[f"{task}-{variant}"] = str(out)
    return runs


def _refs(run) -> dict:
    """A run's refs as file name -> referenced path."""
    refs = json.loads(read(os.path.join(run, "config.json"))).get("refs", {})
    return {name: os.path.normpath(os.path.join(run, ref["path"])) for name, ref in refs.items()}


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_eval_of_a_corrupted_run_exits_0_or_1_with_one_error_line(saved_runs, data):
    name = data.draw(st.sampled_from(sorted(saved_runs)), label="run")
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")  # the run with the files its refs name
        shutil.copytree(os.path.dirname(saved_runs[name]), tree)
        run = os.path.join(tree, os.path.basename(saved_runs[name]))
        # the run's JSON files (not an eval's summary.csv) and the files it refers to
        files = [os.path.join(run, f) for f in sorted(os.listdir(run))
                 if f.endswith((".json", ".jsonl"))] + sorted(_refs(run).values())
        rel = data.draw(st.sampled_from([os.path.relpath(f, tree) for f in files]), label="file")
        path = os.path.join(tree, rel)
        op = data.draw(st.sampled_from(("delete", "truncate", "drop-key", "retype",
                                        "swap-variant")), label="op")
        if op == "delete":
            os.remove(path)
        elif op == "truncate":
            text = read(path)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text[:data.draw(st.integers(0, len(text) - 1), label="cut")])
        else:
            if op == "swap-variant":
                path = os.path.join(run, "config.json")
            # a JSON file, or the header line of dataset.jsonl
            head, _, rows = read(path).partition("\n") if path.endswith(".jsonl") \
                else (read(path), "", "")
            doc = json.loads(head)
            keys = ("config", "variant") if op == "swap-variant" else \
                data.draw(st.sampled_from(list(_key_paths(doc))), label="key")
            parent = doc
            for key in keys[:-1]:
                parent = parent[key]
            if op == "drop-key":
                del parent[keys[-1]]
            else:
                parent[keys[-1]] = data.draw(
                    st.sampled_from(tuple(VARIANTS)) if op == "swap-variant"
                    else st.sampled_from(("x", None, [], {}, 1.5, -1)), label="value")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc) + "\n" + rows)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["eval", "--run", run, "--out", os.path.join(tmp, "e")])
    lines = err.getvalue().splitlines()
    assert rc == 0 or (rc == 1 and len(lines) == 1 and lines[0].startswith("error: "))


# Each case as (file of a copied toy tree, its edit, a word the one error line
# holds); an edit deletes the file, appends one byte, swaps in another valid
# checkpoint, or sets the value at a key path of a JSON file.
BROKEN_REFS = {
    "ref-deleted": ("base/dataset.jsonl", "delete", "dataset.jsonl"),
    "dataset-byte-appended": ("base/dataset.jsonl", "append", "sha256"),
    "model-swapped": ("base/model.json", "swap", "sha256"),
    "refs-list": ("learned-windowed/config.json", (("refs",), []), "config.json"),
    "ref-string": ("learned-windowed/config.json",
                   (("refs", "model.json"), "../base/model.json"), "config.json"),
    "ref-path-number": ("learned-windowed/config.json",
                        (("refs", "model.json", "path"), 7), "config.json"),
    "ref-sha256-null": ("learned-windowed/config.json",
                        (("refs", "dataset.jsonl", "sha256"), None), "sha256"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_REFS))
def test_eval_refuses_a_broken_ref_with_one_error_line(tmp_path, capsys, toy_tree, saved_runs,
                                                       case):
    tree = tmp_path / "tree"
    shutil.copytree(toy_tree, tree)
    fname, edit, named = BROKEN_REFS[case]
    path = tree / fname
    if edit == "delete":
        os.remove(path)
    elif edit == "append":
        path.write_bytes(path.read_bytes() + b"\n")
    elif edit == "swap":  # another valid checkpoint of the sequence family the run needs
        shutil.copy(os.path.join(saved_runs["task1-per-position"], "model.json"), path)
    else:
        keys, value = edit
        doc = json.loads(read(path))
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path.write_text(json.dumps(doc))
    assert named in _eval_error(tmp_path, capsys, tree / "learned-windowed")


@pytest.mark.parametrize("case", ["train-config-truncated", "eval-run-missing",
                                  "train-dataset-missing", "import-data-missing"])
def test_a_bad_path_the_user_named_ends_in_one_error_line(tmp_path, capsys, case):
    named = tmp_path / "missing"
    argv = {
        "train-config-truncated": ["train", "--config", str(named)],
        "eval-run-missing": ["eval", "--run", str(named)],
        "train-dataset-missing": ["train", "--task", "threshold", "--variant", "scalar",
                                  "--dataset", str(named)],
        "import-data-missing": ["import", "--data", str(named)],
    }[case]
    if case == "train-config-truncated":
        named.write_text('{"task": "threshold", "variant": ')
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(named) in err[0]


def _drop_last_w0_value(text):
    doc = json.loads(text)
    doc["params"]["W0"].pop()
    return json.dumps(doc)


def _drop_x(text):  # from the first sample row, the line after the header
    return text.replace('"x": ', '"z": ', 1)


MALFORMED = [
    ("config.json", lambda text: "{}"),
    ("penalty.json", lambda text: "{}"),
    ("dataset.jsonl", _drop_x),
    ("dataset.jsonl", lambda text: text[text.index(",") + 1:]),  # cut into the header
    ("model.json", _drop_last_w0_value),
    ("gate.json", lambda text: text[:len(text) // 2]),
    ("penalty.json", lambda text: json.dumps({**json.loads(text), "model_hash": 7})),
    ("config.json", lambda text: text.replace('"seed": 1', '"seed": "1"')),
]


@pytest.mark.parametrize("fname, corrupt", MALFORMED, ids=[
    "config", "penalty", "dataset-row", "dataset-header", "model-short-W0", "gate-truncated",
    "penalty-hash-number", "config-seed-string"])
def test_eval_refuses_a_malformed_run_file_with_one_error_line(tmp_path, capsys, fname,
                                                                corrupt):
    cfg = RunConfig(task="threshold", variant="learned-windowed", n=30, epochs=2, seed=1)
    out = tmp_path / "run"
    train_run(cfg, out=str(out))
    path = out / fname
    path.write_text(corrupt(read(path)))
    capsys.readouterr()
    assert main(["eval", "--run", str(out), "--out", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and fname in err[0]


@pytest.mark.parametrize("edit", ["null", "deleted"])
def test_eval_refuses_a_penalty_that_names_no_model_hash(tmp_path, capsys, edit):
    # without the hash, nothing would tell the penalty that its model was swapped
    for seed in (1, 2):
        train_run(RunConfig(task="threshold", variant="scalar", n=60, epochs=2, seed=seed),
                  out=str(tmp_path / f"run{seed}"))
    run = tmp_path / "run1"
    shutil.copy(tmp_path / "run2" / "model.json", run / "model.json")
    doc = json.loads(read(run / "penalty.json"))
    if edit == "null":
        doc["model_hash"] = None
    else:
        del doc["model_hash"]
    (run / "penalty.json").write_text(json.dumps(doc))
    err = _eval_error(tmp_path, capsys, run)
    assert "penalty.json" in err and "model_hash" in err


@pytest.mark.parametrize("variant", ["scalar", "learned-windowed"])
def test_eval_refuses_a_penalty_bound_to_another_model(tmp_path, capsys, variant):
    run = _run_of(tmp_path, variant)
    doc = json.loads(read(run / "penalty.json"))
    doc["model_hash"] = "0" * 64  # a well-formed hash, of no model in the run
    (run / "penalty.json").write_text(json.dumps(doc))
    err = _eval_error(tmp_path, capsys, run)
    assert "penalty.json" in err and "model_hash" in err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("variant, fname", [("baseline", "baseline.json"),
                                            ("learned-windowed", "gate.json")])
def test_eval_refuses_a_non_finite_checkpoint_parameter(tmp_path, capsys, variant, fname):
    # no model_hash covers these files, so the checkpoint loader is what refuses them
    run = _run_of(tmp_path, variant)
    doc = json.loads(read(run / fname))
    name = sorted(doc["params"])[0]
    doc["params"][name][0] = float("nan")
    (run / fname).write_text(json.dumps(doc))
    err = _eval_error(tmp_path, capsys, run)
    assert fname in err and repr(name) in err and "non-finite" in err


def test_train_refuses_a_dataset_row_without_x(tmp_path, capsys):
    assert main(["gen", "--task", "threshold", "--n", "5", "--out", str(tmp_path)]) == 0
    path = tmp_path / "threshold.jsonl"
    path.write_text(_drop_x(read(path)))
    capsys.readouterr()
    assert main(["train", "--task", "threshold", "--variant", "scalar", "--dataset", str(path),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}:2: ")


@pytest.mark.parametrize("task, row", [
    ("task2", {"x": "31", "y": "12"}),  # a string iterates as one target per digit
    ("task2", {"x": "31", "y": {"4": 1}}),  # an object iterates as its keys
    ("threshold", {"x": {}, "y": [3]}),
    ("threshold", {"x": [0.5], "y": {}}),
    ("threshold", {"x": [0.5], "y": {"3": 1}}),
], ids=["seq-y-string", "seq-y-object", "label-x-object", "label-y-empty-object",
        "label-y-object"])
@pytest.mark.parametrize("reader", ["load_dataset", "train"])
def test_a_row_whose_y_or_label_x_is_not_an_array_is_refused_on_its_line(tmp_path, capsys,
                                                                         reader, task, row):
    assert main(["gen", "--task", task, "--n", "5", "--out", str(tmp_path)]) == 0
    path = tmp_path / f"{task}.jsonl"
    lines = read(path).splitlines()
    lines[1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    if reader == "load_dataset":
        with pytest.raises(ValidationError, match="is not an array") as exc:
            load_dataset(str(path))
        assert str(exc.value).startswith(f"{path}:2: ")
        return
    variant = "scalar" if task == "threshold" else "per-position"
    capsys.readouterr()
    assert main(["train", "--task", task, "--variant", variant, "--epochs", "1",
                 "--dataset", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}:2: ")
    assert "is not an array" in err[0]


def test_train_refuses_label_rows_of_different_widths(tmp_path, capsys):
    assert main(["gen", "--task", "threshold", "--n", "5", "--out", str(tmp_path)]) == 0
    path = tmp_path / "threshold.jsonl"
    lines = read(path).splitlines()
    row = json.loads(lines[2])
    lines[2] = json.dumps({**row, "x": row["x"] * 2})
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--task", "threshold", "--variant", "scalar", "--dataset", str(path),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}:3: ") and "width" in err[0]


def test_train_refuses_a_mistyped_label_row(tmp_path, capsys):
    assert main(["gen", "--task", "threshold", "--n", "5", "--out", str(tmp_path)]) == 0
    path = tmp_path / "threshold.jsonl"
    lines = read(path).splitlines()
    row = json.loads(lines[2])
    lines[2] = json.dumps({**row, "y": [float(v) for v in row["y"]]})  # label 7 as 7.0
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--task", "threshold", "--variant", "scalar", "--epochs", "1",
                 "--dataset", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}:3: label ")
    assert err[0].endswith(" is not an integer")


@pytest.mark.parametrize("task, variant, held", [("task1", "baseline", "threshold"),
                                                 ("threshold", "learned-windowed", "task2"),
                                                 ("task2", "per-position", "threshold")])
def test_train_refuses_a_dataset_of_another_kind_than_its_task(tmp_path, capsys, monkeypatch,
                                                                task, variant, held):
    assert main(["gen", "--task", held, "--n", "20", "--out", str(tmp_path)]) == 0
    for fit in ("_fit_base_model", "train_multilabel_baseline"):
        monkeypatch.setattr(cli, fit, lambda *a, **kw: pytest.fail("fitted before the check"))
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--task", task, "--variant", variant, "--epochs", "1",
                 "--dataset", str(tmp_path / f"{held}.jsonl"), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: task {task!r} needs ")
    assert not out.exists()


@pytest.mark.parametrize("case", ["train-task1-on-task2", "train-task2-on-task1",
                                  "train-edited-after-blank-lines", "eval-edited-target"])
def test_a_dataset_that_breaks_its_task_rule_is_refused(tmp_path, capsys, monkeypatch, case):
    # the refusal names the file's 1-based line, blank lines counted
    line = 6 if case == "train-edited-after-blank-lines" else 2
    if case == "eval-edited-target":
        run = _run_of(tmp_path, "scalar")
        path = run / "dataset.jsonl"
        lines = read(path).splitlines()
        row = json.loads(lines[1])  # sample 0; no threshold rule gives label 0
        lines[1] = json.dumps({**row, "y": [0] + row["y"][1:]})
        path.write_text("\n".join(lines) + "\n")
        argv = ["eval", "--run", str(run)]
    else:
        task, held = {"train-task1-on-task2": ("task1", "task2"),
                      "train-task2-on-task1": ("task2", "task1"),
                      "train-edited-after-blank-lines": ("task1", "task1")}[case]
        assert main(["gen", "--task", held, "--n", "20", "--out", str(tmp_path)]) == 0
        path = tmp_path / f"{held}.jsonl"
        if case == "train-edited-after-blank-lines":
            head, *rows = read(path).splitlines()
            row = json.loads(rows[2])  # sample 2, on line 6 after two blank lines
            rows[2] = json.dumps({**row, "y": sorted(set(row["y"]) ^ {"0"})})  # toggle 0
            path.write_text("\n".join([head, "", "", *rows]) + "\n")
        monkeypatch.setattr(cli, "_fit_base_model",
                            lambda *a, **kw: pytest.fail("fitted before the check"))
        argv = ["train", "--task", task, "--variant", "per-position", "--epochs", "1",
                "--dataset", str(path)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}:{line}: ")
    assert not out.exists()


def test_train_refuses_a_sequence_input_outside_input_vocab(tmp_path, capsys):
    assert main(["gen", "--task", "task2", "--n", "20", "--out", str(tmp_path)]) == 0
    path = tmp_path / "task2.jsonl"
    head, _, rows = read(path).partition("\n")
    path.write_text(json.dumps({**json.loads(head), "input_vocab": 5}) + "\n" + rows)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--task", "task2", "--variant", "per-position", "--epochs", "1",
                 "--dataset", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    first = next(n for n, row in enumerate(rows.splitlines(), start=2)
                 if max(json.loads(row)["x"]) >= "5")
    assert len(err) == 1 and err[0].startswith(f"error: {path}:{first}: ") and "input_vocab" in err[0]
    assert not out.exists()


def test_train_refuses_a_label_dataset_that_declares_a_max_len(tmp_path, capsys):
    # a label set is calibrated as one output position, so a label file
    # declaring a sequence length would be read as several
    assert main(["gen", "--task", "threshold", "--n", "20", "--out", str(tmp_path)]) == 0
    path = tmp_path / "threshold.jsonl"
    head, _, rows = read(path).partition("\n")
    path.write_text(json.dumps({**json.loads(head), "max_len": 5}) + "\n" + rows)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--task", "threshold", "--variant", "scalar", "--epochs", "1",
                 "--dataset", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}:1: a label dataset declares no max_len"]
    assert not out.exists()


@pytest.mark.parametrize("task, variant", [("threshold", "scalar"), ("task1", "baseline"),
                                           ("task2", "per-position")])
def test_train_refuses_data_where_no_task_reads_it(tmp_path, capsys, task, variant):
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--task", task, "--variant", variant, "--data", "bogus.txt",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "--data" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("given", [["--n", "5000"], ["--data", "bogus.txt"],
                                   {"n": 5000}, {"data": "bogus.txt"}],
                         ids=["n-flag", "data-flag", "n-key", "data-key"])
def test_train_from_a_dataset_file_refuses_n_and_data(tmp_path, capsys, given):
    assert main(["gen", "--task", "threshold", "--n", "30", "--out", str(tmp_path)]) == 0
    argv = ["train", "--task", "threshold", "--variant", "scalar", "--epochs", "2",
            "--dataset", str(tmp_path / "threshold.jsonl")]
    if isinstance(given, dict):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps(given))
        given = ["--config", str(conf)]
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([*argv, *given, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --dataset holds the samples")
    assert not out.exists()


@pytest.mark.parametrize("task, variant", [("threshold", "scalar"),
                                           ("multilabel-file", "learned-windowed")])
def test_train_from_a_dataset_file_records_what_the_file_holds(tmp_path, task, variant):
    if task == "multilabel-file":
        src = tmp_path / "ml.txt"
        src.write_text("".join(f"{i % 3},{(i + 1) % 4} 0:{i / 30:.3f} 1:{1 - i / 30:.3f}\n"
                               for i in range(30)))
        assert main(["import", "--data", str(src), "--out", str(tmp_path)]) == 0
        path = tmp_path / "imported.jsonl"
    else:
        assert main(["gen", "--task", task, "--n", "30", "--out", str(tmp_path)]) == 0
        path = tmp_path / f"{task}.jsonl"
    out = tmp_path / "run"
    assert main(["train", "--task", task, "--variant", variant, "--epochs", "2",
                 "--dataset", str(path), "--out", str(out)]) == 0
    saved = json.loads(read(out / "config.json"))
    config = saved["config"]
    assert config["n"] == 30
    assert config["data"] == (str(path) if task == "multilabel-file" else "")
    assert config["dataset_hash"] == json_hash(asdict(load_dataset(str(path))))
    assert saved["config_hash"] == json_hash(config)
    assert json.loads(read(out / "train_report.json"))["config"] == config
    assert main(["eval", "--run", str(out), "--out", str(tmp_path / "e")]) == 0
    evaluated = json.loads(read(tmp_path / "e" / "eval_report.json"))
    assert evaluated["config_hash"] == saved["config_hash"]


def _sparse_file(tmp_path, n):
    """A sparse multi-label file of ``n`` samples, two features and four labels."""
    src = tmp_path / "ml.txt"
    src.write_text("".join(f"{i % 3},{(i + 1) % 4} 0:{i / n:.3f} 1:{1 - i / n:.3f}\n"
                           for i in range(n)))
    return src


@pytest.mark.parametrize("how", ["train-flag", "train-key", "reproduce-flag"])
def test_a_multilabel_file_run_refuses_n(tmp_path, capsys, how):
    src, conf = _sparse_file(tmp_path, 40), tmp_path / "c.json"
    conf.write_text(json.dumps({"n": 5000}))
    train = ["train", "--task", "multilabel-file", "--variant", "scalar", "--data", str(src)]
    argv = {"train-flag": [*train, "--n", "5000"],
            "train-key": [*train, "--config", str(conf)],
            "reproduce-flag": ["reproduce", "multilabel-file", "--data", str(src), "--n", "7"],
            }[how]
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([*argv, "--epochs", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --data holds the samples; drop n"]
    assert not out.exists()


def test_a_multilabel_file_run_records_the_files_sample_count(tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--task", "multilabel-file", "--variant", "scalar", "--epochs", "2",
                 "--data", str(_sparse_file(tmp_path, 40)), "--out", str(out)]) == 0
    saved = json.loads(read(out / "config.json"))
    assert saved["config"]["n"] == 40
    assert saved["config_hash"] == json_hash(saved["config"])
    report = json.loads(read(out / "train_report.json"))
    assert report["n_train"] + report["n_test"] == 40
    assert main(["eval", "--run", str(out), "--out", str(tmp_path / "e")]) == 0


def test_a_multilabel_file_run_hashes_the_files_content(tmp_path):
    src, hashes = _sparse_file(tmp_path, 40), []
    for i in range(3):
        if i == 2:  # the same path, other labels and features
            src.write_text("".join(f"{j % 2},3 0:{j / 7:.3f} 1:0.250\n" for j in range(40)))
        out = tmp_path / f"run{i}"
        assert main(["train", "--task", "multilabel-file", "--variant", "scalar", "--epochs",
                     "2", "--data", str(src), "--out", str(out)]) == 0
        saved = json.loads(read(out / "config.json"))
        assert saved["config"]["dataset_hash"] == json_hash(
            asdict(load_dataset(str(out / "dataset.jsonl"))))
        assert saved["config_hash"] == json_hash(saved["config"])
        hashes.append(saved["config_hash"])
    assert hashes[0] == hashes[1] != hashes[2]


@pytest.mark.parametrize("argv", [
    ["train", "--task", "threshold", "--variant", "baseline", "--n", "1"],
    ["reproduce", "task1", "--n", "1"],
    ["reproduce", "task2", "--n", "1"],
], ids=["train-baseline", "reproduce-task1", "reproduce-task2"])
def test_a_one_sample_dataset_is_refused_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([*argv, "--epochs", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: a train/test split needs at least 2 samples, the dataset holds 1"]
    assert not out.exists()


# --- reproduce ------------------------------------------------------------------------


COLUMNS = ["multi-label", "ssg-s", "ssg-recurrent", "ssg-windowed"]


@pytest.mark.parametrize("task, names, rising, falling", [
    ("task1", ["ssg-windowed mF1 > multi-label mF1", "ssg-windowed mF1 > ssg-s mF1",
               "ssg-recurrent mF1 > ssg-s mF1"], [True] * 3, [False] * 3),
    ("task2", ["ssg-windowed mED < ssg-s mED", "ssg-recurrent mED < ssg-s mED",
               "multi-label reported N/A"], [False, False, True], [True] * 3),
])
def test_reproduce_criteria_and_columns_are_pinned(task, names, rising, falling):
    variants = cli.TASKS[task][1]
    for order, passes in (([0.1, 0.2, 0.3, 0.4], rising), ([0.4, 0.3, 0.2, 0.1], falling)):
        scores = dict(zip(variants, order))  # scores rise or fall in column order
        assert cli._criteria(task, scores) == list(zip(names, passes))
        columns, cells = cli._table(task, scores)
        assert columns == COLUMNS
        assert cells == ["N/A"] * (len(COLUMNS) - len(variants)) + [scores[v] for v in variants]


def test_the_variant_and_task_tables_agree():
    assert set(cli.REPRODUCE_TAGS) <= set(cli.TASKS)
    for _, variants, metric, pairs in cli.TASKS.values():
        assert set(variants) <= set(VARIANTS) and metric in ("mF1", "mED")
        assert all(set(pair) <= set(variants) for pair in pairs)
    for kind, gate, _ in VARIANTS.values():
        assert (gate is not None) == (kind == "learned")
        if gate is not None:
            assert LambdaNet(gate, vocab=11, max_len=2).variant == gate  # accepted




def test_reproduce_task1_smoke(tmp_path, capsys):
    rep = tmp_path / "rep"
    doc, _ = reproduce("task1", str(rep), n=60, seed=5, epochs=2)
    cols = doc["columns"]
    assert set(cols) == {"multi-label", "ssg-s", "ssg-recurrent", "ssg-windowed"}
    assert (rep / "table.csv").exists()
    assert (rep / "reproduce_report.json").exists()
    printed = capsys.readouterr().out
    assert "multi-label" in printed and "ssg-windowed" in printed
    # every variant directory is a complete run; the learned ones keep their gate
    for variant in ("learned-recurrent", "learned-windowed"):
        run = rep / variant
        for fname in ("gate.json", "penalty.json", "train_report.json"):
            assert (run / fname).exists()
        report = json.loads(read(run / "train_report.json"))
        assert 0.0 <= report["gate_validation_accuracy"] <= 1.0
        assert report["reused_base"] is True
    for variant in cli.TASKS["task1"][1]:
        run = rep / variant
        saved = json.loads(read(run / "config.json"))
        evaluated = json.loads(read(run / "eval_report.json"))
        assert evaluated["config_hash"] == saved["config_hash"]
        again = eval_run(load_run(str(run)))
        assert again.aggregate == doc["reports"][variant]["aggregate"]


def test_a_reproduce_tree_stores_each_artifact_once(toy_tree):
    alike = {}
    for root, _, names in os.walk(toy_tree):
        for name in names:
            alike.setdefault(read(os.path.join(root, name)), []).append(name)
    # Both gates' penalty.json hold only the gate's file name and the shared
    # model's hash, and at this size both gates may decode alike; no model,
    # dataset or report of a fit is stored twice.
    assert {name for names in alike.values() if len(names) > 1 for name in names} <= {
        "penalty.json", "decode_report.jsonl"}
    assert sorted(os.listdir(toy_tree / "base")) == ["dataset.jsonl", "model.json"]
    for variant in cli.TASKS["task1"][1]:
        run = toy_tree / variant
        assert not {"dataset.jsonl", "model.json"} & set(os.listdir(run))
        refs = _refs(str(run))
        assert set(refs) == ({"dataset.jsonl"} if variant == "baseline" else
                             {"dataset.jsonl", "model.json"})
        for path in refs.values():
            assert os.path.commonpath([path, str(toy_tree)]) == str(toy_tree)
            assert os.path.isfile(path)
    assert (toy_tree / "baseline" / "baseline.json").is_file()  # the baseline's own model


def test_reproduce_task2_reports_baseline_not_applicable(tmp_path, capsys):
    doc, _ = reproduce("task2", str(tmp_path / "rep2"), n=40, seed=5, epochs=2)
    assert doc["not_applicable"] == ["multi-label"]
    table = read(tmp_path / "rep2" / "table.csv")
    assert "N/A" in table
    assert "multi-label" not in doc["columns"]


def test_reproduce_builds_gate_examples_once(tmp_path, monkeypatch):
    calls = []
    build = cli.build_lambda_training_set
    monkeypatch.setattr(cli, "build_lambda_training_set",
                        lambda *a, **kw: calls.append(1) or build(*a, **kw))
    reproduce("task2", str(tmp_path / "rep"), n=40, seed=5, epochs=2)
    assert len(calls) == 2  # train and holdout, shared by both learned variants


@pytest.mark.parametrize("flag, seed", [(["--seed", "0"], 0), ([], 7)])
def test_reproduce_cli_passes_seed_through(tmp_path, monkeypatch, flag, seed):
    calls = []
    monkeypatch.setattr(cli, "reproduce", lambda *a, **kw: calls.append(kw) or ({}, True))
    assert main(["reproduce", "task1", "--out", str(tmp_path / "rep"), *flag]) == 0
    assert [kw["seed"] for kw in calls] == [seed]


def test_reproduce_multilabel_file(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for _ in range(60):
        labels = sorted(rng.choice(4, size=int(rng.integers(1, 3)), replace=False))
        feats = " ".join(f"{i}:{rng.uniform():.3f}" for i in range(5))
        lines.append(",".join(map(str, labels)) + " " + feats)
    src = tmp_path / "ml.txt"
    src.write_text("\n".join(lines) + "\n")
    rep = tmp_path / "rep3"
    doc, ok = reproduce("multilabel-file", str(rep), seed=5, epochs=2, data=str(src))
    assert ok  # no pinned criteria for user data
    assert set(doc["columns"]) == {"multi-label", "ssg-s", "ssg-recurrent",
                                   "ssg-windowed"}
    assert doc["n"] == 60  # the file's sample count
    for variant in cli.TASKS["multilabel-file"][1]:  # the label base model sits in base/
        art = load_run(str(rep / variant))
        assert art.cfg.n == 60
        config = json.loads(read(rep / variant / "config.json"))["config"]
        assert config["dataset_hash"] == json_hash(asdict(art.dataset))
        assert eval_run(art).aggregate == doc["reports"][variant]["aggregate"]


def test_config_file_merging(tmp_path, capsys):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"task": "threshold", "variant": "scalar",
                                "n": 30, "epochs": 2}))
    rc = main(["train", "--config", str(conf), "--seed", "9",
               "--out", str(tmp_path / "r")])
    assert rc == 0
    saved = json.loads(read(tmp_path / "r" / "config.json"))
    assert saved["config"]["seed"] == 9  # flag overrides
    assert saved["config"]["n"] == 30  # config file value kept
    assert "config_hash" in saved
    conf.write_text(json.dumps({"task": "threshold", "variant": "scalar", "bogus": 1}))
    rc = main(["train", "--config", str(conf), "--out", str(tmp_path / "r2")])
    assert rc == 1
    assert "'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "--task", "task1", "--n", "5", "--config", "c.json"],
    ["eval", "--run", "run", "--seed", "9"],
    ["train", "--task", "threshold", "--variant", "scalar", "--gate-epochs", "3"],
])
def test_flags_a_verb_does_not_read_fail_at_parsing(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_run_directories_are_append_only(tmp_path, monkeypatch):
    cfg = RunConfig(task="threshold", variant="scalar", n=30, epochs=2, seed=1)
    out = tmp_path / "run"
    train_run(cfg, out=str(out))
    eval_out = tmp_path / "eval"
    eval_run(load_run(str(out)), out=str(eval_out))
    art = load_run(str(out))
    # an occupied --out is refused before any fit or decode
    calls = []
    for name in ("_fit_base_model", "_predict_sample"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(name))
    with pytest.raises(ValidationError, match="refusing to overwrite"):
        train_run(cfg, out=str(out))
    with pytest.raises(ValidationError, match="refusing to overwrite"):
        eval_run(art, out=str(eval_out))
    assert calls == []


def test_run_config_validation():
    with pytest.raises(ValidationError):
        RunConfig(task="threshold", variant="scalar", rho=1.5)
    with pytest.raises(ValidationError):
        RunConfig(task="threshold", variant="scalar", split=0.0)
    with pytest.raises(ValidationError):
        RunConfig(task="multilabel-file", variant="scalar")
    with pytest.raises(ValidationError, match="not applicable"):
        RunConfig(task="task2", variant="scalar")
    with pytest.raises(ValidationError, match="not applicable"):
        RunConfig(task="threshold", variant="per-position")
    for bad in ({"n": 0}, {"epochs": 0}, {"learning_rate": 0.0},
                {"learning_rate": float("inf")}, {"learning_rate": float("nan")}):
        with pytest.raises(ValidationError):
            RunConfig(task="threshold", variant="scalar", **bad)


def test_run_config_holds_the_nine_run_settings():
    assert [f.name for f in fields(RunConfig)] == [
        "task", "variant", "n", "seed", "rho", "split", "epochs", "learning_rate", "data"]
    with pytest.raises(ValidationError, match="'seed'"):
        RunConfig(task="threshold", variant="scalar", seed="7")
    with pytest.raises(ValidationError, match="'epochs'"):
        RunConfig(task="task2", variant="per-position", epochs=True, learning_rate=True)


@pytest.mark.parametrize("key", ["max_branches", "gate_hidden", "threshold"])
def test_train_config_naming_a_removed_key_is_refused(tmp_path, capsys, key):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"task": "threshold", "variant": "scalar", key: 1}))
    capsys.readouterr()
    assert main(["train", "--config", str(conf), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "unknown config key" in err and repr(key) in err


@pytest.mark.parametrize("key", ["epochs", "learning_rate", "rho"])
def test_train_config_with_a_boolean_number_is_refused(tmp_path, capsys, key):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"task": "threshold", "variant": "scalar", "n": 30, key: True}))
    capsys.readouterr()
    assert main(["train", "--config", str(conf), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and repr(key) in err[0]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--task", "threshold", "--n", "5", "--seed", "-1"],
    ["train", "--task", "threshold", "--variant", "scalar", "--n", "5", "--seed", "-1"],
    ["reproduce", "task1", "--n", "5", "--seed", "-1"],
], ids=["gen", "train", "reproduce"])
def test_a_negative_seed_ends_in_one_error_line(tmp_path, capsys, argv):
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: seed must be non-negative"]


@pytest.mark.parametrize("argv", [
    ["reproduce", "task1", "--seed", "-1"],
    ["reproduce", "task1", "--n", "0"],
    ["reproduce", "task1", "--epochs", "0"],
    ["gen", "--task", "task1", "--n", "5", "--seed", "-1"],
    ["gen", "--task", "task1", "--n", "0"],
], ids=["reproduce-seed", "reproduce-n", "reproduce-epochs", "gen-seed", "gen-n"])
def test_a_refused_input_leaves_no_output_directory(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()


def test_eval_refuses_edit_distance_on_a_label_run(tmp_path, capsys):
    run = _run_of(tmp_path, "scalar")
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--metric", "mED", "--out", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: mED")
