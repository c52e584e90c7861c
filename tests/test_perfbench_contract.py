"""What the benchmark in ``perfbench/`` relies on in the library.

The benchmark wraps the functions named in ``tracing.TRACED``, checks the
scalar penalty with ``checks.check_scalar_solution``, and drives the library
through the two pipelines of ``worker.py``.  These tests load those modules
from ``perfbench/`` and only read them, so that a library change that breaks
the benchmark fails here rather than in a benchmark run.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import setgen
import setgen.tasks  # noqa: F401  (the package does not import it itself)
from setgen.core import flatten
from setgen.models import TrainConfig, train_label_model
from setgen.penalty import HINGE_WEIGHT, margin_stats, solve_lambda
from setgen.tasks import TaskSpec, generate
from tests.conftest import OracleLabelPosterior

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where a dataclass decorator looks its module up
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
checks = load("checks")


def load_worker():
    """``worker.py``, which imports ``checks`` from its own directory and puts
    ``src/`` on ``sys.path``; both are undone once it is loaded."""
    path = list(sys.path)
    sys.modules["checks"] = checks
    try:
        return load("worker")
    finally:
        sys.path[:] = path
        del sys.modules["checks"]


worker = load_worker()


def resolve(module_name, path):
    """(owner, attribute name), found as ``Tracer.install`` finds them."""
    owner = getattr(setgen, module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


@pytest.mark.parametrize("module_name,path", tracing.TRACED,
                         ids=[f"{m}.{p}" for m, p in tracing.TRACED])
def test_every_traced_function_is_defined_on_its_owner(module_name, path):
    owner, attr = resolve(module_name, path)
    # install reads vars(owner)[attr]: a method inherited from a base class is not there
    assert attr in vars(owner), f"{module_name}.{path} is not defined on {owner!r}"
    assert callable(vars(owner)[attr])


def test_the_tracer_wraps_and_restores_every_traced_function():
    before = {key: vars(owner)[attr] for key in tracing.TRACED
              for owner, attr in [resolve(*key)]}
    tracer = tracing.Tracer(setgen)
    tracer.install()
    try:
        for key, original in before.items():
            owner, attr = resolve(*key)
            assert vars(owner)[attr].__wrapped__ is original
    finally:
        tracer.uninstall()
    for key, original in before.items():
        owner, attr = resolve(*key)
        assert vars(owner)[attr] is original


def test_the_scalar_check_passes_margin_stats_of_a_trained_model():
    train = generate(TaskSpec(task="threshold", n=120, seed=3))
    model = train_label_model(flatten(train), TrainConfig(epochs=3, seed=3),
                              n_labels=train.universe)
    records = margin_stats(model, train)
    sol = solve_lambda(records)
    assert len(records) == sum(len(s.y) for s in train.samples)
    assert not sol.feasible
    assert checks.check_scalar_solution(records, sol, HINGE_WEIGHT) == []


def test_the_scalar_check_passes_margin_stats_of_an_oracle():
    train = generate(TaskSpec(task="threshold", n=120, seed=3))
    oracle = OracleLabelPosterior({s.x: s.y_set for s in train.samples}, train.universe)
    records = margin_stats(oracle, train)
    sol = solve_lambda(records)
    assert sol.feasible
    assert checks.check_scalar_solution(records, sol, HINGE_WEIGHT) == []


@pytest.mark.parametrize("task", ["threshold", "task2"])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_generated_targets_pass_the_benchmarks_own_copy_of_the_rule(task, seed):
    samples = generate(TaskSpec(task, n=300, seed=seed)).samples
    assert checks.check_targets(task, samples) == []


@pytest.mark.parametrize("name, pipeline", [("threshold-labels", "threshold_pipeline"),
                                            ("task2-seqsets", "task2_pipeline")])
def test_the_benchmark_pipelines_run_at_toy_size(name, pipeline):
    wl = replace(worker.WORKLOADS[name], n_train=60, n_test=10, epochs=2, gate_epochs=2)
    train = generate(TaskSpec(task=wl.task, n=wl.n_train, seed=worker.TRAIN_SEED))
    test = generate(TaskSpec(task=wl.task, n=wl.n_test, seed=worker.HELD_OUT_SEED))
    ops, latencies, failures = [], [], []
    decode_one, variants, fitted = getattr(worker, pipeline)(
        setgen, wl, train, worker.Stages(None), ops)
    first_round = worker.decode_round(decode_one, variants, test.samples, latencies, failures)
    assert failures == []
    assert len(latencies) == len(variants) * wl.n_test
    if wl.task == "threshold":
        verdict = worker.run_checks(setgen, wl, train, test, fitted, first_round)
        assert verdict["problems"] == []
