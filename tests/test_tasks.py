import numpy as np
import pytest

from setgen.core import ValidationError
from setgen.tasks import (
    TaskSpec,
    featurize_digits,
    generate,
    load_multilabel,
    split_train_test,
    targets,
    task1_label_view,
)


def digits(s: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in s)


def seqs(*strs: str) -> tuple:
    """Complete token sequences (end token 10 appended), sorted as targets returns them."""
    return tuple(sorted(digits(s) + (10,) for s in strs))


def brute_force_task2(x: str) -> set[str]:
    # Independent re-implementation on digit strings used to cross-check the rule.
    pairs = [(int(x[k]), int(x[k + 1])) for k in (0, 2, 4, 6, 8)]
    a = x[10:]
    return {a[s:e] for s, e in pairs if len(a[s:e]) > 0}


def test_threshold_examples():
    assert targets("threshold", (1.01,)) == tuple(range(2, 11))
    assert targets("threshold", (9.5,)) == (10,)
    assert targets("threshold", (8.7,)) == (9, 10)
    assert targets("threshold", (3.0,)) == tuple(range(4, 11))


def test_threshold_past_range_is_empty_and_flagged():
    with pytest.warns(UserWarning):
        assert targets("threshold", (10.5,)) == ()


def test_task1_examples():
    assert targets("task1", digits("33874")) == seqs("3", "8")
    assert targets("task1", digits("512345")) == seqs("5", "1", "2", "3", "4")
    assert targets("task1", digits("99999999999")) == seqs("9")


def test_task1_rejects_short_input():
    with pytest.raises(ValidationError):
        targets("task1", digits("92"))


def test_task1_rejects_zero_lead():
    with pytest.raises(ValidationError):
        targets("task1", digits("09"))


def test_task1_rejects_a_token_above_9():
    # read as the digit string "123", (12, 3) would give the one target (1,)
    for x in [(12, 3), (1, 10), (1, -1)]:
        with pytest.raises(ValidationError, match="digits 0-9"):
            targets("task1", x)


def test_task2_worked_example():
    assert targets("task2", digits("00490000349172105519")) == seqs("2", "10551")


def test_task2_all_degenerate_pairs_give_empty_set():
    # every s_i >= e_i, so nothing counts
    assert targets("task2", digits("10543298769876543210")) == ()


def test_task2_repeated_single_pair():
    assert targets("task2", digits("01010101019876543210")) == seqs("9")


def test_task2_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = "".join(str(d) for d in rng.integers(0, 10, size=20))
        assert targets("task2", digits(x)) == seqs(*brute_force_task2(x))


def test_task2_rejects_wrong_length():
    with pytest.raises(ValidationError):
        targets("task2", digits("123"))


def test_task2_rejects_19_tokens_that_print_as_20_digits():
    x = (12,) + digits("345678901234567890")
    assert len(x) == 19 and len("".join(map(str, x))) == 20
    with pytest.raises(ValidationError, match="digits 0-9"):
        targets("task2", x)


def test_generate_threshold_targets_in_range():
    ds = generate(TaskSpec(task="threshold", n=100, seed=1))
    assert ds.kind == "labels" and ds.universe == 11
    for s in ds.samples:
        assert set(s.y) <= set(range(1, 11))
        assert s.y == tuple(y for y in range(1, 11) if y > s.x[0])


def test_generate_is_deterministic(tmp_path):
    from setgen.core import save_dataset

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(generate(TaskSpec(task="task1", n=200, seed=7)), str(a))
    save_dataset(generate(TaskSpec(task="task1", n=200, seed=7)), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_task1_self_check():
    ds = generate(TaskSpec(task="task1", n=300, seed=5))
    assert ds.kind == "sequences" and ds.universe == 11 and ds.max_len == 2
    for s in ds.samples:
        m = s.x[0]
        assert 1 <= m <= 9 and len(s.x) >= m
        assert s.y == tuple((d, 10) for d in sorted(set(s.x[:m])))


def test_generate_task2_self_check():
    ds = generate(TaskSpec(task="task2", n=300, seed=6))
    for s in ds.samples:
        x = "".join(str(t) for t in s.x)
        assert s.y == seqs(*brute_force_task2(x))


def test_targets_are_stored_as_a_sample_holds_them():
    assert targets("threshold", (7.5,)) == (8, 9, 10)
    assert targets("task1", (3, 1, 3, 9)) == ((1, 10), (3, 10))
    x = tuple(int(ch) for ch in "01230000002345678901")  # pairs (0,1) and (2,3)
    assert targets("task2", x) == ((2, 10), (4, 10))
    with pytest.raises(ValidationError, match="one number"):
        targets("threshold", (1.0, 2.0))
    with pytest.raises(ValidationError, match="leading digit"):
        targets("task1", (0, 1))


def test_split_is_deterministic_disjoint_and_covering():
    ds = generate(TaskSpec(task="threshold", n=100, seed=2))
    tr1, te1 = split_train_test(ds, 0.7, seed=9)
    tr2, te2 = split_train_test(ds, 0.7, seed=9)
    assert tr1.samples == tr2.samples and te1.samples == te2.samples
    assert len(tr1) == 70 and len(te1) == 30
    all_xs = sorted(s.x for s in ds.samples)
    assert sorted(s.x for s in tr1.samples + te1.samples) == all_xs


def test_featurize_digits():
    vec = featurize_digits((3, 0), 4)
    assert len(vec) == 40
    assert vec[3] == 1.0 and vec[10] == 1.0
    assert sum(vec) == 2.0


def test_task1_label_view():
    ds = generate(TaskSpec(task="task1", n=20, seed=8))
    view = task1_label_view(ds)
    assert view.kind == "labels" and view.universe == 10
    for orig, lab in zip(ds.samples, view.samples):
        assert set(lab.y) == {seq[0] for seq in orig.y}


def test_load_multilabel_line_format(tmp_path):
    path = tmp_path / "ml.txt"
    path.write_text("1,3 0:0.5 2:1.0\n0 1:2.0\n")
    ds = load_multilabel(str(path), n_features=3)
    assert ds.samples[0].x == (0.5, 0.0, 1.0)
    assert ds.samples[0].y == (1, 3)
    assert ds.universe == 4


def test_load_multilabel_rejects_empty_label_field(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1,3 0:0.5\n 0:1.0\n")
    with pytest.raises(ValidationError, match=":2"):
        load_multilabel(str(path))


def test_load_multilabel_scene_shape(tmp_path):
    # synthetic file with the published SCENE dimensions
    rng = np.random.default_rng(0)
    lines = []
    for _ in range(2407):
        labels = sorted(rng.choice(6, size=rng.integers(1, 3), replace=False))
        feats = sorted(rng.choice(294, size=5, replace=False))
        head = ",".join(str(l) for l in labels)
        tail = " ".join(f"{i}:{rng.uniform():.3f}" for i in feats)
        lines.append(f"{head} {tail}")
    path = tmp_path / "scene.txt"
    path.write_text("\n".join(lines) + "\n")
    ds = load_multilabel(str(path), n_features=294, universe=6)
    assert len(ds) == 2407 and ds.input_dim == 294 and ds.universe == 6



@pytest.mark.parametrize("text, sizes, message", [
    ("1 0:0.5\n0 0:1 0:3\n", {}, "2: repeated feature index 0"),
    ("1 0:0.5\n\n0 3:1.0\n", {"n_features": 2}, "3: feature index 3 exceeds dimension 2"),
    ("1 0:0.5\n\n2,7 1:1.0\n", {"universe": 3}, "3: label 7 outside universe 3"),
    ("1,2 0:1.0 1:nan\n", {}, "1: non-finite feature '1:nan'"),
    ("1 0:0.5\n\n0 0:-inf\n", {}, "3: non-finite feature '0:-inf'"),
], ids=["repeated-index", "index-past-dimension", "label-outside-universe", "nan", "inf"])
def test_load_multilabel_refuses_a_sample_on_its_line(tmp_path, text, sizes, message):
    path = tmp_path / "ml.txt"
    path.write_text(text)
    with pytest.raises(ValidationError) as exc:
        load_multilabel(str(path), **sizes)
    assert str(exc.value) == f"{path}:{message}"
