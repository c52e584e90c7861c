import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setgen.core import (
    Dataset,
    SetSample,
    ValidationError,
    flatten,
    load_dataset,
    save_dataset,
    seq_from_str,
    seq_to_str,
)


def label_dataset(target_sets, universe):
    samples = tuple(
        SetSample(x=(float(i),), y=tuple(sorted(ys))) for i, ys in enumerate(target_sets)
    )
    return Dataset(kind="labels", samples=samples, universe=universe, input_dim=1)


def test_flatten_splits_every_element():
    ds = label_dataset([{6, 7, 8, 9, 10}], universe=11)
    pairs = flatten(ds)
    assert [(p.x, p.y_elem) for p in pairs] == [
        ((0.0,), 6), ((0.0,), 7), ((0.0,), 8), ((0.0,), 9), ((0.0,), 10)
    ]


def test_flatten_singleton():
    pairs = flatten(label_dataset([{10}], universe=11))
    assert len(pairs) == 1 and pairs[0].y_elem == 10


def test_flatten_total_count_matches_set_sizes():
    ds = label_dataset([set(range(2, 11)), {6, 7, 8, 9, 10}, {10}], universe=11)
    assert len(flatten(ds)) == 9 + 5 + 1


def test_flatten_rejects_empty_label_target():
    samples = (SetSample(x=(0.0,), y=(1,)), SetSample(x=(1.0,), y=()))
    ds = Dataset(kind="labels", samples=samples, universe=3, input_dim=1)
    with pytest.raises(ValidationError, match="sample 1"):
        flatten(ds)


def test_flatten_rejects_empty_dataset():
    ds = Dataset(kind="labels", samples=(), universe=3, input_dim=1)
    with pytest.raises(ValidationError):
        flatten(ds)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=10), min_size=1, max_size=12))
def test_flatten_round_trip_recovers_targets(target_sets):
    ds = label_dataset(target_sets, universe=10)
    pairs = flatten(ds)
    assert len(pairs) == sum(len(s) for s in target_sets)
    groups: dict[int, set] = {}
    for p in pairs:
        groups.setdefault(p.group_id, set()).add(p.y_elem)
    assert groups == dict(enumerate(target_sets))
    # determinism: equal datasets flatten identically
    assert flatten(label_dataset(target_sets, universe=10)) == pairs


def test_set_sample_sorts_and_dedups():
    s = SetSample(x=(0.0,), y=(3, 1, 3, 2))
    assert s.y == (1, 2, 3)


def test_set_sample_rejects_mixed_kinds():
    with pytest.raises(ValidationError):
        SetSample(x=(0.0,), y=(1, (2, 3)))


def test_dataset_rejects_label_outside_universe():
    with pytest.raises(ValidationError):
        Dataset(kind="labels", samples=(SetSample(x=(0.0,), y=(5,)),),
                universe=3, input_dim=1)


def test_sequence_dataset_requires_terminated_targets():
    with pytest.raises(ValidationError, match="end token"):
        Dataset(kind="sequences", samples=(SetSample(x=(1,), y=((1, 2),)),),
                universe=11, max_len=5, input_vocab=10)


def test_sequence_dataset_refuses_input_outside_input_vocab():
    with pytest.raises(ValidationError, match="sample 1: input token outside input_vocab 5"):
        Dataset(kind="sequences", universe=11, max_len=5, input_vocab=5,
                samples=(SetSample(x=(4, 0), y=()), SetSample(x=(1, 5), y=())))


def test_seq_helpers_round_trip():
    seq = seq_from_str("105", 11)
    assert seq == (1, 0, 5, 10)
    assert seq_to_str(seq[:-1]) == "105"


def test_seq_from_str_rejects_out_of_vocab():
    with pytest.raises(ValidationError):
        seq_from_str("9", 9)  # digit 9 needs vocab >= 11 (9 + end token)


def test_dataset_file_round_trip_labels(tmp_path):
    ds = label_dataset([{1, 2}, {0}], universe=3)
    path = tmp_path / "d.jsonl"
    save_dataset(ds, str(path))
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"kind": "labels", "universe": 3, "max_len": 0}
    back = load_dataset(str(path))
    assert back.kind == "labels" and back.universe == 3
    assert [s.y for s in back.samples] == [(1, 2), (0,)]


def test_dataset_file_round_trip_sequences(tmp_path):
    samples = (SetSample(x=(3, 1), y=(seq_from_str("2", 11), seq_from_str("10", 11))),)
    ds = Dataset(kind="sequences", samples=samples, universe=11, max_len=5, input_vocab=10)
    path = tmp_path / "d.jsonl"
    save_dataset(ds, str(path))
    back = load_dataset(str(path))
    assert back.samples[0].x == (3, 1)
    assert back.samples[0].y == ((1, 0, 10), (2, 10))
    # byte-identical on re-save
    path2 = tmp_path / "d2.jsonl"
    save_dataset(back, str(path2))
    assert path.read_text() == path2.read_text()


def test_dataset_file_round_trip_keeps_input_vocab(tmp_path):
    samples = (SetSample(x=(3, 1), y=(seq_from_str("2", 11),)),)
    ds = Dataset(kind="sequences", samples=samples, universe=11, max_len=5, input_vocab=4)
    path = tmp_path / "d.jsonl"
    save_dataset(ds, str(path))
    assert json.loads(path.read_text().splitlines()[0])["input_vocab"] == 4
    assert load_dataset(str(path)).input_vocab == 4
    # a header without the key loads with the digit vocabulary
    path.write_text('{"kind": "sequences", "max_len": 5, "universe": 11}\n'
                    '{"x": "31", "y": ["2"]}\n')
    assert load_dataset(str(path)).input_vocab == 10


LABEL_HEADER = '{"kind": "labels", "max_len": 0, "universe": 3}\n'
SEQUENCE_HEADER = '{"input_vocab": 10, "kind": "sequences", "max_len": 5, "universe": 11}\n'


@pytest.mark.parametrize("text, message", [
    # blank lines count: the row without "x" is the file's line 5
    (LABEL_HEADER + '\n\n{"x": [1.0], "y": [1]}\n{"y": [2]}\n',
     "5: malformed sample (KeyError: 'x')"),
    (LABEL_HEADER + '\n{"x": [1.0], "y": [1]}\n\n{"x": [2.0], "y": [7]}\n',
     "5: label 7 outside universe 3"),
    ('{"kind": "labels", "max_len": 5, "universe": 3}\n{"x": [1.0], "y": [1]}\n',
     "1: a label dataset declares no max_len"),
    # json reads NaN and Infinity, which no feature may hold
    (LABEL_HEADER + '{"x": [1.0], "y": [1]}\n\n{"x": [NaN], "y": [2]}\n',
     "4: non-finite input value"),
    (LABEL_HEADER + '{"x": [-Infinity], "y": [1]}\n', "2: non-finite input value"),
    # no value of the wrong JSON type is coerced
    (LABEL_HEADER + '{"x": [1.0], "y": [1.7]}\n', "2: label 1.7 is not an integer"),
    (LABEL_HEADER + '{"x": [1.0], "y": [false]}\n', "2: label False is not an integer"),
    (LABEL_HEADER + '{"x": [1.0], "y": ["2"]}\n', "2: label '2' is not an integer"),
    (LABEL_HEADER + '{"x": [true, 2.5], "y": [1]}\n', "2: input value True is not a number"),
    (LABEL_HEADER + '{"x": [1.0, "2.5"], "y": [1]}\n', "2: input value '2.5' is not a number"),
    ('{"kind": "labels", "max_len": 0, "universe": 11.9}\n{"x": [1.0], "y": [1]}\n',
     "1: universe 11.9 is not an integer"),
    ('{"input_vocab": 10, "kind": "sequences", "max_len": true, "universe": 11}\n'
     '{"x": "3", "y": [""]}\n', "1: max_len True is not an integer"),
    ('{"input_vocab": "10", "kind": "sequences", "max_len": 5, "universe": 11}\n'
     '{"x": "3", "y": ["2"]}\n', "1: input_vocab '10' is not an integer"),
    (SEQUENCE_HEADER + '{"x": "31", "y": ["2"]}\n{"x": [3, 1], "y": ["2"]}\n',
     "3: [3, 1] is not a string of the digits 0-9"),
    (SEQUENCE_HEADER + '{"x": "31", "y": [[3]]}\n', "2: [3] is not a string of the digits 0-9"),
    # int() reads the digits of other scripts: Arabic-Indic three and one
    (SEQUENCE_HEADER + '{"x": "\u0663\u0661", "y": ["2"]}\n',
     "2: '\u0663\u0661' is not a string of the digits 0-9"),
], ids=["blank-lines", "label-outside-universe", "header", "nan", "infinity",
        "label-float", "label-bool", "label-string", "feature-bool", "feature-string",
        "universe-float", "max-len-bool", "input-vocab-string", "x-list", "y-list",
        "x-arabic-indic"])
def test_load_dataset_names_the_files_own_line(tmp_path, text, message):
    path = tmp_path / "d.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_dataset(str(path))
    assert str(exc.value) == f"{path}:{message}"
