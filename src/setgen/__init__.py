"""setgen: variable-size, order-free output sets from ordinary probabilistic models.

A base model (softmax classifier or encoder-decoder sequence model) is trained
on flattened (input, set-element) pairs; a calibrated repeat penalty then lets
a greedy argmax loop emit one new element per step until the whole set has
been produced.  The penalty is one max-margin value per output position (a
label set has one) or a learned binary classifier over the base model's logits.
"""

__version__ = "0.1.0"

from .core import (
    Dataset,
    FlatPair,
    SetSample,
    TokenSeq,
    ValidationError,
    TrainingError,
    flatten,
    load_dataset,
    save_dataset,
    seq_from_str,
    seq_to_str,
)
from .decoder import decode_set, decode_sequence_set, penalized_argmax
from .metrics import edit_distance, evaluate, f1_set, mean_edit_distance
from .models import (
    LabelModel,
    MultiLabelBaseline,
    SequenceModel,
    TrainConfig,
    gradient_check,
    train_label_model,
    train_multilabel_baseline,
    train_sequence_model,
)
from .penalty import (
    FeasibleInterval,
    MarginRecord,
    MarginRecords,
    PenaltyParams,
    margin_stats,
    solve_lambda,
    solve_lambda_per_position,
)
from .lambda_net import (
    GateExamples,
    LambdaNet,
    build_lambda_training_set,
    train_lambda_net,
)
