"""The package's two input rules, over every public function they guard.

A label matrix is checked by `datamodel.check_labels` (2-D, entries 0 or 1
of any dtype, not copied), so each label-taking function rejects the same
bad labels with the same message, naming its argument. A scalar argument is
checked by the number rule of `numerics.check_number_fields` (`_finite_real`
or `_is_integer`), so a bool, a string, NaN or inf is a ConfigError where a
number is due, never a numpy TypeError or a silent NaN."""

import numpy as np
import pytest

from mlclab.datamodel import ContrastiveBatch, MultiLabelDataset, check_labels
from mlclab.errors import ConfigError, DomainError
from mlclab.evaluation import (
    alignment,
    compute_report,
    hamming,
    macro_f1,
    mean_average_precision,
    micro_f1,
)
from mlclab.losses import LossConfig, logit_loss, loss_asymmetric, loss_bce, loss_zlpr
from mlclab.numerics import finite_difference_gradient
from mlclab.training import linear_eval, lr_schedule
from mlclab.verification import overlap_ratio, positive_sets

_GOOD = np.array([[1, 0], [0, 1]], dtype=np.int8)
_FEATURES = np.array([[1.0, 0.5], [0.25, 1.0]])

# function -> (a call taking the labels, the name the rule's message gives them)
_LABEL_TAKERS = {
    "ContrastiveBatch": (lambda y: ContrastiveBatch(z=np.ones((len(y), 2)), y=y), "label matrix"),
    "MultiLabelDataset": (lambda y: MultiLabelDataset(_FEATURES, y, (2, 0, 0)), "label matrix"),
    "positive_sets": (positive_sets, "label matrix"),
    "micro_f1 pred": (lambda y: micro_f1(y, _GOOD), "pred"),
    "macro_f1 truth": (lambda y: macro_f1(_GOOD, y), "truth"),
    "hamming truth": (lambda y: hamming(_GOOD, y), "truth"),
    "compute_report labels": (
        lambda y: compute_report(_GOOD, _GOOD, features=_FEATURES, labels=y), "labels"),
    "mean_average_precision": (lambda y: mean_average_precision(_FEATURES, y), "truth"),
    "alignment": (lambda y: alignment(_FEATURES, y), "labels"),
    "loss_bce": (lambda y: loss_bce(_FEATURES, y), "labels"),
    "loss_asymmetric": (lambda y: loss_asymmetric(_FEATURES, y, LossConfig()), "labels"),
    "loss_zlpr": (lambda y: loss_zlpr(_FEATURES, y), "labels"),
    "logit_loss": (lambda y: logit_loss("bce", _FEATURES, y, LossConfig()), "labels"),
}

_BAD_LABELS = {
    "3s": ([[1, 3], [0, 1]], "entries must be 0 or 1"),
    "0.5": ([[1.0, 0.5], [0.0, 1.0]], "entries must be 0 or 1"),
    "1-D": ([1, 0], "must be 2-D, got ndim=1"),
}


@pytest.mark.parametrize("bad", _BAD_LABELS)
@pytest.mark.parametrize("taker", _LABEL_TAKERS)
def test_every_label_taker_applies_the_label_rule(taker, bad):
    call, name = _LABEL_TAKERS[taker]
    labels, message = _BAD_LABELS[bad]
    with pytest.raises(DomainError, match=f"^{name} {message}$"):
        call(np.array(labels))


def test_int8_labels_are_shared_not_copied():
    y = _GOOD.copy()
    assert check_labels(y) is y
    assert np.shares_memory(MultiLabelDataset(_FEATURES, y, (2, 0, 0)).labels, y)
    assert np.shares_memory(ContrastiveBatch(z=_FEATURES, y=y).y, y)
    # other dtypes are still stored as int8
    batch = ContrastiveBatch(z=_FEATURES, y=y.astype(bool))
    assert batch.y.dtype == np.int8 and batch.y.tobytes() == y.tobytes()


# argument -> (a call taking its value, the start of the ConfigError message,
# the bad values: a bool, a string, NaN or inf, each once accepted or met with
# a TypeError, an OracleError or a NaN result). The other arguments under the
# number rule take such cases in their own functions' tests.
_SCALAR_ARGS = {
    "finite_difference_gradient h": (
        lambda v: finite_difference_gradient(lambda x: float(x.sum()), [[1.0]], h=v),
        "step size must be a finite positive number", (True, "1e-5", np.nan, np.inf)),
    "lr_schedule step": (lambda v: lr_schedule(v, 10, 0.1, 0.05), "need integers 0 <= step",
                         (True, 2.5, "0")),
    "lr_schedule total_steps": (lambda v: lr_schedule(0, v, 0.1, 0.05),
                                "need integers 0 <= step", (True, 10.5, "10")),
    "lr_schedule base_lr": (lambda v: lr_schedule(5, 10, v, 0.05), "warmup_frac must be in",
                            (True, "0.1", np.nan, np.inf)),
    "linear_eval tol": (lambda v: linear_eval(_FEATURES, _GOOD, _FEATURES, _GOOD, tol=v),
                        "need max_iters >= 1 and 0 < tol < 1", ("1e-8",)),
    "overlap_ratio alpha": (lambda v: overlap_ratio(_GOOD[0], _GOOD[0], v),
                            "alpha must be a finite nonnegative number",
                            (True, "1.0", np.nan, np.inf)),
}


@pytest.mark.parametrize("arg, value", [(arg, v) for arg, (_, _, values) in _SCALAR_ARGS.items()
                                        for v in values])
def test_every_scalar_argument_applies_the_number_rule(arg, value):
    call, message, _ = _SCALAR_ARGS[arg]
    with pytest.raises(ConfigError, match=f"^{message}"):
        call(value)
