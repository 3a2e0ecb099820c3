"""mlclab: a desk-scale laboratory for multi-label contrastive losses.

Exact loss values and analytic gradients for a zoo of contrastive and logit
losses, a finite-difference oracle that keeps them honest, synthetic
long-tailed data, a deterministic two-stage training harness, and the usual
multi-label metrics.
"""

from .datamodel import (
    ContrastiveBatch,
    MultiLabelDataset,
    generate_longtail,
    jaccard,
    overlap_ratio,
    positive_sets,
    read_dataset,
    write_dataset,
)
from .errors import (
    ConfigError,
    DomainError,
    NormRangeError,
    OracleError,
    ParseError,
    TrainingDivergence,
    ZeroNormError,
)
from .evaluation import (
    MetricsReport,
    alignment,
    hamming,
    macro_f1,
    mean_average_precision,
    micro_f1,
    uniformity,
)
from .losses import (
    CONTRASTIVE_LOSS_IDS,
    LOGIT_LOSS_IDS,
    LOSS_IDS,
    GradientBundle,
    LossConfig,
    PairStructure,
    contrastive_loss,
    logit_loss,
    loss_asymmetric,
    loss_bce,
    loss_reg_matrix_value,
    loss_zlpr,
    prr,
    reg_term,
)
from .numerics import (
    finite_difference_gradient,
    tempered_cosine_matrix,
)
from .training import (
    Encoder,
    ProjectionHead,
    TrainConfig,
    TrainedModel,
    clip_gradient,
    linear_eval,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    train_model,
)
from .verification import (
    GradCheckReport,
    check_gradients,
    gate_report,
    minimum_residual,
)

__version__ = "0.1.0"
