"""Feature tuning of frozen vision-language embeddings for OOD detection.

Trains distribution-aware, image-conditional transforms of pre-extracted
text features and evaluates OOD scores with AUROC / FPR95 / H-MEAN metrics.
"""

from .model import (
    Checkpoint,
    FeatureBank,
    ModelState,
    TrainingSet,
    init_model,
    load_checkpoint,
    save_checkpoint,
    transform_bank,
)
from .objectives import Batch, LossReport, backward, finite_diff_grad, total_loss
from .scoring import (
    MetricReport,
    auroc,
    evaluate,
    fpr_at_tpr,
    hmean,
    score_krnft,
    score_mcm,
    score_neglabel,
)
from .trainer import TrainConfig, train

__all__ = [
    "Batch",
    "Checkpoint",
    "FeatureBank",
    "LossReport",
    "MetricReport",
    "ModelState",
    "TrainConfig",
    "TrainingSet",
    "auroc",
    "backward",
    "evaluate",
    "finite_diff_grad",
    "fpr_at_tpr",
    "hmean",
    "init_model",
    "load_checkpoint",
    "save_checkpoint",
    "score_krnft",
    "score_mcm",
    "score_neglabel",
    "total_loss",
    "train",
    "transform_bank",
]

__version__ = "0.1.0"
