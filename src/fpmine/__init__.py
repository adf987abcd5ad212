"""fpmine: desk-scale text-to-image retrieval with false-positive mining.

The matching engine fuses three similarity branches per (image, text)
pair - global, local, and mined negative word evidence - and trains them
jointly with hinge, identity, and ranking objectives on balanced batches.
Everything runs on a small reverse-mode autodiff tape over numpy arrays.

Importing the package pins numpy's BLAS to one thread (see ``numerics.blas_threads``)
and sets glibc's malloc thresholds so that the memory a training step frees stays in the
process for the next step, not faulted in afresh (see the comment in ``numerics``).
"""

from .dataset import (SyntheticDataset, export_json, generate_synthetic_dataset,
                      identity_split, load_dataset, save_dataset, twin_pairs)
from .encoders import EncoderConfig, Sample
from .errors import (ConfigError, ContractError, DataError, FpmineError, InputError,
                     NumericalError, ShapeError)
from .evaluation import (RetrievalResult, ablation_suite, evaluate_retrieval,
                         mining_activity, negative_evidence_report, rank_gallery,
                         recall_at_k)
from .losses import LossReport, LossWeights, total_loss
from .model import FUSIONS, Model, ModelFlags, init_params
from .numerics import (GradTape, Tensor, backward, cosine, finite_difference_grad,
                       max_pool_cols, max_pool_rows)
from .sampling import BatchPlan, balanced_batches
from .similarity import MiningParams, mining_mask
from .training import (AdamState, Checkpoint, TrainConfig, adam_step, gradcheck,
                       load_checkpoint, model_from_checkpoint, save_checkpoint, train)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numerics
    "Tensor", "GradTape", "backward", "cosine", "finite_difference_grad",
    "max_pool_rows", "max_pool_cols",
    # encoders / dataset
    "EncoderConfig", "Sample", "SyntheticDataset", "generate_synthetic_dataset",
    "save_dataset", "load_dataset", "export_json", "identity_split", "twin_pairs",
    # similarity / losses
    "MiningParams", "mining_mask", "LossWeights", "LossReport", "total_loss",
    # sampling / model / training
    "BatchPlan", "balanced_batches", "Model", "ModelFlags", "FUSIONS", "init_params",
    "TrainConfig", "AdamState", "adam_step", "train", "Checkpoint", "save_checkpoint",
    "load_checkpoint", "model_from_checkpoint", "gradcheck",
    # evaluation
    "RetrievalResult", "rank_gallery", "recall_at_k", "evaluate_retrieval",
    "ablation_suite", "mining_activity", "negative_evidence_report",
    # errors
    "FpmineError", "ShapeError", "ContractError", "InputError", "ConfigError",
    "DataError", "NumericalError",
]
