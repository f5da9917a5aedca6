"""Multi-view graph Mamba network over a minimal autodiff substrate.

Subpackages: ``tensor`` (tape autodiff), ``fusion`` (modality fusion),
``scan`` (four-direction selective scans), ``graph`` (rule/KNN graph
convolution), ``model`` (aggregator ladder and head), ``data`` (feature files
and synthetic datasets), ``train`` (SGD with plateau schedule), ``bench``
(linear-vs-quadratic scaling), ``cli`` (command line).
"""

__version__ = "0.4.0"  # set before the submodules import it

from .data import SyntheticSpec, generate_synthetic, load_dataset, make_splits
from .model import (
    AGGREGATORS,
    ModelConfig,
    ModelState,
    config_for_dataset,
    count_parameters,
    forward_batch,
    init_state,
    load_checkpoint,
    save_checkpoint,
)
from .train import TrainConfig, evaluate, train_loop

__all__ = [
    "AGGREGATORS",
    "ModelConfig",
    "ModelState",
    "SyntheticSpec",
    "TrainConfig",
    "config_for_dataset",
    "count_parameters",
    "evaluate",
    "forward_batch",
    "generate_synthetic",
    "init_state",
    "load_checkpoint",
    "load_dataset",
    "make_splits",
    "save_checkpoint",
    "train_loop",
    "__version__",
]
