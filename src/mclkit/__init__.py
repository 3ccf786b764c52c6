"""mclkit: multilinear compressive learning with teacher-guided knowledge
transfer and semi-supervised self-labeling.

The package is organised as a small numpy library:

* :mod:`mclkit.tensor` — mode-k products, unfoldings, Kronecker identities,
  and truncated per-mode (HOSVD) factor extraction;
* :mod:`mclkit.layers` / :mod:`mclkit.losses` — a minimal differentiable
  layer stack with finite-difference-checkable gradients;
* :mod:`mclkit.models` — the multilinear student, the nonlinear teacher,
  and energy-preserving initialisation;
* :mod:`mclkit.optimize` — Adam, staged learning rates, max-norm projection,
  augmentation, and the deterministic training loop;
* :mod:`mclkit.distill` — teacher training, three-stage knowledge transfer,
  baselines, and the self-labeling loop;
* :mod:`mclkit.evaluate` / :mod:`mclkit.datasets` — metrics, experiment
  harnesses, the binary dataset format, and a synthetic generator;
* :mod:`mclkit.cli` — the ``mclkit`` command.
"""

import os as _os
import sys as _sys

# Inference runs its chunks on a pool of worker threads (see
# layers._forward_chunks), and a multithreaded BLAS beside that pool only
# spins, so BLAS is pinned to one thread.  BLAS reads these variables when
# numpy loads, hence this runs ahead of any numpy import; a value the user set
# is kept.  The pool runs only if all of them read "1".
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in _sys.modules:
    for _var in _BLAS_THREADS:
        _os.environ.setdefault(_var, "1")

from . import (  # noqa: E402
    checkpoint,
    datasets,
    distill,
    evaluate,
    layers,
    losses,
    models,
    optimize,
    tensor,
)
from .datasets import DatasetBundle, load_dataset, save_dataset, split_semisup, synth_dataset  # noqa: E402
from .distill import (  # noqa: E402
    PipelineResult,
    StageMask,
    self_label_select,
    stage1_transfer,
    stage2_transfer,
    stage3_transfer,
    train_mcl_baseline,
    train_mclwop,
    train_mclwp,
    train_mclwp_semisup,
    train_prior_semisup,
    train_prior_supervised,
)
from .evaluate import accuracy, compare_prior_effect, knn_compressive, run_ablation  # noqa: E402
from .models import MclModel, MeasurementConfig, PriorModel, build_mcl, build_prior, hosvd_init  # noqa: E402
from .optimize import TrainConfig, train  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "DatasetBundle",
    "MclModel",
    "MeasurementConfig",
    "PipelineResult",
    "PriorModel",
    "StageMask",
    "TrainConfig",
    "accuracy",
    "build_mcl",
    "build_prior",
    "checkpoint",
    "compare_prior_effect",
    "datasets",
    "distill",
    "evaluate",
    "hosvd_init",
    "knn_compressive",
    "layers",
    "load_dataset",
    "losses",
    "models",
    "optimize",
    "run_ablation",
    "save_dataset",
    "self_label_select",
    "split_semisup",
    "stage1_transfer",
    "stage2_transfer",
    "stage3_transfer",
    "synth_dataset",
    "tensor",
    "train",
    "train_mcl_baseline",
    "train_mclwop",
    "train_mclwp",
    "train_mclwp_semisup",
    "train_prior_semisup",
    "train_prior_supervised",
]
