"""Temporal supervision tracking for class-incremental learning.

The library keeps, for every class, an exponentially decaying balance of
its positive and negative supervision (the tracker Q), and uses it to
reweight the negative side of cross-entropy so recently under-reinforced
classes stop being pushed down.  A calibration solver pins the alignment
parameter so the adjusted loss collapses to plain cross-entropy on
balanced, temporally uniform data.  A desk-scale simulator (synthetic
Gaussian classes, SGD softmax classifier, replay) demonstrates the
temporal-imbalance phenomenon and its correction end to end.
"""

__version__ = "0.1.0"  # above the imports: a submodule may read it mid-import

from .calibration import CalibrationResult, solve_calibration
from .errors import DomainError, SolverError, SpecError, TalcilError, TrainingError
from .kernel import (
    MemoryKernel,
    Minibatch,
    QState,
    check_domain,
    negative_weight,
    update_batched,
    update_tal,
)
from .loss import LossOutput, TalConfig, ce_forward, tal_forward, training_step
from .metrics import (
    AsymmetryResult,
    MetricsReport,
    asymmetry_index,
    confusion_and_prf,
    forgetting_curve,
    spearman,
)
from .sim import (
    Classifier,
    SyntheticDataset,
    ablate,
    make_gaussian_tasks,
    train_cells,
    train_incremental,
)
from .streams import (
    SupervisionTrace,
    TaskSchedule,
    TheoremVerdict,
    generate_stream,
    sample_dominance_pair,
    verify_theorem1,
)

__all__ = [
    "__version__",
    "MemoryKernel",
    "QState",
    "Minibatch",
    "check_domain",
    "negative_weight",
    "update_tal",
    "update_batched",
    "CalibrationResult",
    "solve_calibration",
    "TalConfig",
    "LossOutput",
    "tal_forward",
    "ce_forward",
    "training_step",
    "TaskSchedule",
    "SupervisionTrace",
    "TheoremVerdict",
    "generate_stream",
    "verify_theorem1",
    "sample_dominance_pair",
    "SyntheticDataset",
    "Classifier",
    "make_gaussian_tasks",
    "train_cells",
    "train_incremental",
    "ablate",
    "MetricsReport",
    "AsymmetryResult",
    "confusion_and_prf",
    "asymmetry_index",
    "forgetting_curve",
    "spearman",
    "TalcilError",
    "SpecError",
    "DomainError",
    "SolverError",
    "TrainingError",
]
