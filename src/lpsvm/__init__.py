"""Linear SVM training with an Lp-norm (0 < p <= 1) penalty on slack variables.

The solver minimizes a softplus-smoothed hinge objective by damped Newton
steps at p = 1 and momentum descent at p < 1; p < 1 shrinks the
support-vector set.  Independent oracles (finite differences, a dual
coordinate-descent reference solver, a KKT residual checker) verify it.
"""

from .core import (
    DEFAULT_SV_THRESHOLD,
    AugmentedView,
    LabeledDataset,
    SlackReport,
    SvmModel,
    augment,
    decision_values,
    margin_width,
    predict,
    slack,
)
from .data import FoldSplit, ToySpec, gen_toy, kfold, load_csv, save_csv, standardize
from .metrics import (
    ComparisonReport,
    FoldComparison,
    accuracy,
    angle_theta,
    comparison_to_dict,
    cross_validate,
    dist_d,
    run_comparison,
)
from .oracle import DualSolution, KktReport, dual_cd_train, fd_gradient, hinge_objective, kkt_check
from .solver import (
    DivergenceError,
    TrainConfig,
    TrainTrace,
    gradient,
    objective,
    smoothed_plus,
    train,
)

__version__ = "0.1.0"
