"""Switching linear regression: exact solvers, geometry, and hardness tools."""

from .core import (
    ABSOLUTE,
    Dataset,
    Labeling,
    LossModel,
    ModelSet,
    PairwiseClassifier,
    SIGN_TOL,
    SQUARED,
    ZERO_TOL,
    assign_modes,
    canonicalize_labels,
    empirical_cost,
    majority_vote_label,
    pairwise_classifiers_from_models,
)
from .geometry import (
    DichotomySet,
    GeneralPositionReport,
    check_general_position,
    enumerate_linear_dichotomies,
    sweep_dichotomies_oracle,
)
from .solvers import (
    CapsExceededError,
    RefineResult,
    SOLVER_METHODS,
    SolveReport,
    SolverConfig,
    altmin_solve,
    brute_force_solve,
    enumeration_solve,
    fit_modes,
    noiseless_solve,
    refine_alternate,
    solve_instance,
    solve_mode_regression,
)
from .hardness import (
    CertificateError,
    DecisionInstance,
    PartitionInstance,
    ThresholdDecision,
    decide_threshold,
    extract_partition,
    partition_to_instance,
)
from .datasets import (
    DatasetBundle,
    GeneratorSpec,
    generate_instance,
    label_accuracy,
    load_dataset_csv,
    load_dataset_json,
    save_dataset_csv,
    save_dataset_json,
)
from .bench import BenchResult, bench_scaling

__version__ = "0.1.0"
