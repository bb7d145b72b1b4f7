"""advstab: a desk-scale laboratory for the algorithmic stability and
robust generalization of adversarial training.

Training algorithms (vanilla, free, fast, free-TRADES) on small smooth
models, coupled runs on neighboring datasets with shared randomness,
path-wise verification of the divergence growth recursions, estimation of
the local Lipschitz/smoothness constants, and the closed-form stability
generalization bounds compared against measured gaps.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    ConstantEstimates,
    ExpansivityMatrix,
    GrowthRecursion,
    RegionSampler,
    bound_fast,
    bound_free,
    bound_vanilla,
    estimate_constants,
    estimate_lipschitz,
    estimate_psi,
    estimate_smoothness,
    expansivity_power,
    lambda_fast,
    lambda_free,
    lambda_vanilla,
    recursion_bound,
)
from .errors import ConfigError, DegenerateGradientError, DimensionError, TraceError
from .experiments import (
    ExperimentConfig,
    GapReport,
    run_free_trades_comparison,
    run_gap_experiment,
    run_transfer_experiment,
    run_vs_n_experiment,
)
from .models import (
    Dataset,
    LabeledSample,
    ScalarLogistic,
    SmoothModel,
    SoftmaxLinear,
    TwoLayerTanhMLP,
    finite_diff_report,
    make_model,
)
from .reportio import emit_report, load_report, report_to_dict
from .rng import sample_uniform_l2_ball, sample_uniform_linf_ball, stream
from .stability import (
    GrowthReport,
    NeighborPair,
    StabilityTrace,
    coupled_run,
    estimate_uniform_stability,
    make_neighbor,
    verify_growth,
    verify_growth_fast,
    verify_growth_free,
    verify_growth_vanilla,
    verify_stepwise_expectation,
)
from .synth import SyntheticSpec, make_synthetic
from .threat import (
    AttackConfig,
    PerturbationSet,
    empirical_robust_risk,
    project_extreme,
    project_onto_set,
    projgrad_identity_check,
)
from .trainers import (
    StepSchedule,
    TrainConfig,
    TrainTrace,
    lockstep,
    step_size,
    train,
)

__version__ = "0.1.0"
