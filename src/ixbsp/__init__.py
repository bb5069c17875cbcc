"""Incremental belief-space planning with multiple importance sampling.

Four planners over one Gaussian belief engine:

* ``plan_xbsp``: full-expectation lookahead (sampled futures per action).
* ``plan_mlbsp``: maximum-likelihood lookahead (model means, deterministic).
* ``plan_ixbsp`` / ``plan_iml``: incremental variants that re-use the
  previous session's tree through importance reweighting and, optionally,
  verbatim wildfire adoption.

The four differ only in how a lookahead level is filled: fresh futures,
re-used archived futures, or adopted archived subtrees.  Every tree comes
from ``build_tree``, and every fresh future becomes a node through
``planner.add_nominal_children``, so with nothing to re-use an incremental
planner builds its fresh twin's tree bit for bit.  A re-used archived belief
is brought up to the new planning root by one ``update_with_measurements``
call, warm-started from the archived mean.

Supporting toolkits: belief distances (``distances``), objective-error
bounds (``bounds``), an active-SLAM simulation harness (``simulation``), and
a CLI (``ixbsp run|compare|bounds``).
"""

from .beliefs import (
    GaussianBelief,
    MeasurementEntry,
    MeasurementSet,
    PropagatedBelief,
    VariableIndex,
    make_prior_belief,
    planning_root,
    propagate,
    update_with_measurements,
)
from .bounds import (
    BoundReport,
    HolderSpec,
    LinearGaussianScenario,
    bound_sweep,
    empirical_bound_check,
    fit_lambda,
    objective_bound_analytic,
    objective_bound_sampled,
    reward_bound,
    run_bound_trials,
    verify_lambda,
)
from .config import (
    PLANNER_NAMES,
    RewardConfig,
    ScenarioConfig,
    WorldConfig,
    load_config,
)
from .distances import (
    ChiSquaredCheck,
    DeltaQuadratic,
    ZetaDistribution,
    check_chi_squared_conditions,
    d_da,
    d_sqrt_j,
    delta_quadratic,
    gaussian_quadratic_moments,
    incremental_delta,
    kl_gaussian,
    kl_gaussian_moments,
    sqrt_j_moments,
    zeta_distribution,
)
from .errors import (
    ConfigError,
    DaMismatch,
    EmptyCandidates,
    IncompatibleTrees,
    InvalidBelief,
    InvalidInput,
    IxbspError,
    NumericalError,
    UnsupportedModel,
)
from .incremental import (
    PlanningArchive,
    balance_weight,
    closest_belief,
    inc_update_belief_tree,
    is_rep_sample,
    mis_objective,
    plan_iml,
    plan_ixbsp,
    select_closest_branch,
)
from .models import (
    ActionId,
    MeasModel,
    MotionModel,
    VariableId,
    landmark_var,
    pose_var,
    wrap_angle,
)
from .planner import (
    TAG_NOMINAL,
    TAG_REUSED,
    TAG_WILDFIRE,
    BeliefTree,
    BeliefTreeNode,
    PlanningResult,
    best_action,
    build_tree,
    objective,
    plan_mlbsp,
    plan_xbsp,
)
from .sampling import (
    MeasurementSample,
    measurement_likelihood_density,
    most_likely_measurement,
    sample_future_measurements,
    sample_state_futures,
)
from .serialize import (
    TREE_FORMAT,
    belief_from_json_dict,
    belief_to_json_dict,
    tree_from_json_dict,
    tree_to_json_dict,
)
from .simulation import (
    RolloutMetrics,
    SessionRecord,
    WorldModel,
    estimation_error,
    generate_world,
    run_rollout,
    simulate_step,
    win_fraction,
    world_from_config,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
