"""Safe exploration of finite deterministic MDPs.

An agent must explore an MDP whose per-state safety feature is unknown a
priori; it may only ever visit states it can certify as safe *and* return
from.  The library models the feature with a Gaussian process, classifies
safe/ergodic/expander sets from confidence bands, and walks to the most
informative expander each iteration.  Exact set-theoretic oracles for what
is safely explorable at all are provided for evaluation, alongside a terrain
simulator where safety means never climbing too steep a slope.
"""

from .gp import (
    ConfidenceBands,
    GpError,
    GpModel,
    Kernel,
    MATERN52,
    SQUARED_EXPONENTIAL,
    SingularSystemError,
    StationaryCovariance,
    initial_bands,
    kernel_eval,
    update_bands,
)
from .mdp import (
    AugmentedMdp,
    GRID_DOWN,
    GRID_LEFT,
    GRID_RIGHT,
    GRID_STAY,
    GRID_UP,
    Mdp,
    augment,
    grid_mdp,
)
from .reach import r_eps, r_eps_fixpoint, r_reach, r_ret_fixpoint, r_ret_one, r_safe_eps
from .safeset import (
    ErgodicPreconditionError,
    LastRound,
    SafeSets,
    acquisition_target,
    classify_safe,
    compute_safe_sets,
    ergodic_safe,
    expanders,
)
from .planner import NoPathError, PathPlan, shortest_safe_path
from .explorer import (
    ConfigError,
    Environment,
    ExplorationTrace,
    ExplorerConfig,
    GpBandModel,
    IterationRecord,
    run_safemdp,
    validate_config,
)
from .terrain import (
    CraterHill,
    CraterHillParams,
    DifferenceCovariance,
    EsriAsciiError,
    GpSample,
    HeightGpBandModel,
    TerrainEnvironment,
    TerrainGrid,
    TerrainSafetySpec,
    build_terrain_environment,
    difference_band_model,
    difference_gp,
    dump_esri_ascii,
    height_gp,
    height_gp_to_difference_bands,
    load_esri_ascii,
    seed_pocket,
    synth_terrain,
)

__version__ = "0.1.0"
