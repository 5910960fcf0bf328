"""Link-level Monte Carlo simulator for a BS serving ground users through a
UAV swarm of reflecting surfaces: probabilistic air-to-ground channels,
closed-form joint beamforming, pilot-based cascaded-channel estimation, and
3D swarm deployment optimization."""

from .beamforming import (
    BeamformingSolution,
    BfOptions,
    alternating_optimize,
    mrt,
    quantize_phases,
)
from .channel import (
    ENV_PRESETS,
    ChannelRealization,
    EnvParams,
    LinkChannel,
    LinkState,
    effective_channel,
    los_probability,
    path_loss_db,
    realize_channels,
)
from .deployment import GainMap, Grid2D, Scenario, evaluate_position, grid_search
from .estimation import (
    EstimationResult,
    SubsurfaceGrouping,
    coefficient_count,
    group_subsurfaces,
    pilot_patterns,
    rate_loss,
    run_estimation,
)
from .experiments import (
    ResultTable,
    run_deploy_map,
    run_estimation_sweep,
    run_rate_vs_radius,
    run_rate_vs_uavs,
)
from .geometry import DiskRegion, Point3, distance, elevation_angle_deg, sample_cluster, sample_uniform_disk

__version__ = "0.1.0"
