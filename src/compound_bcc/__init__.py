"""Numerical laboratory for secrecy rates on compound broadcast channels.

Two transmission models are implemented end to end:

* a constant compound model, where each user's channel is an unknown
  member of a finite set of matrices and confidential streams ride on
  beams in the null space of every state of the other user;
* a block-fading ergodic model with finite state alphabets, per-block
  zero-forcing, and variable-rate secrecy accounting.

Both come with exact rational degrees-of-freedom regions and slope-based
numerical verification.
"""

from .channel import (
    ChannelGenSpec,
    CompoundChannelSet,
    RankConditionReport,
    generate_compound,
    load_channel,
    save_channel,
    swap_users,
    verify_rank_condition,
)
from .ergodic import (
    BlockRateRecord,
    ErgodicRunStats,
    FadingProcess,
    PowerPolicy,
    ZfBlockGains,
    block_secrecy_rates,
    ergodic_sdof_region,
    ergodic_slope_estimates,
    leakage,
    policy_slope_targets,
    sample_block,
    simulate_blocks,
    symmetric_point_margin,
    tx_rate,
    zero_forcing,
)
from .errors import (
    ChannelFormatError,
    CompoundBccError,
    ConfigError,
    ConstructionError,
    DegenerateBlockError,
    DimensionMismatchError,
    FeasibilityError,
    GenerationError,
    InvalidGridError,
    InvalidInputError,
    NotHermitianError,
    NotPositiveDefiniteError,
)
from .gaussian import (
    BeamformerSet,
    PowerAllocation,
    RateTriple,
    build_beamformers,
    common_slope_target,
    confidential_stream_bounds,
    equal_power,
    equal_power_slopes,
    equal_power_slopes_batch,
    gaussian_confidential_region,
    gaussian_sdof_region,
    rate_common,
    rate_confidential,
    rate_leakage,
    worst_case_rates,
)
from .linalg import (
    RankTolerance,
    logdet2_hpd,
    null_space_basis,
    numerical_rank,
    singular_values,
)
from .regions import (
    RateRegion,
    contains,
    dominates,
    equivalent,
    load_region,
    nontrivial_vertices,
    region_from_inequalities,
    save_region,
    time_share,
)
from .sdof import (
    DEFAULT_SNR_GRID_DB,
    SdofEstimate,
    check_snr_grid,
    estimate_sdof_series,
    snr_db_to_power,
)

__version__ = "0.1.0"
