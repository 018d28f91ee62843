"""Heterogeneous many-server queues: simulation and diffusion analytics.

Simulates many-server queues whose service rates are i.i.d. draws from a
known law (single pool or inverted-V pools, LISF/FSF/RANDOM routing, with
or without abandonment) and evaluates the matching square-root-staffing
analytics: stationary laws of the limiting diffusion, waiting
probabilities, staffing cost optimization, state-space-collapse
diagnostics, and server-fairness measures. Each side is built to validate
the other.
"""

from .core import (
    HalfinWhitt,
    Policy,
    RateDistribution,
    RealizedSystem,
    Stream,
    SystemConfig,
    rng_stream,
)
from .diffusion import (
    DiffusionParams,
    SteadyStateDensity,
    expected_positive_part,
    halfin_whitt_delay,
    prob_wait_aband,
    prob_wait_no_aband,
    ql_eps,
    stationary_aband,
    stationary_no_aband,
)
from .errors import ConfigError, DomainError, HetqError
from .sim import (
    AbandonMode,
    CoupledPaths,
    PathRecord,
    Replication,
    SteadyEstimates,
    coupled_run,
    path_summary,
    path_to_csv,
    replicate,
    run,
    steady_estimates,
)
from .ssc import (
    FairnessEstimate,
    HydroScaledPath,
    almost_lipschitz_check,
    default_bins,
    fairness_estimate,
    hydro_scale,
    inverted_v_config,
    ssc_convergence,
    ssc_g,
)
from .staffing import (
    CostSpec,
    OptimizationResult,
    cost_aband,
    cost_no_aband,
    erlang_a,
    erlang_c,
    optimize_staffing,
)

__version__ = "0.1.0"
