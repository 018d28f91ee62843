"""Explicit Euler paths of the limit SDE: a test oracle for the closed forms."""

import math
from typing import Optional

import numpy as np

from hetq.diffusion import DiffusionParams
from hetq.errors import ConfigError


def simulate_sde(
    params: DiffusionParams,
    x0,
    horizon: float,
    step: float = 1e-3,
    stream: Optional[np.random.Generator] = None,
    sample_stride: int = 1,
):
    """Explicit Euler path(s) of the limit SDE.

    ``x0`` may be a scalar (one path) or a vector (independent paths sharing
    the time grid). Returns (times, values) where values has one column per
    path; a scalar ``x0`` gives a flat array. ``sample_stride`` keeps every
    k-th point to bound memory on long runs.
    """
    if step <= 0.0:
        raise ConfigError(f"step must be > 0, got {step}")
    if horizon <= 0.0:
        raise ConfigError(f"horizon must be > 0, got {horizon}")
    scalar = np.isscalar(x0)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    n_steps = int(round(horizon / step))
    n_keep = n_steps // sample_stride + 1
    times = np.arange(n_keep) * (step * sample_stride)
    out = np.empty((n_keep, x.size))
    out[0] = x
    sqrt_dt = math.sqrt(step)
    if stream is None:
        stream = np.random.default_rng(0)
    kept = 1
    for k in range(1, n_steps + 1):
        drift = params.beta + params.gamma * np.maximum(-x, 0.0) - params.nu * np.maximum(x, 0.0)
        if params.sigma > 0.0:
            x = x + drift * step + params.sigma * sqrt_dt * stream.standard_normal(x.size)
        else:
            x = x + drift * step
        if k % sample_stride == 0:
            out[kept] = x
            kept += 1
    out = out[:kept]
    times = times[:kept]
    return (times, out[:, 0]) if scalar else (times, out)
