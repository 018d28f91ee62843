"""State-space-collapse diagnostics for inverted-V systems, plus fairness.

The collapse function g(z) = |sum_i z_i mu_i - gamma(I) sum_i z_i|
vanishes exactly on a one-dimensional subspace; the theory says the
diffusion-scaled pool occupancies are asymptotically confined there. The
evidence produced here is empirical: per-scale Monte-Carlo tables of the
multiplicative ratio ||g||_T / (||Z_hat||_T v 1), medians over replications.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    Policy,
    RateDistribution,
    RealizedSystem,
    SystemConfig,
    check_domains,
    pool_sizes,
)
from .errors import ConfigError, DomainError
from .sim import PathRecord, _check_events, run

__all__ = [
    "HydroScaledPath",
    "FairnessEstimate",
    "ssc_g",
    "diffusion_scaled",
    "ssc_convergence",
    "SSCTable",
    "hydro_scale",
    "almost_lipschitz_check",
    "fairness_estimate",
    "default_bins",
    "rate_bin",
    "eta_theory",
    "inverted_v_config",
]

_SSC_GRID_POINTS = 2_000
_LIPSCHITZ_PAIRS = 200  # grid times probed per window


def ssc_g(pools: Sequence[Tuple[float, float]], z, policy: Policy = Policy.LISF) -> np.ndarray:
    """|sum_i z_i mu_i - gamma(I) sum_i z_i| for pools ((beta_i, mu_i), ...).

    gamma(I) is the pool law's idleness coefficient under ``policy``. ``z`` may be
    one pool vector or an array of them (last axis = pools); the queue does
    not enter. Homogeneous of degree one, and zero exactly on the kernel
    {z : sum_i z_i (mu_i - gamma(I)) = 0}.
    """
    check_domains(pools=pools)
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != len(pools):
        raise ConfigError(f"z has {z.shape[-1]} pools, pools has {len(pools)}")
    gamma = RateDistribution.from_pools(pools).idleness_coefficient(policy)
    mu = np.array([m for _, m in pools], dtype=float)
    val = np.abs(z @ mu - gamma * z.sum(axis=-1))
    return val if val.ndim else float(val)


def diffusion_scaled(path: PathRecord) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, Q_hat, Z_hat) with Q_hat = Q/sqrt(|N|), Z_hat_i = (Z_i - N_i)/sqrt(|N|)."""
    root = math.sqrt(path.system.n_servers)
    q_hat = path.grid_Q / root
    z_hat = (path.grid_Z - np.array(path.system.pool_sizes)) / root
    return path.grid_t, q_hat, z_hat


@dataclass(frozen=True)
class SSCTable:
    """Per-replication collapse statistics over increasing scale."""

    r_values: Tuple[float, ...]
    rows: Tuple[dict, ...]  # keys: r, rep, g_supnorm, z_supnorm, ratio

    def medians(self) -> List[dict]:
        out = []
        for r in self.r_values:
            ratios = np.sort([row["ratio"] for row in self.rows if row["r"] == r])
            out.append(
                {
                    "r": r,
                    "median_ratio": float(np.median(ratios)),
                    "q1": float(np.percentile(ratios, 25)),
                    "q3": float(np.percentile(ratios, 75)),
                }
            )
        return out


def ssc_convergence(
    configs: Sequence[SystemConfig],
    horizon: float,
    n_reps: int = 30,
) -> SSCTable:
    """Monte-Carlo table of the multiplicative collapse ratio per scale.

    All configs must share the same pool structure and policy, whose
    idleness coefficient ``ssc_g`` reads. Each replication runs
    the inverted-V system from the fully-busy state on 2,000 grid points
    and records ||g(Z_hat)||_T, (||Z_hat||_T v 1), and their ratio, with
    T the horizon. Every scale's expected events are checked against
    ``sim.MAX_EXPECTED_EVENTS`` before the first run, naming the ``ssc`` keys.
    """
    check_domains(reps=n_reps)
    if not configs:
        raise ConfigError("need at least one config")
    pools0, policy = configs[0].pools, configs[0].policy
    if pools0 is None:
        raise ConfigError("ssc_convergence needs inverted-V configs (pools set)")
    for cfg in configs:
        if cfg.pools != pools0:
            raise ConfigError("pool structures differ across scales")
        if cfg.policy is not policy:
            raise ConfigError("policies differ across scales")
    systems = [RealizedSystem.realize_pools(cfg) for cfg in configs]
    # run() bounds its expected events too, but would name horizon and lambda_r,
    # and only once the smaller scales had run
    for cfg, system in zip(configs, systems):
        _check_events(
            cfg.lambda_r, system.sum_mu, horizon,
            "ssc_horizon {horizon:.6g} at r = {r:.6g} gives", "ssc_horizon or r_values", r=cfg.r,
        )
    rows = []
    for cfg, system in zip(configs, systems):
        for rep in range(n_reps):
            path = run(cfg, system, horizon, grid_points=_SSC_GRID_POINTS, rep=rep)
            _, _, z_hat = diffusion_scaled(path)
            g_sup = float(np.max(ssc_g(pools0, z_hat, policy)))
            z_sup = float(np.max(np.abs(z_hat)))
            denom = max(z_sup, 1.0)
            rows.append(
                {
                    "r": cfg.r,
                    "rep": rep,
                    "g_supnorm": g_sup,
                    "z_supnorm": z_sup,
                    "ratio": g_sup / denom,
                }
            )
    return SSCTable(r_values=tuple(cfg.r for cfg in configs), rows=tuple(rows))


@dataclass(frozen=True)
class HydroScaledPath:
    """One hydrodynamic window: trajectories on [0, L] under the x_{r,m} scaling."""

    r: float
    m: int
    x_rm: float
    t: np.ndarray  # scaled times in [0, L]
    q: np.ndarray
    z: np.ndarray  # (len(t), pools)
    x_scaled: np.ndarray  # scaled total headcount deviation

    @property
    def initial_norm(self) -> float:
        parts = [abs(float(self.q[0]))] + [abs(float(v)) for v in self.z[0]]
        return max(parts)


def hydro_scale(path: PathRecord, m: int, length: float) -> HydroScaledPath:
    """Window m of the hydrodynamic scaling, read off the recorded grid.

    The scaling factor is x_{r,m} = |Z(m/sqrt(|N|)) - N|^2 v |N| (max norm
    over pools, |N| the total server count), taken at the window start.
    """
    if isinstance(m, numbers.Real) and not 0 <= m < math.inf:  # false for NaN
        raise ConfigError(f"window index must be finite and >= 0, got {m!r}")
    try:
        m = operator.index(m)  # an int, or a numpy integer; not 1.5, nor 2.0, nor "1"
    except TypeError:
        raise ConfigError(f"window index must be an integer, got {m!r}") from None
    if not 0.0 < length < math.inf:  # false for NaN
        raise ConfigError(f"window length must be finite and > 0, got {length!r}")
    n_total = path.system.n_servers
    sizes = np.array(path.system.pool_sizes)
    root_n = math.sqrt(n_total)
    t_start = m / root_n
    if t_start > path.end_time:
        raise DomainError(f"window start {t_start:.6g} beyond the path end {path.end_time:.6g}")
    # state at the window start: last grid sample at or before t_start
    j0 = int(np.searchsorted(path.grid_t, t_start, side="right") - 1)
    dev = np.max(np.abs(path.grid_Z[j0] - sizes))
    x_rm = max(float(dev) ** 2, float(n_total))
    t_end = math.sqrt(x_rm) * length / n_total + t_start
    if t_end > path.end_time + 1e-12:
        raise DomainError(
            f"path ends at {path.end_time:.6g} but window m={m} needs {t_end:.6g}"
        )
    sel = (path.grid_t >= t_start) & (path.grid_t <= t_end)
    tt = path.grid_t[sel]
    scale = 1.0 / math.sqrt(x_rm)
    scaled_t = (tt - t_start) * n_total / math.sqrt(x_rm)
    q = path.grid_Q[sel] * scale
    z = (path.grid_Z[sel] - sizes) * scale
    x_scaled = (path.grid_X[sel] - n_total) * scale
    return HydroScaledPath(
        r=path.config.r, m=m, x_rm=x_rm, t=scaled_t, q=q, z=z, x_scaled=x_scaled
    )


def almost_lipschitz_check(
    scaled_paths: Sequence[HydroScaledPath],
    n_const: float,
    eps: float,
) -> float:
    """Fraction of (m, t1, t2) grid pairs violating |X(t2)-X(t1)| <= N|t2-t1| + eps.

    The state is the max norm over (q, z components). Each window is probed
    on at most 200 evenly-spaced grid times; purely diagnostic.
    """
    if not (0.0 <= n_const < math.inf and 0.0 <= eps < math.inf):  # false for NaN
        raise ConfigError(f"n_const and eps must be finite and >= 0, got {n_const!r}, {eps!r}")
    total = 0
    exceed = 0
    for sp in scaled_paths:
        k = sp.t.size
        if k < 2:
            continue
        idx = np.unique(np.linspace(0, k - 1, min(_LIPSCHITZ_PAIRS, k)).astype(int))
        state = np.column_stack([sp.q[idx], sp.z[idx]])
        tt = sp.t[idx]
        for a in range(len(idx)):
            diff = np.max(np.abs(state[a + 1 :] - state[a]), axis=1)
            bound = n_const * np.abs(tt[a + 1 :] - tt[a]) + eps
            exceed += int((diff > bound).sum())
            total += diff.size
    if total == 0:
        raise DomainError("no usable scaled windows for the Lipschitz check")
    return exceed / total


@dataclass(frozen=True)
class FairnessEstimate:
    """Idleness-mass shares per rate bin against the policy's fairness measure."""

    bin_edges: np.ndarray
    eta_hat: np.ndarray
    eta_theory: np.ndarray
    sup_discrepancy: Optional[float]
    total_idle_time: float


def default_bins(dist: RateDistribution, n_bins: int = 10) -> np.ndarray:
    """Equal-width bins over [p, q]; discrete laws get atom-aligned bins."""
    if dist.kind == "discrete":
        atoms = np.array([r for r, _ in dist.atoms])
        if atoms.size == 1:
            return np.array([atoms[0] - 0.5, atoms[0] + 0.5])
        mids = 0.5 * (atoms[:-1] + atoms[1:])
        return np.concatenate([[atoms[0] - 0.5], mids, [atoms[-1] + 0.5]])
    return np.linspace(dist.p, dist.q, n_bins + 1)


def rate_bin(rates: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin index of each rate; rates outside the edges go to the end bins."""
    n_bins = np.asarray(edges).size - 1
    return np.clip(np.searchsorted(edges, rates, side="right") - 1, 0, n_bins - 1)


def eta_theory(dist: RateDistribution, edges: np.ndarray, policy: Policy) -> np.ndarray:
    """Fairness measure per bin: the min-rate atom under FSF, else the size-biased law.

    Mass outside the edges goes to the end bins, where ``rate_bin`` puts rates.
    """
    edges = np.asarray(edges, dtype=float)
    out = np.zeros(edges.size - 1)
    if policy is Policy.FSF:
        out[rate_bin(dist.p, edges)] = 1.0
    elif dist.kind == "uniform":
        lo, hi = dist.lo, dist.hi
        cuts = np.concatenate([[lo], np.clip(edges[1:-1], lo, hi), [hi]])
        out = np.diff(cuts * cuts) / 2.0 / ((hi * hi - lo * lo) / 2.0)
    else:
        rates, probs = np.array(dist.atoms).T
        np.add.at(out, rate_bin(rates, edges), rates * probs / dist.mean())
    return out


def fairness_estimate(path: PathRecord, bins: np.ndarray) -> FairnessEstimate:
    """Share of idleness mass per rate bin, plus the scaled sup-norm discrepancy.

    The share uses exact per-server idle-time integrals over the run, binned
    by the realized rates ``path.system.mu``; the theory column is
    ``eta_theory`` of ``path.config.rates`` under its policy. The discrepancy
    statistic needs a path whose server groups are the rate bins
    (``system.grouped(rate_bin(system.mu, bins), n_bins)``), so that the
    recorded busy counts per group give the idle counts per bin; it is None
    otherwise.
    """
    edges = np.asarray(bins, dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0.0):
        raise ConfigError("bins must be strictly increasing edges")
    if path.busy_time is None:
        raise ConfigError("fairness_estimate needs a path run with record_servers=True")
    idle_time = path.end_time - path.busy_time
    total_idle = float(idle_time.sum())
    if total_idle <= 0.0:
        raise DomainError("path carries no idleness")
    n_bins = edges.size - 1
    system = path.system
    which = rate_bin(system.mu, edges)
    eta_hat = np.zeros(n_bins)
    np.add.at(eta_hat, which, idle_time)
    eta_hat /= total_idle

    theory = eta_theory(path.config.rates, edges, path.config.policy)
    sup = None
    if system.n_pools == n_bins and np.array_equal(system.pool_of, which):
        # exact integer idle counts per bin
        per_bin = (np.array(system.pool_sizes) - path.grid_Z).astype(float)
        idle_tot = per_bin.sum(axis=1)
        dev = np.abs(per_bin - theory[None, :] * idle_tot[:, None])
        sup = float(dev.max() / math.sqrt(system.n_servers))
    return FairnessEstimate(
        bin_edges=edges,
        eta_hat=eta_hat,
        eta_theory=theory,
        sup_discrepancy=sup,
        total_idle_time=total_idle,
    )


def inverted_v_config(
    r: float,
    pools: Sequence[Tuple[float, float]],
    lambda_hat: float,
    seed: int,
    policy: Policy = Policy.LISF,
) -> SystemConfig:
    """Inverted-V config at scale r with lambda_r = capacity + lambda_hat*sqrt(r).

    The server count is round(r) split across pools by largest remainder,
    so the heavy-traffic centering is exact for the realized pool sizes.
    """
    check_domains(lambda_hat=lambda_hat, r_values=(r,))  # r > 0.5 gives round(r) >= 1
    n_total = int(round(r))
    sizes = pool_sizes(pools, n_total)
    capacity = sum(s * m for s, (_, m) in zip(sizes, pools))
    lam = capacity + lambda_hat * math.sqrt(r)
    if lam <= 0.0:
        raise ConfigError("lambda_hat drives the arrival rate negative at this scale")
    return SystemConfig(
        r=float(r),
        lambda_r=lam,
        seed=seed,
        staffing=n_total,
        policy=policy,
        pools=tuple(pools),
    )
