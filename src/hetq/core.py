"""Rate distributions, heavy-traffic scaling arithmetic, and configuration.

Everything here is immutable after construction and safe to share across
threads. Randomness is handled through named streams derived from a single
64-bit seed, so any consumer can ask for "the arrival stream of replication
7" and always get the same generator.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError

__all__ = [
    "Policy",
    "RateDistribution",
    "HalfinWhitt",
    "SystemConfig",
    "rate_law",
    "RealizedSystem",
    "pool_sizes",
    "rng_stream",
    "Stream",
    "parse_config_text",
    "load_config_file",
    "config_texts",
    "format_config",
    "CONFIG_KEYS",
    "check_domains",
]

_PROB_TOL = 1e-12
_MAX_SERVERS = 1_000_000  # the event engine keeps a few Python lists of N entries


class Policy(Enum):
    """Routing policy for arrivals that find more than one idle server."""

    LISF = "LISF"
    FSF = "FSF"
    RANDOM = "RANDOM"


class Stream(Enum):
    """Named sub-stream purposes; keeps replications and uses independent.

    SKELETON gives the exponential gaps of the departure skeleton that
    ``hetq.sim.run`` and ``hetq.sim.coupled_run`` thin. SERVICE gives one
    uniform per skeleton point: in ``run`` it names the server, in
    ``coupled_run`` it decides whether the point is a departure.
    """

    RATES = 0
    ARRIVAL = 1
    SERVICE = 2
    ABANDON = 3
    ROUTING = 4
    SKELETON = 5


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic, independent generator for (seed, key...).

    Streams with different keys are statistically independent; the same
    (seed, key) always yields the same generator state.
    """
    ints = tuple(int(k.value) if isinstance(k, Stream) else int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=ints))


@dataclass(frozen=True)
class RateDistribution:
    """Law of a single server's service rate, supported on [p, q].

    Two shapes cover the artifact's needs: a uniform interval and a finite
    discrete mixture; a point mass is the one-atom discrete law. Construct
    through the classmethods; the constructor validates support and
    probabilities.
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    atoms: tuple = ()

    def __post_init__(self):
        if self.kind == "uniform":
            if not (0.0 < self.lo < self.hi < math.inf):
                raise ConfigError(f"uniform needs 0 < lo < hi, got ({self.lo}, {self.hi})")
        elif self.kind == "discrete":
            if not self.atoms:
                raise ConfigError("discrete distribution needs at least one atom")
            total = 0.0
            for rate, prob in self.atoms:
                if not (0.0 < rate < math.inf):
                    raise ConfigError(f"atom rate must be in (0, inf), got {rate}")
                if prob < 0.0:
                    raise ConfigError(f"atom probability must be >= 0, got {prob}")
                total += prob
            if abs(total - 1.0) > _PROB_TOL:
                raise ConfigError(f"atom probabilities sum to {total!r}, expected 1")
        else:
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        if not math.isfinite(self.second_moment()):  # gamma and the drift law need it
            raise ConfigError("the law's second moment E[mu^2] overflows a double")

    @classmethod
    def point(cls, rate: float) -> "RateDistribution":
        return cls.discrete(((rate, 1.0),))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "RateDistribution":
        return cls(kind="uniform", lo=float(lo), hi=float(hi))

    @classmethod
    def discrete(cls, atoms: Sequence[tuple]) -> "RateDistribution":
        merged: dict = {}
        for r, p in atoms:
            r, p = float(r), float(p)
            merged[r] = merged.get(r, 0.0) + p
        return cls(kind="discrete", atoms=tuple(sorted(merged.items())))

    @classmethod
    def from_pools(cls, pools: Sequence[tuple]) -> "RateDistribution":
        """The law of pools ((beta_i, mu_i), ...): rate mu_i with probability beta_i."""
        return cls.discrete(tuple((m, b) for b, m in pools))

    @property
    def p(self) -> float:
        """Lower support bound (essential infimum)."""
        if self.kind == "uniform":
            return self.lo
        return min(r for r, pr in self.atoms if pr > 0.0)

    @property
    def q(self) -> float:
        """Upper support bound (essential supremum)."""
        if self.kind == "uniform":
            return self.hi
        return max(r for r, pr in self.atoms if pr > 0.0)

    def mean(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.lo + self.hi)
        return sum(r * pr for r, pr in self.atoms)

    def variance(self) -> float:
        """Exact centred form, so a narrow law keeps its digits: no E[X^2] - m^2."""
        # products, not ** 2: a float power raises OverflowError where a product gives inf
        if self.kind == "uniform":
            return (self.hi - self.lo) * (self.hi - self.lo) / 12.0
        m = self.mean()
        return sum(pr * ((r - m) * (r - m)) for r, pr in self.atoms)

    def second_moment(self) -> float:
        m = self.mean()
        return m * m + self.variance()

    def idleness_coefficient(self, policy: Policy) -> float:
        """gamma of the limit diffusion: the mean rate of the idle servers.

        FSF takes the fastest idle server first, which leaves all idleness at
        the lower support bound. LISF and RANDOM share one product-form
        idle-set law (Adan & Weiss 2014), under which idleness goes in
        proportion to rate: gamma is the size-biased mean E[mu^2]/E[mu].
        """
        if policy is Policy.FSF:
            return self.p
        return self.second_moment() / self.mean()

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise ConfigError(f"sample size must be >= 1, got {n}")
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi, size=n)
        rates = np.array([r for r, _ in self.atoms])
        probs = np.array([pr for _, pr in self.atoms])
        probs = probs / probs.sum()
        idx = rng.choice(len(rates), size=n, p=probs)
        return rates[idx]


def pool_sizes(pools: Sequence[tuple], n: int) -> tuple:
    """Split n servers over pools ((beta_i, mu_i), ...) by largest remainder; sums to n."""
    raw = [b * n for b, _ in pools]
    sizes = [int(math.floor(x)) for x in raw]
    order = sorted(range(len(raw)), key=lambda i: raw[i] - sizes[i], reverse=True)
    for i in order[: n - sum(sizes)]:
        sizes[i] += 1
    return tuple(sizes)


@dataclass(frozen=True)
class HalfinWhitt:
    """Square-root safety staffing: N = ceil(R + theta*sqrt(R)), R = lambda/mu_bar."""

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta < math.inf:  # also false for NaN
            raise ConfigError(f"staffing hw(theta) needs a finite theta >= 0, got {self.theta}")

    def resolve(self, lambda_r: float, mu_bar: float) -> int:
        offered = lambda_r / mu_bar
        n = math.ceil(offered + self.theta * math.sqrt(offered))
        return max(int(n), 1)


Staffing = Union[int, HalfinWhitt]


def _valid_pools(pools) -> bool:
    """Fractions > 0 summing to 1, rates finite, > 0 and increasing; false for NaN."""
    betas = [b for b, _ in pools]
    mus = [m for _, m in pools]
    return (
        bool(pools) and all(b > 0.0 for b in betas) and abs(sum(betas) - 1.0) <= _PROB_TOL
        and 0.0 < mus[0] and mus[-1] < math.inf and all(a < b for a, b in zip(mus, mus[1:]))
    )


def rate_law(pools=None, rates=None) -> RateDistribution:
    """A system's rate law: ``rates``, else the law of ``pools``, else point(1.0).

    The pools' law is ``discrete(mu_i:beta_i,...)``, and ``rates`` set beside
    ``pools`` must be it: a ``ConfigError`` naming both keys refuses another.
    """
    if rates is not None:
        check_domains(rates=rates)
    if pools is None:
        return RateDistribution.point(1.0) if rates is None else rates
    check_domains(pools=pools)
    law = RateDistribution.from_pools(pools)
    if rates is not None and rates != law:
        raise ConfigError(f"rates {_fmt(rates)} is not {_fmt(law)}, the law of pools; set one of them")
    return law


@dataclass(frozen=True)
class SystemConfig:
    """Scale index, arrival law, staffing rule, policy, rate law and seed for one system.

    ``rates``, the law of each server's i.i.d. rate, is what every library call
    on a config reads; ``rate_law`` resolves it once. ``dataclasses.replace``
    keeps it, so a copy with other pools passes ``rates=None``.
    """

    r: float
    lambda_r: float
    seed: int
    staffing: Staffing = HalfinWhitt(1.0)
    arrival_scv: float = 1.0
    abandon_rate: float = 0.0
    policy: Policy = Policy.LISF
    pools: Optional[tuple] = None  # ((beta_i, mu_i), ...), mu strictly increasing
    rates: Optional[RateDistribution] = None  # a RateDistribution once constructed

    def __post_init__(self):
        for key in ("seed", "staffing"):  # a numpy integer is kept as the int it stands for
            value = getattr(self, key)
            if isinstance(value, numbers.Integral) and not isinstance(value, bool):
                object.__setattr__(self, key, operator.index(value))
        check_domains(
            r=self.r, lambda_r=self.lambda_r, seed=self.seed, arrival_scv=self.arrival_scv,
            staffing=self.staffing, abandon_rate=self.abandon_rate,
        )
        object.__setattr__(self, "rates", rate_law(self.pools, self.rates))

    def resolve_staffing(self, mu_bar: float) -> int:
        if isinstance(self.staffing, HalfinWhitt):
            if self.lambda_r <= 0.0:
                raise ConfigError("square-root staffing needs lambda_r > 0")
            return self.staffing.resolve(self.lambda_r, mu_bar)
        return self.staffing


@dataclass(frozen=True)
class RealizedSystem:
    """A concrete system: server count and one realized rate vector.

    ``zeta_hat`` is the CLT-centered total rate (sum_mu - N*mu_bar)/sqrt(r);
    it is the finite-scale stand-in for the limit drift's random part.

    ``pool_of`` puts each server in a group whose busy servers the engine
    counts (all in one when left out), and ``pool_sizes`` counts each group's
    servers (from ``pool_of`` when left out): the inverted-V pools, rate
    bins (see ``grouped``) or one group per server.
    """

    n_servers: int
    mu: np.ndarray
    mu_bar: float
    r: float
    lambda_r: float
    pool_of: np.ndarray = None
    pool_sizes: tuple = None

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.shape != (self.n_servers,):
            raise ConfigError(f"rate vector has shape {mu.shape}, expected ({self.n_servers},)")
        if np.any(mu <= 0.0) or not np.all(np.isfinite(mu)):
            raise ConfigError("all service rates must be positive and finite")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        pool_of = np.zeros(self.n_servers) if self.pool_of is None else self.pool_of
        pool_of = np.asarray(pool_of, dtype=np.int64)
        if pool_of.shape != (self.n_servers,) or np.any(pool_of < 0):
            raise ConfigError(f"pool_of needs a group >= 0 per server, {self.n_servers} in all")
        sizes = tuple(np.bincount(pool_of, minlength=len(self.pool_sizes or ())).tolist())
        if self.pool_sizes is not None and sizes != tuple(self.pool_sizes):
            raise ConfigError(f"pool_of counts {sizes} per group, pool_sizes {self.pool_sizes}")
        pool_of.setflags(write=False)
        object.__setattr__(self, "pool_of", pool_of)
        object.__setattr__(self, "pool_sizes", sizes)

    @property
    def sum_mu(self) -> float:
        return float(self.mu.sum())

    @property
    def zeta_hat(self) -> float:
        return (self.sum_mu - self.n_servers * self.mu_bar) / math.sqrt(self.r)

    @property
    def stable(self) -> bool:
        return self.sum_mu > self.lambda_r

    @property
    def n_pools(self) -> int:
        return len(self.pool_sizes)

    def grouped(self, group_of, n_groups: int = 0) -> "RealizedSystem":
        """The same servers in at least ``n_groups`` groups, server k in ``group_of[k]``.

        A top rate bin that no server falls in still counts as a group.
        """
        sizes = np.bincount(group_of, minlength=n_groups)
        return replace(self, pool_of=group_of, pool_sizes=tuple(sizes.tolist()))

    @staticmethod
    def _server_count(config: SystemConfig, mu_bar: float) -> int:
        # square-root staffing gives N >= lambda_r / mu_bar, so that is
        # checked first: near 1e308 the staffing rule overflows
        hw = isinstance(config.staffing, HalfinWhitt)
        if (config.lambda_r / mu_bar if hw else config.staffing) <= _MAX_SERVERS:
            n = config.resolve_staffing(mu_bar)
            if n <= _MAX_SERVERS:
                return n
        raise ConfigError(
            f"lambda_r {config.lambda_r!r} and staffing {_fmt(config.staffing)} give more "
            f"than the {_MAX_SERVERS} servers a system may have"
        )

    @classmethod
    def realize(
        cls,
        config: SystemConfig,
        dist: RateDistribution,
        stream: np.random.Generator,
    ) -> "RealizedSystem":
        """Draw i.i.d. rates from ``dist`` for the staffed server count (at most 10^6)."""
        n = cls._server_count(config, dist.mean())
        mu = dist.sample(n, stream)
        return cls(n_servers=n, mu=mu, mu_bar=dist.mean(), r=config.r, lambda_r=config.lambda_r)

    @classmethod
    def realize_pools(cls, config: SystemConfig) -> "RealizedSystem":
        """Deterministic inverted-V system: pool i holds round(beta_i*N) servers at rate mu_i.

        Pool sizes use largest-remainder rounding so they sum to N exactly.
        """
        if config.pools is None:
            raise ConfigError("config has no pools")
        mu_bar = config.rates.mean()
        n = cls._server_count(config, mu_bar)
        sizes = pool_sizes(config.pools, n)
        if any(s < 1 for s in sizes):
            raise ConfigError(f"pool sizes {sizes} collapse at N={n}; increase the scale")
        mu = np.repeat([m for _, m in config.pools], sizes)
        pool_of = np.repeat(np.arange(len(sizes)), sizes)
        return cls(n, mu, mu_bar, config.r, config.lambda_r, pool_of=pool_of)

    @classmethod
    def from_config(cls, config: SystemConfig, rep: int = 0):
        """System of replication ``rep``: the config's pools, else rates drawn from ``config.rates``."""
        if config.pools is not None:
            return cls.realize_pools(config)
        return cls.realize(config, config.rates, rng_stream(config.seed, rep, Stream.RATES))


# --------------------------------------------------------------------------
# Flat key = value configuration files
# --------------------------------------------------------------------------

MAX_GRID_POINTS = 1_000_000  # grid samples of a run; 10^6 keep its memory bounded
MAX_QUEUE_CAP = 10_000_000  # 10x the default; waiting ids cost ~160 B each
MAX_DENSITY_SPAN = sys.float_info.max / 2  # a grid on [-span, span] has a finite width


class Domain(NamedTuple):
    """The values a config key accepts: ``text`` names them, ``holds`` tests a parsed one.

    A key whose parser refuses everything outside its domain keeps the
    default ``holds``.
    """

    text: str
    holds: Callable[[object], bool] = lambda value: True


# chained compares are false for NaN, so these also refuse it
_FINITE = Domain("finite", math.isfinite)
_POSITIVE = Domain("finite, > 0", lambda v: 0.0 < v < math.inf)
_NON_NEGATIVE = Domain("finite, >= 0", lambda v: 0.0 <= v < math.inf)


def _at_least(lo: int) -> Domain:
    return Domain(f">= {lo}", lambda v: v >= lo)


def _between(lo: int, hi: int) -> Domain:
    return Domain(f"in [{lo}, {hi}]", lambda v: lo <= v <= hi)


def _one_of(*words: str) -> Domain:
    return Domain("one of " + "/".join(words), lambda v: v in words)


def _parse_rates(text: str) -> RateDistribution:
    text = text.strip()
    if text.startswith("point(") and text.endswith(")"):
        return RateDistribution.point(float(text[6:-1]))
    if text.startswith("uniform(") and text.endswith(")"):
        lo, hi = text[8:-1].split(",")
        return RateDistribution.uniform(float(lo), float(hi))
    if text.startswith("discrete(") and text.endswith(")"):
        atoms = []
        for part in text[9:-1].split(","):
            rate, prob = part.split(":")
            atoms.append((float(rate), float(prob)))
        return RateDistribution.discrete(atoms)
    raise ValueError(text)


def _format_rates(dist: RateDistribution) -> str:
    if dist.atoms == ((dist.p, 1.0),):
        return f"point({dist.p!r})"
    if dist.kind == "uniform":
        return f"uniform({dist.lo!r},{dist.hi!r})"
    parts = ",".join(f"{r!r}:{p!r}" for r, p in dist.atoms)
    return f"discrete({parts})"


def _parse_staffing(text: str) -> Staffing:
    text = text.strip()
    if text.startswith("hw(") and text.endswith(")"):
        return HalfinWhitt(float(text[3:-1]))
    return int(text)


def _parse_pools(text: str):
    pools = []
    for part in text.split(","):
        beta, mu = part.split(":")
        pools.append((float(beta), float(mu)))
    return tuple(pools)


def _parse_policy(text: str) -> Policy:
    return Policy[text.strip().upper()]


def _parse_word(text: str) -> str:
    return text.strip().lower()


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _parse_floats(text: str):
    return tuple(float(x) for x in text.split(","))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Policy):
        return value.value
    if isinstance(value, RateDistribution):
        return _format_rates(value)
    if isinstance(value, (int, float, str)):
        return repr(value) if isinstance(value, float) else str(value)
    if isinstance(value, HalfinWhitt):
        return f"hw({value.theta!r})"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):  # pools
            return ",".join(f"{b!r}:{m!r}" for b, m in value)
        return ",".join(repr(float(v)) for v in value)
    raise ConfigError(f"cannot format config value {value!r}")


# key -> (parser, domain); ``_fmt`` renders every value. Keys mirror
# SystemConfig plus the knobs of the individual subcommands, and all are
# optional. ``parse_config_text`` checks each value against its domain where
# it enters, so a domain holds what every command reading the key needs, and
# the library's entry points check their arguments through ``check_domains``.
# Checks that depend on another key or on the realized system (bins <= N,
# x0 <= N + queue_cap, bracket_lo < bracket_hi, eps < mu_bar, nu > 0 under
# the abandonment model, beta < 0 without abandonment) stay where they are made.
CONFIG_KEYS: dict = {
    # system
    "r": (float, _POSITIVE),
    "lambda_r": (float, _NON_NEGATIVE),
    "seed": (int, _at_least(0)),
    "arrival_scv": (float, _NON_NEGATIVE),
    "staffing": (_parse_staffing, Domain(
        "an integer >= 1 or hw(theta), theta finite, >= 0",
        lambda v: isinstance(v, HalfinWhitt) or (type(v) is int and v >= 1),  # not a bool
    )),
    "abandon_rate": (float, _NON_NEGATIVE),
    "policy": (_parse_policy, Domain("one of LISF/FSF/RANDOM")),
    "rates": (_parse_rates, Domain(
        "point(mu), uniform(lo,hi) or discrete(mu:p,...), rates finite, > 0, E[mu^2] finite",
        lambda v: isinstance(v, RateDistribution),  # what the parser makes; for library callers
    )),
    "pools": (_parse_pools, Domain(
        "beta:mu,... with beta > 0 summing to 1, mu finite, > 0, increasing", _valid_pools
    )),
    # simulation
    "horizon": (float, _POSITIVE),
    "warmup": (float, Domain("in [0, 1)", lambda v: 0.0 <= v < 1.0)),
    "abandon_mode": (_parse_word, _one_of("none", "per_customer", "perturbed")),
    "x0": (int, _at_least(0)),
    "grid_points": (int, _between(2, MAX_GRID_POINTS)),
    "queue_cap": (int, _between(0, MAX_QUEUE_CAP)),
    "record_idle": (_parse_bool, Domain("true or false")),
    # a job and a result row per replication are held at once
    "reps": (int, _between(1, 100_000)),
    # staffing costs
    "c_s": (float, _NON_NEGATIVE),
    "c_w": (float, _NON_NEGATIVE),
    "d": (float, _NON_NEGATIVE),
    "c_un": (float, _NON_NEGATIVE),
    "cost_model": (_parse_word, _one_of("waiting", "abandon")),
    "bracket_lo": (float, _POSITIVE),
    "bracket_hi": (float, _POSITIVE),
    "opt_tol": (float, _POSITIVE),
    # diffusion analytics
    "beta": (float, _FINITE),
    "sigma": (float, _NON_NEGATIVE),
    "gamma": (float, _POSITIVE),
    "nu": (float, _NON_NEGATIVE),
    "theta": (float, _FINITE),
    "mu_bar": (float, _POSITIVE),
    "density_points": (int, _between(2, MAX_GRID_POINTS)),
    "density_span": (float, Domain(
        f"in (0, {MAX_DENSITY_SPAN!r}]", lambda v: 0.0 < v <= MAX_DENSITY_SPAN
    )),
    # ql sweep
    "eps_min": (float, _POSITIVE),
    "eps_max": (float, _POSITIVE),
    "eps_steps": (int, _between(1, 10_000)),  # about 2 ms a step
    # ssc / fairness / coupling
    "r_values": (_parse_floats, Domain(
        "one or more, each finite, > 0.5", lambda v: bool(v) and all(0.5 < x < math.inf for x in v)
    )),
    "ssc_horizon": (float, _POSITIVE),
    "lambda_hat": (float, Domain("finite, < 0", lambda v: -math.inf < v < 0.0)),
    "bins": (int, _at_least(1)),
    "p_rate": (float, _POSITIVE),
    # a few seconds of coupling, with three lists that long
    "skeleton_events": (int, _between(1, 1_000_000)),
}


# the type a library argument needs for a key that parses with float or
# int, as the parsers give; a bool is neither. The builtin types come first,
# since isinstance tries them before the slower ABC check.
_KINDS = {
    float: ("a real number", (float, int, numbers.Real)),
    int: ("an integer", (int, numbers.Integral)),
}


def check_domains(**values) -> None:
    """Refuse the first keyword value outside the domain of the key it names.

    The ``ConfigError`` is ``parse_config_text``'s, ``"<key> must be
    <domain>, got <value>"``, with the value's repr. A value of the wrong
    type for a ``float`` or ``int`` key adds ``" (not a real number)"`` or
    ``" (not an integer)"``; an int is a real number.
    """
    for key, value in values.items():
        parser, domain = CONFIG_KEYS[key]
        kind = _KINDS.get(parser)
        wrong = kind is not None and (isinstance(value, bool) or not isinstance(value, kind[1]))
        if wrong or not domain.holds(value):
            why = f" (not {kind[0]})" if wrong else ""
            raise ConfigError(f"{key} must be {domain.text}, got {value!r}{why}")


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines (UTF-8, ``#`` comments) into typed values.

    A value that does not parse, or parses outside its key's domain, raises
    ``ConfigError("<key> must be <domain>, got <value>")``.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        parser, domain = CONFIG_KEYS[key]
        try:
            values[key] = parser(val)
        except (ConfigError, KeyError, ValueError) as exc:  # unparsed is outside the domain
            why = f" ({exc})" if isinstance(exc, ConfigError) else ""
            raise ConfigError(f"{key} must be {domain.text}, got {val}{why}") from None
        if not domain.holds(values[key]):
            raise ConfigError(f"{key} must be {domain.text}, got {val}")
    return values


def load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_texts(values: dict) -> dict:
    """Each key of a typed config dict, in sorted order, with its value in the flat text format."""
    texts = {}
    for key in sorted(values):
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        texts[key] = _fmt(values[key])
    return texts


def format_config(values: dict) -> str:
    """Render a typed config dict back to the flat text format."""
    return "\n".join(f"{key} = {text}" for key, text in config_texts(values).items()) + "\n"
