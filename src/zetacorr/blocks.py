"""Block decomposition of the sampling range and point classification.

A scheme slices the primes into blocks (T_{j-1}, T_j] with cutoffs K_j
that shrink as the blocks grow, plus square-sum bands (e^l, e^(l+1)]
with thresholds J_l.  Points t are classified by whether every tapered
block polynomial stays under its cutoff (good), which block fails
first (bad index), and the largest square band over threshold (square
index).

With the published scale constant the first block only activates at
astronomically large heights; `exponent_scale_override` keeps every
structural relation but lets desk-scale runs have L >= 1.  A scheme
that still ends up with L = 0 is flagged degenerate and classifies
every point as (vacuously) good.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ResourceError
from .primes import (
    SIEVE_LIMIT_MAX,
    PrimeInterval,
    half_square_sum,
    sieve_primes,
    square_band_interval,
    tapered_block_sum,
)
from .sums import UniformGrid

_LEVELS_MAX = 64
T_HEIGHT_MIN = 16.0


def beta_star(betas) -> float:
    """sum of max(1, beta_k); the scale constant behind all degree caps."""
    betas = [float(b) for b in betas]
    if not betas:
        raise DomainError("need at least one exponent")
    if any(b < 0 for b in betas):
        raise DomainError(f"exponents must be >= 0, got {betas}")
    try:
        return math.fsum(max(1.0, b) for b in betas)
    except OverflowError:
        raise DomainError(f"exponents sum past the float range: {betas}") from None


def default_exponent_scale(bs: float) -> float:
    """Published scale constant 1/(200 * beta_star^2)."""
    return 1.0 / (200.0 * bs * bs)


def square_threshold(band: int) -> float:
    """Threshold J_l = e^(-l/10) for the l-th square band."""
    if band < 1:
        raise DomainError(f"band index must be >= 1, got {band}")
    return math.exp(-band / 10.0)


@dataclass(frozen=True)
class BlockScheme:
    """Block boundaries and cutoffs for one height T.

    All boundary data is kept in log space (`log_t`, `log_t_seq`) so
    schemes remain exact even when T itself overflows a double; the
    float `t_seq` mirrors are infinity in that regime.
    """

    log_t: float
    levels: int
    log_t_seq: tuple      # log T_0 .. log T_L
    k_seq: tuple          # K_1 .. K_L

    @property
    def degenerate(self) -> bool:
        return self.levels == 0

    @property
    def t_seq(self) -> tuple:
        return tuple(
            math.exp(x) if x < 709.0 else math.inf for x in self.log_t_seq)

    @property
    def log2_t(self) -> float:
        return math.log(self.log_t)

    @property
    def square_band_count(self) -> int:
        """Bands 1..floor(log2 T) participate in classification."""
        return int(math.floor(self.log2_t))

    def sigma0(self, s_index: int, *, abscissa: str = "half") -> float:
        """Classification abscissa for the cutoff at T_s.

        The half convention (1/2 + 1/log T_s) is the one every other
        piece of the apparatus is consistent with; "one" switches to
        1 + 1/log T_s, kept as an explicitly selectable variant.
        """
        if not (1 <= s_index <= self.levels):
            raise DomainError(f"scale index {s_index} outside 1..{self.levels}")
        base = {"half": 0.5, "one": 1.0}.get(abscissa)
        if base is None:
            raise DomainError(f"unknown abscissa variant {abscissa!r}")
        return base + 1.0 / self.log_t_seq[s_index]

    def block_interval(self, j: int) -> PrimeInterval:
        if not (1 <= j <= self.levels):
            raise DomainError(f"block index {j} outside 1..{self.levels}")
        return PrimeInterval(self.t_seq[j - 1], self.t_seq[j])


def build_scheme(
    t_height: float | None = None,
    betas=(1.0,),
    exponent_scale_override: float | None = None,
    *,
    log_t: float | None = None,
) -> BlockScheme:
    """Construct the block scheme at height T.

    Pass either `t_height` or `log_t` (the latter admits heights whose
    T overflows a double).  Without an override the published scale
    constant applies, and any desk-scale T yields a degenerate scheme.
    """
    if (t_height is None) == (log_t is None):
        raise DomainError("pass exactly one of t_height and log_t")
    if log_t is None:
        if not T_HEIGHT_MIN <= t_height < math.inf:
            raise DomainError(
                f"height must be finite and >= {T_HEIGHT_MIN}, got {t_height}")
        log_t = math.log(t_height)
    elif not math.log(T_HEIGHT_MIN) <= log_t < math.inf:
        raise DomainError(
            f"log height must be finite and >= log {T_HEIGHT_MIN}, got {log_t}")
    bs = beta_star(betas)       # checks the exponents, override or not
    scale = (default_exponent_scale(bs) if exponent_scale_override is None
             else float(exponent_scale_override))
    if scale <= 0:
        raise DomainError(f"exponent scale must be positive, got {scale}")

    l2 = math.log(log_t)
    # T_j = T^(e^(j-1) / (log2 T)^2) <= T^scale needs e^(j-1) <= scale*l2^2
    budget = scale * l2 * l2
    top = 1.0 + math.log(budget) + 1e-12 if budget >= 1.0 else 0.0
    if top >= _LEVELS_MAX + 1:          # also an overflowed budget's inf
        raise ResourceError(f"scheme would have over {_LEVELS_MAX} levels")
    levels = int(top)

    log_t_seq = [math.log(2.0)]
    for j in range(1, levels + 1):
        log_t_seq.append(log_t * math.exp(j - 1) / (l2 * l2))
    k_seq = [l2 ** 1.5 * math.exp(-j / 2.0) for j in range(1, levels + 1)]
    # log T_1 >= e^2 / 4 > log 2, and each next is e times it, unless inf
    if not math.isfinite(log_t_seq[-1]):
        raise DomainError(f"log T_{levels} overflows at log T = {log_t:g}")
    return BlockScheme(
        log_t=float(log_t),
        levels=levels,
        log_t_seq=tuple(log_t_seq),
        k_seq=tuple(k_seq),
    )


class SieveBlockEngines:
    """Real evaluators for the block and square-band sums of `scheme`
    and its first `band_count` bands, on primes up to past T_L,
    e^(band_count + 1) and 64; ConfigError past the sieve."""

    def __init__(self, scheme: BlockScheme, band_count: int,
                 *, abscissa: str = "half"):
        self.scheme = scheme
        self.band_count = band_count
        self.abscissa = abscissa
        # t_seq[0] = 2, so a degenerate scheme adds nothing
        top = max(64.0, scheme.t_seq[scheme.levels], math.exp(band_count + 1))
        if not top < SIEVE_LIMIT_MAX:         # also inf
            raise ConfigError(f"classification needs primes up to {top}, "
                              f"past the sieve limit {SIEVE_LIMIT_MAX}")
        self.table = sieve_primes(int(math.ceil(top)) + 1)

    def block_sum(self, j: int, s: int, t_values: UniformGrid) -> np.ndarray:
        """P over block j, tapered at T_s, on the classification line."""
        scheme = self.scheme
        if not (1 <= j <= s <= scheme.levels):
            raise DomainError(f"need 1 <= j <= s <= L, got j={j}, s={s}")
        return tapered_block_sum(
            self.table,
            scheme.block_interval(j),
            scheme.t_seq[s],
            scheme.sigma0(s, abscissa=self.abscissa),
            t_values,
        )

    def square_sum(self, band: int, t_values: UniformGrid) -> np.ndarray:
        """Q over the band (e^l, e^(l+1)] on the half line."""
        return half_square_sum(
            self.table, square_band_interval(band), 0.5, t_values)


def classify_grid(t_values: UniformGrid, engines) -> tuple:
    """Classify every grid node under `engines.scheme` and the square
    bands 1..`engines.band_count`: (bad_index, square_index) int16 arrays.

    bad_index[k] = 0 means good; j >= 1 means the smallest failing
    block.  square_index[k] = 0 means no band over threshold; l >= 1 is
    the largest band over threshold.  All comparisons are strict
    exceedance, so boundary values count as within threshold.
    """
    if t_values.size == 0:
        raise DomainError("cannot classify an empty grid")
    scheme = engines.scheme
    bad = np.zeros(t_values.size, dtype=np.int16)
    for j in range(1, scheme.levels + 1):
        exceeded = np.zeros(t_values.size, dtype=bool)
        for s in range(j, scheme.levels + 1):
            vals = engines.block_sum(j, s, t_values)
            exceeded |= np.abs(vals) > scheme.k_seq[j - 1]
        bad = np.where((bad == 0) & exceeded, np.int16(j), bad)
    square = np.zeros(t_values.size, dtype=np.int16)
    for band in range(1, engines.band_count + 1):
        vals = engines.square_sum(band, t_values)
        over = np.abs(vals) > square_threshold(band)
        square = np.where(over, np.int16(band), square)
    return bad, square


def block_measure_bound(scheme: BlockScheme, j: int) -> float | None:
    """Fraction-scale rarity bound for the first block's bad set."""
    if j == 1:
        l2 = scheme.log2_t
        return math.exp(-l2 * l2 / 5.0)
    return None


def square_measure_bound(band: int) -> float:
    """Fraction-scale rarity bound e^(-l * e^(3l/4)) for band l."""
    if band < 1:
        raise DomainError(f"band index must be >= 1, got {band}")
    return math.exp(-band * math.exp(0.75 * band))
