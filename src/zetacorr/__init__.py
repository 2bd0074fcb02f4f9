"""Numerical laboratory for shifted moments of zeta on the critical line.

The package splits into five layers:

* `primes`: segmented sieve, prime tables, and the tapered prime
  sums every surrogate object is built from.
* `zeta`: critical-line evaluation (Riemann-Siegel with correction
  terms, Euler-Maclaurin cross-check) and the binary |zeta| grid cache.
* `dirichlet`: truncated-exponential coefficient tables, exact
  mean-value integrals, and the inequality checks that justify
  replacing long products by short ones.
* `blocks`: the multiscale decomposition of a height range into
  good/bad/square classes, with measure bounds for the rare classes.
* `moments`: shared-grid quadrature for shifted moments, the size
  prediction, and decorrelation curves against separation.

`cli` ties the layers into reproducible experiments with canonical
JSON reports.
"""

from .errors import (
    CacheFormatError,
    ConfigError,
    CoverageError,
    DomainError,
    InsufficientSieveError,
    ResourceError,
    ZetaLabError,
)
from .sums import KahanAccumulator
from .primes import (
    PrimeInterval,
    PrimeTable,
    half_square_sum,
    pretentious_cos_sum,
    sieve_primes,
    square_band_interval,
    taper_weight,
    tapered_block_sum,
)
from .zeta import (
    OneLinePoint,
    ZetaGrid,
    cache_read,
    critical_line_value,
    hardy_theta,
    riemann_siegel_Z,
    sample_critical_line,
    zeta_euler_maclaurin,
    zeta_one_line,
)
from .dirichlet import (
    CoeffTable,
    SplittingCheck,
    TruncSpec,
    coeff_csv,
    diagonal_sum,
    euler_bound,
    exact_mv_integral,
    lemma22_check,
    lemma22_n_value,
    mean_value_diagonal,
    off_diagonal_bound,
    prime_power_coeff,
    prime_power_tail_c2,
    product_coeffs,
    splitting_check,
    truncated_exp,
)
from .blocks import (
    BlockScheme,
    GridClassification,
    ShiftPartitionLabel,
    SieveBlockEngines,
    SyntheticBlockEngines,
    beta_star,
    block_measure_bound,
    build_scheme,
    classify_grid,
    classify_shift_tuple,
    default_exponent_scale,
    square_measure_bound,
    square_threshold,
)
from .moments import (
    CurveRow,
    MomentReport,
    ShiftSpec,
    correlation_curve,
    lemma21_rhs,
    moment_report,
    nsw_F,
    predict_bound,
    shifted_moment,
    snap_shifts,
)
from .cli import ExperimentConfig, RunReport, emit_plot_svg, main, run

__version__ = "0.1.0"
