"""circle-lab: exponential sums, arc systems, discrete Fourier multipliers,
and variational seminorms at desk scale."""

from .arcs import (
    ArcSystem,
    ClassifyResult,
    DyadicScale,
    FareyTable,
    ReducedFraction,
    TorusIntervalSet,
    TorusPoint,
    canonical_fractions,
    dyadic_arcs,
    dyadic_shell,
    minor_sample,
    wrap_signed,
)
from .ergodic_lab import (
    AverageSeries,
    DiscrepancyReport,
    FiniteSystem,
    average_series,
    convergence_diagnostic,
    discrepancy,
    mean_ergodic_check,
    star_discrepancy,
)
from .expsums import (
    DecayScanReport,
    Lemma1Result,
    complete_sum,
    continuous_multiplier,
    lemma1_grid_sweep,
    lemma1_residual,
    minor_sup_grid,
    weyl_decay_scan,
    weyl_sum,
)
from .multipliers import (
    MultiplierOp,
    PipelineConfig,
    approx_average_op,
    arc_split,
    eta,
    eta_at_scale,
    factorization_gap,
    kernel_l1_bound,
    l2_operator_norm,
    lp_norm_probe,
    multiplier_apply,
    project,
    project_dyadic,
    projection_op,
    projection_property_report,
    projection_symbol,
    shell_vanishing_overlap,
)
from .polyavg import (
    IntPolynomial,
    RieszSplit,
    Signal,
    average_bilinear,
    average_linear,
    kernel,
    maximal_function,
    riesz_split,
    signal_from_spectrum,
    spectrum,
)
from .seminorms import (
    RealSequence,
    SeminormReport,
    jump_count,
    lacunary,
    lepingle_stat,
    oscillation,
    variation,
    variation_values,
)

__version__ = "0.1.0"
