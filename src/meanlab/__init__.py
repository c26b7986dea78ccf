"""meanlab: exact generalized means of finitely representable real sets."""

from fractions import Fraction as Q
from types import ModuleType as _ModuleType

from .analysis import (
    acc_points_by_mean,
    core_restriction_check,
    d_mean,
    d_probe,
    extremal_avg,
    grid_family,
    is_k_closed,
    liminf_by_mean,
    limsup_by_mean,
    sup_bound_check,
    uniformity_witness,
    uniformity_witness_at,
)
from .axioms import (
    PROPERTY_IDS,
    RECONSTRUCTED,
    GeneratorConfig,
    PropertyReport,
    Witness,
    check,
    full_report,
    gen_dilution,
    gen_disjoint_pairs,
    gen_equal_mean_pairs,
    gen_nested_chain,
    gen_sets,
)
from .errors import MeanlabError, NoConvergence, ParseError
from .exactset import (
    EMPTY,
    Cluster,
    Geometric,
    Harmonic,
    Interval,
    MappedRule,
    RealSet,
    acc_bounds,
    closure,
    derived,
    derived_iter,
    from_interval,
    from_points,
    geometric_cluster,
    harmonic_cluster,
    interior,
    intersects_interval,
    level,
    make_cluster,
    normalize,
    realset,
    reflect,
    scale,
    set_diff,
    set_intersect,
    set_union,
    slice_ge,
    slice_le,
    subset_of,
    translate,
)
from .funcs import (
    SQUARE,
    Affine,
    Compose,
    ExpBase,
    LogBase,
    MonotoneFunc,
    OddPower,
    SquareOnNonneg,
    parse_func,
)
from .limits import DEFAULT_SCHEDULE, LimitSchedule, limit_estimate
from .means import (
    AMEAN,
    AVG1,
    M_ACC,
    MEAN_NAMES,
    MeanRef,
    MeanSequence,
    amean,
    avg1,
    avg_f,
    avg_f_ref,
    avg_fat,
    avg_fat_ref,
    avg_fat_sequence,
    eds_n,
    eds_ref,
    eds_sequence,
    image_set,
    iso_n,
    iso_ref,
    iso_sequence,
    lavg,
    lavg_ref,
    m_acc,
    m_eds,
    m_eds_ref,
    m_iso,
    m_iso_ref,
    m_mu,
    m_mu_ref,
    pointwise_limit,
    resolve_mean,
    transform_kf,
)
from .measure import (
    DensityMeasure,
    diameter,
    essential_bounds,
    fatten,
    hausdorff_distance,
    lebesgue,
    moment,
    mu_measure,
    mu_moment,
    support,
)
from .setexpr import (
    SetExpr,
    evaluate,
    parse,
    parse_rational_text,
    print_expr,
    set_to_expr,
)
from .values import Approx, RootValue, decimal_str, value_bounds, value_mid

#: every public name bound above, each written once: its import line
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))

__version__ = "0.1.0"
