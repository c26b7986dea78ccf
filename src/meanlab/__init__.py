"""meanlab: exact generalized means of finitely representable real sets.

The package imports a module the first time one of its names, or the
module itself, is asked for (PEP 562), so ``import meanlab`` loads no
submodule and a command loads only the modules it runs.
"""

import importlib
from fractions import Fraction as Q

__version__ = "0.1.0"

#: module -> the public names the package exports from it
_EXPORTS = {name: tuple(names.split()) for name, names in {
    "analysis": """acc_points_by_mean core_restriction_check d_mean d_probe
        extremal_avg grid_family is_k_closed liminf_by_mean limsup_by_mean
        uniformity_witness uniformity_witness_at""",
    "axioms": """PROPERTY_IDS RECONSTRUCTED GeneratorConfig PropertyReport
        Witness check full_report gen_dilution gen_disjoint_pairs
        gen_equal_mean_pairs gen_sets""",
    "cli": "",
    "errors": "MeanlabError NoConvergence ParseError",
    "exactset": """EMPTY Cluster Geometric Harmonic Interval MappedRule
        RealSet acc_bounds closure derived derived_iter from_interval
        from_points geometric_cluster harmonic_cluster image_set interior
        level make_cluster normalize realset reflect scale set_diff
        set_intersect set_union slice_ge slice_le subset_of translate""",
    "funcs": """SQUARE Affine Compose ExpBase LogBase MonotoneFunc Power
        parse_func""",
    "limits": "DEFAULT_SCHEDULE LimitSchedule limit_estimate",
    "means": """AMEAN AVG1 M_ACC MEAN_NAMES MeanRef MeanSequence amean avg1
        avg_f avg_f_ref avg_fat avg_fat_ref avg_fat_sequence eds_n eds_ref
        eds_sequence iso_n iso_ref iso_sequence lavg lavg_ref
        m_acc m_eds m_eds_ref m_iso m_iso_ref m_mu m_mu_ref pointwise_limit
        resolve_mean transform_kf""",
    "measure": """DensityMeasure essential_bounds fatten hausdorff_distance
        lebesgue moment support""",
    "setexpr": "SetExpr evaluate parse print_expr set_to_expr",
    "values": """Approx RootValue decimal_str parse_rational_text
        value_bounds value_mid""",
}.items()}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(["Q", *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"),
                   name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
