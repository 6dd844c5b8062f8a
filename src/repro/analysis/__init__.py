"""The paper's analysis pipeline: general statistics (Sec. 3.1), the
Android-phone landscape (Sec. 3.2), error-code decomposition (Table 2),
the ISP/BS landscape (Sec. 3.3), RAT-transition matrices (Fig. 17), and
the A/B evaluation of the enhancements (Sec. 4.3).  Everything here is
computed from dataset records only — never copied from quantities.

The columnar names are imported eagerly: the store and query paths
load :mod:`repro.analysis.columnar` anyway, and ``columnar`` must
shadow its own submodule.  The per-figure statistics (which pull in
the Android and error-code tables) resolve on first access."""

from repro._lazy import lazy_exports
from repro.analysis.columnar import (
    AnalysisPartial,
    ColumnarView,
    analysis_summary,
    columnar,
    compute_analysis_block,
    invalidate_columnar,
    merge_analysis_blocks,
)

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analysis.stats": ("GeneralStats", "compute_general_stats"),
    "repro.analysis.landscape": (
        "ModelStats",
        "compare_5g",
        "compare_android_versions",
        "per_model_stats",
    ),
    "repro.analysis.decomposition": ("error_code_decomposition",),
    "repro.analysis.isp_bs": (
        "bs_failure_ranking",
        "fit_zipf",
        "normalized_prevalence_by_level",
        "normalized_prevalence_by_rat_level",
        "per_isp_stats",
        "per_rat_bs_prevalence",
    ),
    "repro.analysis.transitions": ("transition_increase_matrix",),
    "repro.analysis.evaluation": ("ABEvaluation", "evaluate_ab"),
})

__all__ = [
    "AnalysisPartial",
    "ColumnarView",
    "analysis_summary",
    "columnar",
    "compute_analysis_block",
    "invalidate_columnar",
    "merge_analysis_blocks",
    "GeneralStats",
    "compute_general_stats",
    "ModelStats",
    "per_model_stats",
    "compare_5g",
    "compare_android_versions",
    "error_code_decomposition",
    "bs_failure_ranking",
    "fit_zipf",
    "per_isp_stats",
    "per_rat_bs_prevalence",
    "normalized_prevalence_by_level",
    "normalized_prevalence_by_rat_level",
    "transition_increase_matrix",
    "ABEvaluation",
    "evaluate_ab",
]
