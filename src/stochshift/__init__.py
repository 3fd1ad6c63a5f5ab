"""Mean-shift, blurring mean-shift and stochastic mean-shift clustering.

The package provides the three iteration drivers over truncated-profile
kernels, cluster extraction, external purity metrics, seeded synthetic
benchmark generators, an executable suite of convergence checks, and a
score-matrix SMS variant for embedding data.
"""

from .algorithms import (
    ALGORITHMS,
    AlgoConfig,
    RandomIndexStream,
    RunTrace,
    bms_run,
    bms_sweep,
    ms_run,
    run,
    sms_run,
    sms_step,
)
from .affinity import PreprocessConfig, knn_sms_run, spherical_normalize, top_score_neighbors
from .clustering import MergePolicy, Partition, cluster_summary, extract_clusters
from .core import (
    full_gradient,
    gradient_max_norm,
    kde_value,
    mean_shift_operator,
    neighborhood,
    objective_value,
    partial_gradient,
)
from .kernels import (
    BIWEIGHT,
    EPANECHNIKOV,
    PROFILE_NAMES,
    QUADWEIGHT,
    TRIWEIGHT,
    Profile,
    profile_derivative,
    profile_from_name,
    profile_value,
)
from .metrics import (
    ContingencyTable,
    acp,
    alp,
    contingency,
    g_score,
    k_score,
    metrics_report,
    purity_cd,
    purity_dc,
)
from .synthdata import GmmSpec, LabeledDataset, generate, parse_preset, preset
from .theory import (
    CheckResult,
    TheoryReport,
    check_cluster_stability,
    check_critical_characterization,
    check_gradient_vanishes,
    check_monotone_ascent,
    check_partial_gradient_bound,
    check_single_cluster_convergence,
    negative_controls,
    verify_preset,
)

__version__ = "0.1.0"
