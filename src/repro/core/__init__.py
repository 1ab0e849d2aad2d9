"""The paper's contribution: linear-regression DNN execution time predictors."""

from repro.core.analysis import (
    ErrorBreakdown,
    NetworkError,
    error_breakdown,
)
from repro.core.base import PerformanceModel, networks_by_name
from repro.core.classification import (
    FEATURE_LABELS,
    FEATURES,
    ClassifiedKernel,
    classification_report,
    classify_kernel,
    classify_kernels,
)
from repro.core.clustering import KernelCluster, cluster_index, cluster_kernels
from repro.core.coverage import (
    EXACT,
    FALLBACK,
    NEAR,
    CoverageReport,
    coverage_report,
)
from repro.core.e2e import EndToEndModel
from repro.core.intergpu import InterGPUKernelWiseModel, KernelTransfer
from repro.core.kernelwise import (
    KernelMappingTable,
    KernelTablePredictor,
    KernelWiseModel,
)
from repro.core.layerwise import LayerWiseModel
from repro.core.linreg import LinearFit, fit_from_pairs, fit_line
from repro.core.metrics import (
    SCurve,
    mean_relative_error,
    relative_error,
    s_curve,
)
from repro.core.online import (
    OnlineEndToEndModel,
    OnlineKernelWiseModel,
    OnlineLinearFit,
)
from repro.core.overhead import OverheadAwareModel
from repro.core.plan import (
    FlopsPlan,
    KernelArrays,
    KernelPlan,
    LayerSumPlan,
    OverheadPlan,
    PredictionPlan,
    RetargetablePlan,
)
from repro.core.persistence import (
    check_format_version,
    load_document,
    load_model,
    model_from_dict,
    model_to_dict,
    save_document,
    save_model,
)
from repro.core.signature import layer_signature, signature_kind, size_bucket
from repro.core.workflow import (
    evaluate_model,
    train_inter_gpu_model,
    train_model,
)

__all__ = [
    "ClassifiedKernel",
    "CoverageReport",
    "EXACT",
    "NEAR",
    "FALLBACK",
    "EndToEndModel",
    "ErrorBreakdown",
    "NetworkError",
    "coverage_report",
    "error_breakdown",
    "FEATURES",
    "FEATURE_LABELS",
    "FlopsPlan",
    "InterGPUKernelWiseModel",
    "KernelArrays",
    "KernelCluster",
    "KernelMappingTable",
    "KernelPlan",
    "KernelTablePredictor",
    "KernelTransfer",
    "KernelWiseModel",
    "LayerSumPlan",
    "LayerWiseModel",
    "LinearFit",
    "OnlineEndToEndModel",
    "OnlineKernelWiseModel",
    "OnlineLinearFit",
    "OverheadAwareModel",
    "OverheadPlan",
    "PerformanceModel",
    "PredictionPlan",
    "RetargetablePlan",
    "SCurve",
    "classification_report",
    "classify_kernel",
    "classify_kernels",
    "cluster_index",
    "cluster_kernels",
    "check_format_version",
    "evaluate_model",
    "fit_from_pairs",
    "fit_line",
    "layer_signature",
    "load_document",
    "load_model",
    "save_document",
    "mean_relative_error",
    "model_from_dict",
    "model_to_dict",
    "save_model",
    "networks_by_name",
    "relative_error",
    "s_curve",
    "signature_kind",
    "size_bucket",
    "train_inter_gpu_model",
    "train_model",
]
