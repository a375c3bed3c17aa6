"""Proto-object based dynamic visual saliency engine.

Reference (floating-point) pipeline, a bit-accurate fixed-point model
of the hardware dataflow with a cycle/memory ledger, and the evaluation
metrics used to validate both.
"""

__version__ = "0.1.0"

from .channels import ChannelId, color_opponency, extract_all, to_intensity
from .config import (
    EngineConfig,
    FixationRecord,
    FrameHistory,
    FrameRGB,
    Resolution,
    validate_frame,
)
from .errors import ConfigError, DimensionError, FormatError, MetricError, PodvsError
from .hwmodel import (
    FixedFormat,
    HwPipeline,
    HwProfile,
    quantize,
)
from .kernels import GroupingBanks, build_banks
from .metrics import FixationSet, auc_roc, kld, nss, pcc
from .normalize import fuse, local_maxima, normalize_n1, normalize_n2
from .pipeline import Pipeline, run_sequence
from .pyramid import ImagePyramid, build_hw_pyramid, build_reference_pyramid, collapse
from .temporal import (
    STRONGLY_PHASIC,
    WEAKLY_PHASIC,
    PhasicParams,
    TemporalKernel,
    apply_temporal,
    make_kernel,
    phasic_degree_index,
)

__all__ = [
    "__version__",
    "ChannelId", "color_opponency", "extract_all", "to_intensity",
    "EngineConfig", "FixationRecord", "FrameHistory", "FrameRGB", "Resolution",
    "validate_frame",
    "ConfigError", "DimensionError", "FormatError", "MetricError", "PodvsError",
    "FixedFormat", "HwPipeline", "HwProfile", "quantize",
    "GroupingBanks", "build_banks",
    "FixationSet", "auc_roc", "kld", "nss", "pcc",
    "fuse", "local_maxima", "normalize_n1", "normalize_n2",
    "Pipeline", "run_sequence",
    "ImagePyramid", "build_hw_pyramid", "build_reference_pyramid", "collapse",
    "STRONGLY_PHASIC", "WEAKLY_PHASIC", "PhasicParams", "TemporalKernel",
    "apply_temporal", "make_kernel", "phasic_degree_index",
]
