"""Desk-scale spatial/camera/motion attention chain with rolling-cache
reuse, semantic token pruning, adaptive chain bypass, and a benchmark
harness that verifies them against a dense oracle."""

from .attention import (
    BlockOutput,
    BlockParams,
    ChainWeights,
    PriorSet,
    axis_attention,
    camera_forward,
    ffn,
    motion_forward,
    spatial_forward,
)
from .bench import RunConfig, RunReport, build_config, emit_report, run_benchmark
from .cache import BLOCK_KINDS, RollingCache
from .core import CostCounters, Rng, cosine, psnr
from .denoiser import (
    DiffusionSchedule,
    ToyModel,
    build_toy_model,
    cached_chain_forward,
    cosine_schedule,
    ddim_update,
    denoise_step,
    model_forward,
    sample,
    synth_priors,
)
from .errors import (
    CacheProtocolError,
    DegenerateInputError,
    ParameterError,
    ShapeError,
)
from .pruning import (
    TokenIndexSet,
    identify_tokens,
    pruned_camera_forward,
    pruned_motion_forward,
    random_tokens,
    token_count,
)
from .scheduler import SchedulerState, StepKind, StepMode, compute_asr, select_mode

__version__ = "0.1.0"
