"""Desk-scale laboratory for resource-efficient transfer learning from a
frozen conformer encoder.

The package is built around a small reverse-mode autodiff engine whose
every primitive is instrumented (op counts, FLOPs, bytes retained for
backward), so measured training cost can be checked against an analytic
walk of the same model.  On top of it sit a conformer encoder with
per-layer feature taps, multi-layer fusion heads, parameter-efficient
tuning strategies, a synthetic sequence-labeling task with a
masked-prediction pretraining surrogate, and a config-driven experiment
CLI.
"""

from .accounting import (
    ModelSpec,
    ResourceReport,
    comparison_model_specs,
    count_backward_flops,
    count_model_params,
    count_trainable_params,
    estimate_activation_memory,
    measure_throughput,
    reference_table,
    resource_report,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, ExperimentConfig, config_fingerprint, load_config, render_config
from .encoder import DESK, FULL_SCALE, Encoder, EncoderConfig, build_encoder
from .fusion import (
    HierarchicalFusionSpec,
    LinearFusionSpec,
    build_fusion_head,
    evenly_spaced_taps,
    layer_weight_norms,
)
from .gradcheck import finite_difference_check
from .model import DownstreamModel, ProbeBank, build_model
from .params import Module, Parameter, backward, load_state, set_trainable, state_dict
from .peft import Adapter, PeftSpec, configure_peft
from .pretrain import MaskedPretrainModel, PretrainConfig, RandomQuantizer, pretrain_masked_prediction
from .synth import SynthConfig, Utterance, generate_corpus, linear_probe_fer
from .tensor import GraphError, OpCounter, ShapeError, Tensor, no_grad, scope, use_counter
from .training import (
    Adam,
    GateError,
    Metrics,
    TrainConfig,
    Trainer,
    ema_update,
    evaluate_fer,
    train_downstream,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Adapter",
    "CheckpointError",
    "ConfigError",
    "DESK",
    "DownstreamModel",
    "Encoder",
    "EncoderConfig",
    "ExperimentConfig",
    "FULL_SCALE",
    "GateError",
    "GraphError",
    "HierarchicalFusionSpec",
    "LinearFusionSpec",
    "MaskedPretrainModel",
    "Metrics",
    "ModelSpec",
    "Module",
    "OpCounter",
    "Parameter",
    "PeftSpec",
    "PretrainConfig",
    "ProbeBank",
    "RandomQuantizer",
    "ResourceReport",
    "ShapeError",
    "SynthConfig",
    "Tensor",
    "TrainConfig",
    "Trainer",
    "Utterance",
    "backward",
    "build_encoder",
    "build_fusion_head",
    "build_model",
    "comparison_model_specs",
    "config_fingerprint",
    "configure_peft",
    "count_backward_flops",
    "count_model_params",
    "count_trainable_params",
    "ema_update",
    "estimate_activation_memory",
    "evaluate_fer",
    "evenly_spaced_taps",
    "finite_difference_check",
    "generate_corpus",
    "layer_weight_norms",
    "linear_probe_fer",
    "load_checkpoint",
    "load_config",
    "load_state",
    "measure_throughput",
    "no_grad",
    "pretrain_masked_prediction",
    "reference_table",
    "render_config",
    "resource_report",
    "save_checkpoint",
    "scope",
    "set_trainable",
    "state_dict",
    "train_downstream",
    "use_counter",
]
