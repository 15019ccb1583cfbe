"""Declarative model construction: channels -> branches -> fusion -> head.

A ModelSpec names the enabled non-visual channels, the per-visual-input
video encoder configs, the fusion strategy and the init seed; build() turns
it into a parameter dictionary with a fixed creation order so identical
seeds give bit-identical checkpoints.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Collection, Mapping
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from ..data.types import CHANNEL_WIDTHS, NONVISUAL_CHANNELS, VISUAL_INPUTS, ObservationWindow, nonvisual_columns
from ..errors import CheckpointError, ConfigError, InputError
from ..tensor import Tensor, add, layer_norm, load_checkpoint, matmul, save_checkpoint, tensor_slice
from .common import add_affine, add_param, glorot_uniform
from .embeddings import TubeletConfig, feature_tokenize, positional_encoding, tubelet_patches
from .encoder import EncoderConfig, causal_mask, encode, init_encoder_params
from .fusion import FusionConfig, fuse, head, init_fusion_params
from .vivit import ViViTConfig, init_vivit_params, vivit_forward

NAMED_CONFIGS = (
    "ours1",
    "ours2_nonvisual",
    "ours3",
    "ours4_factorised",
    "ours6_bboxes",
    "ours8_ft",
    "ours9_causal",
)


@dataclass(frozen=True)
class ModelSpec:
    channels: tuple = ()
    nonvisual_encoder: Optional[EncoderConfig] = None
    use_feature_tokenizer: bool = False
    causal: bool = False
    local_context: Optional[ViViTConfig] = None
    local_surround: Optional[ViViTConfig] = None
    global_context: Optional[ViViTConfig] = None
    fusion: FusionConfig = field(default_factory=lambda: FusionConfig("concat_ffn"))
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        problems = []
        unknown = [c for c in self.channels if c not in NONVISUAL_CHANNELS]
        if unknown:
            problems.append(f"unknown channels {unknown}")
        if len(set(self.channels)) != len(self.channels):
            problems.append("duplicate channels")
        if self.channels and self.nonvisual_encoder is None:
            problems.append("non-visual channels enabled but no non-visual encoder configured")
        if not self.channels and self.nonvisual_encoder is not None:
            problems.append("non-visual encoder configured but no channels enabled")
        if not self.channels and not self.visual_inputs:
            problems.append("at least one branch (non-visual or visual) must be enabled")
        if self.use_feature_tokenizer and not self.channels:
            problems.append("feature tokenizer needs non-visual channels")
        if self.use_feature_tokenizer and self.causal:
            problems.append("causal masking is frame-level and incompatible with the feature tokenizer")
        if self.causal and not self.channels:
            problems.append("causal masking applies to the non-visual encoder, which is disabled")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        d_models = {v.d_model for _, v in self.visual_configs}
        if self.nonvisual_encoder is not None:
            d_models.add(self.nonvisual_encoder.d_model)
        if len(d_models) > 1:
            problems.append(f"branches disagree on d_model: {sorted(d_models)}")
        if self.fusion.strategy == "transformer" and self.fusion.encoder is not None and d_models:
            if self.fusion.encoder.d_model != next(iter(d_models)):
                problems.append("fusion encoder d_model differs from branch d_model")
        if problems:
            raise ConfigError("invalid model spec: " + "; ".join(problems))

    @property
    def visual_configs(self) -> list:
        pairs = []
        for name in VISUAL_INPUTS:
            cfg = getattr(self, name)
            if cfg is not None:
                pairs.append((name, cfg))
        return pairs

    @property
    def visual_inputs(self) -> tuple:
        return tuple(name for name, _ in self.visual_configs)

    @property
    def d_model(self) -> int:
        if self.nonvisual_encoder is not None:
            return self.nonvisual_encoder.d_model
        return self.visual_configs[0][1].d_model

    @property
    def n_branches(self) -> int:
        return (1 if self.channels else 0) + len(self.visual_inputs)

    def feature_width(self) -> int:
        return sum(CHANNEL_WIDTHS[c] for c in self.channels)

    # -- JSON round trip ----------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelSpec":
        def enc(d, where):
            return None if d is None else config_from_dict(EncoderConfig, d, where)

        def viv(d, where):
            parts = dict(tubelet=partial(config_from_dict, TubeletConfig), spatial=partial(config_from_dict, EncoderConfig))
            return None if d is None else config_from_dict(ViViTConfig, d, where, temporal=enc, **parts)

        fusion = partial(config_from_dict, FusionConfig, encoder=enc)
        visual = dict.fromkeys(VISUAL_INPUTS, viv)
        return config_from_dict(cls, obj, "model", nonvisual_encoder=enc, fusion=fusion, **visual)


# JSON types a config field accepts, by the field's annotation.
_JSON_TYPES = {
    "int": int,
    "float": (int, float),
    "bool": bool,
    "str": str,
    "tuple": (list, tuple),
    "Optional[int]": (int, type(None)),
    "Optional[str]": (str, type(None)),
}
# Annotations whose accepted types include int, which a JSON true/false
# (a Python bool) would pass.
_NUMBERS = ("int", "float", "Optional[int]")


def config_from_dict(cls, obj, where: str, **parsers):
    """The config dataclass `cls` from a parsed JSON object; `parsers` map
    field names to `parse(value, where)` for nested sections. A non-object,
    an unknown key, a wrongly typed value or a value `cls` rejects raises
    ConfigError naming where it is."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {type(obj).__name__}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in obj.items():
        name = f"{where}.{key}" if where else key
        if key not in types:
            raise ConfigError(f"unknown config key {name!r}")
        annotation = types[key]
        number_as_bool = isinstance(value, bool) and annotation in _NUMBERS
        if number_as_bool or not isinstance(value, _JSON_TYPES.get(annotation, object)):
            raise ConfigError(f"{name} must be {annotation}, got {type(value).__name__}")
        kwargs[key] = parsers[key](value, name) if key in parsers else value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where or 'config'}: {e}") from e


class Model:
    """A built model: spec plus named parameter tensors."""

    def __init__(self, spec: ModelSpec, params: dict):
        self.spec = spec
        self.params = params
        self.data: dict = {}  # the window settings it was trained with; {} means the defaults

    @property
    def dtype(self):
        return next(iter(self.params.values())).data.dtype

    @property
    def parameter_count(self) -> int:
        return sum(int(np.prod(p.shape)) if p.ndim else 1 for p in self.params.values())

    def state_dict(self) -> dict:
        return {name: np.array(p.data, copy=True) for name, p in self.params.items()}

    def load_state_dict(self, state: dict):
        missing = set(self.params) - set(state)
        extra = set(state) - set(self.params)
        if missing or extra:
            raise CheckpointError(f"checkpoint/spec mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        arrays = {name: np.asarray(state[name], dtype=p.data.dtype) for name, p in self.params.items()}
        for name, p in self.params.items():  # check every shape before assigning any
            if arrays[name].shape != p.shape:
                raise CheckpointError(f"shape mismatch for {name}: {arrays[name].shape} vs {p.shape}")
        for name, p in self.params.items():
            p.data = arrays[name].copy()


def build(spec: ModelSpec, dtype=np.float32) -> Model:
    """Initialize parameters (Glorot-uniform weights, zero biases) from the
    spec seed; float64 builds are for gradient checking."""
    rng = np.random.default_rng(spec.seed)
    params: dict[str, Tensor] = {}

    if spec.channels:
        f_width = spec.feature_width()
        d = spec.nonvisual_encoder.d_model
        if spec.use_feature_tokenizer:
            add_param(params, "nonvisual.tok.w", glorot_uniform(rng, (f_width, 1, d), 1, d))
            add_param(params, "nonvisual.tok.b", np.zeros((f_width, d), dtype=np.float32))
            add_param(params, "nonvisual.tok.cls", glorot_uniform(rng, (1, d), 1, d))
        else:
            add_affine(params, "nonvisual.proj", rng, f_width, d)
        # Embedding norm: non-visual inputs arrive in raw pixel units, so
        # projected tokens must be rescaled or the sigmoid head saturates
        # past the loss clamp and gradients die.
        add_param(params, "nonvisual.emb_ln.gamma", np.ones(d, dtype=np.float32))
        add_param(params, "nonvisual.emb_ln.beta", np.zeros(d, dtype=np.float32))
        init_encoder_params(params, "nonvisual.enc.", spec.nonvisual_encoder, rng)

    for name, cfg in spec.visual_configs:
        init_vivit_params(params, f"{name}.", cfg, rng)

    width = init_fusion_params(params, spec.fusion, spec.d_model, spec.n_branches, rng)
    add_param(params, "head.w", glorot_uniform(rng, (width,), width, 1))
    add_param(params, "head.b", np.zeros((), dtype=np.float32))

    if dtype != np.float32:
        for p in params.values():
            p.data = p.data.astype(dtype)
    return Model(spec, params)


def _branch_outputs(model: Model, nonvis, clips: Mapping, training: bool, rng) -> list:
    spec, params = model.spec, model.params
    branches = []
    if spec.channels:
        x = nonvis if isinstance(nonvis, Tensor) else Tensor(nonvis)
        if spec.use_feature_tokenizer:
            tokens = feature_tokenize(x, params["nonvisual.tok.w"], params["nonvisual.tok.b"], params["nonvisual.tok.cls"])
        else:
            tokens = matmul(x, params["nonvisual.proj.w"], params["nonvisual.proj.b"])
        tokens = layer_norm(tokens, params["nonvisual.emb_ln.gamma"], params["nonvisual.emb_ln.beta"])
        pe = positional_encoding(tokens.shape[-2], spec.d_model, dtype=tokens.data.dtype)
        tokens = add(tokens, Tensor(pe, dtype=tokens.data.dtype))
        mask = causal_mask(tokens.shape[-2]) if spec.causal else None
        encoded = encode(tokens, spec.nonvisual_encoder, params, "nonvisual.enc.", mask=mask, training=training, rng=rng)
        if spec.use_feature_tokenizer:  # the cls token summarises the sequence
            encoded = tensor_slice(encoded, (Ellipsis, slice(0, 1), slice(None)))
        branches.append(encoded)
    for name, cfg in spec.visual_configs:
        if name not in clips:
            raise InputError(f"model enables visual input {name!r} but the window provides none")
        branches.append(vivit_forward(clips[name], cfg, params, f"{name}.", training=training, rng=rng))
    return branches


def forward_arrays(model: Model, nonvis, clips: Mapping, training: bool = False, rng=None) -> Tensor:
    """Probability tensor for stacked inputs: nonvis (..., T, F) and clips
    name -> tubelet patches (..., T_slices, N_sp, flat_size), as
    `stack_windows` returns them, or a function of no arguments that
    returns them (`matmul`'s function operand). The caller owns the
    arrays; a branch reads its clip when it starts, and a function each
    time the tubelet projection needs the patches: once in forward, and
    once more when a tape's backward computes the projection's weight
    gradient. A name missing from `clips` raises InputError."""
    branches = _branch_outputs(model, nonvis, clips, training, rng)
    fused = fuse(branches, model.spec.fusion, model.params, training=training, rng=rng)
    return head(fused, model.params["head.w"], model.params["head.b"])


def stack_windows(
    model_spec: ModelSpec,
    windows: Sequence[ObservationWindow],
    dtype=np.float32,
    inputs: Optional[Collection[str]] = None,
):
    """Batch windows into model inputs: nonvis (B, T, F) holds the spec's
    channel columns of each window's `nonvisual` array, in
    `NONVISUAL_CHANNELS` order, and clips name -> the tubelet patches of
    the windows' (T+1, H, W, 3) clips of that input, a C-ordered
    (B, T_slices, N_sp, flat_size) array cut by the input's tubelet config
    (`embeddings.tubelet_patches`): each clip is copied once, cast to
    `dtype` in that copy, and no (B, T+1, H, W, 3) stack is made.

    `inputs` names what to stack, "nonvisual" and visual input names; None
    stacks every input the spec enables. An input left out comes back as
    None (nonvis) or absent (clips), so a caller can stack one clip at a
    time and drop it before stacking the next. Every returned array is a
    new one that the caller owns. A visual input the spec enables and a
    window lacks raises InputError, whether or not this call stacks it."""
    for name in model_spec.visual_inputs:
        missing = [i for i, w in enumerate(windows) if w.clip(name) is None]
        if missing:
            raise InputError(f"model enables visual input {name!r} but window {missing[0]} provides none")
    nonvis = None
    if model_spec.channels and (inputs is None or "nonvisual" in inputs):
        columns = nonvisual_columns(model_spec.channels)
        nonvis = np.stack([w.nonvisual for w in windows]).take(columns, axis=-1).astype(dtype, copy=False)
    clips = {
        name: tubelet_patches([w.clip(name) for w in windows], cfg.tubelet, dtype)
        for name, cfg in model_spec.visual_configs
        if inputs is None or name in inputs
    }
    return nonvis, clips


class _ClipsOnRead(Mapping):
    """Visual input name -> a function that stacks the batch's tubelet
    patches of that input by `stack_windows`, at each call; the caller
    owns what a call returns. The batch is copied as a tuple, so a caller
    that later changes its list cannot change what backward re-cuts.
    Membership stacks nothing (Mapping's `__contains__` and `get` would
    read)."""

    def __init__(self, spec: ModelSpec, windows: Sequence[ObservationWindow], dtype):
        self.spec, self.windows, self.dtype = spec, tuple(windows), dtype

    def __getitem__(self, name: str):
        return lambda: stack_windows(self.spec, self.windows, self.dtype, inputs=(name,))[1][name]

    def __contains__(self, name) -> bool:
        return name in self.spec.visual_inputs

    def __iter__(self):
        return iter(self.spec.visual_inputs)

    def __len__(self) -> int:
        return len(self.spec.visual_inputs)


def forward_batch(model: Model, windows: Sequence[ObservationWindow], training: bool = False, rng=None) -> Tensor:
    """Probability tensor for a batch of windows. The non-visual array is
    stacked once; each clip input's patch array is cut inside its branch's
    tubelet projection and dies there, so no copy of a clip's pixels is
    alive while any encoder runs, in eval and in training alike. A tape
    keeps the way to cut it again, and backward re-cuts it once for the
    projection's weight gradient. A window lacking an enabled visual input
    raises InputError before any branch runs."""
    nonvis, _ = stack_windows(model.spec, windows, dtype=model.dtype, inputs=("nonvisual",))
    clips = _ClipsOnRead(model.spec, windows, model.dtype)
    return forward_arrays(model, nonvis, clips, training=training, rng=rng)


def forward(model: Model, window: ObservationWindow, training: bool = False, rng=None) -> float:
    """Crossing probability for one window; eval mode is deterministic."""
    return float(forward_batch(model, [window], training=training, rng=rng).data[0])


# ---------------------------------------------------------------------------
# named configurations


def _desk_encoder(n_layers=2, n_heads=4, d_model=64) -> EncoderConfig:
    return EncoderConfig(n_layers=n_layers, n_heads=n_heads, d_model=d_model)


def _desk_vivit(variant: str, d_model=64) -> ViViTConfig:
    return ViViTConfig(
        variant=variant,
        tubelet=TubeletConfig(2, 16, 16, d_model),
        spatial=_desk_encoder(2, 4, d_model),
        temporal=_desk_encoder(1, 4, d_model) if variant == "factorised" else None,
    )


def named_model_spec(name: str, seed: int = 0) -> ModelSpec:
    """Concrete ModelSpec for each named configuration.

    ours1/ours3/ours9 are reconstructions: their exact architectural deltas
    were never disclosed, so they share the disclosed desk-scale defaults
    (d_model 64, 2 layers, 4 heads) and differ in branches/fusion/masking.
    """
    all_channels = tuple(NONVISUAL_CHANNELS)
    if name == "ours1":
        return ModelSpec(
            channels=all_channels,
            nonvisual_encoder=_desk_encoder(),
            local_context=_desk_vivit("spatiotemporal"),
            fusion=FusionConfig("concat_ffn"),
            seed=seed,
        )
    if name == "ours2_nonvisual":
        return ModelSpec(channels=all_channels, nonvisual_encoder=_desk_encoder(), seed=seed)
    if name == "ours3":
        return ModelSpec(
            channels=all_channels,
            nonvisual_encoder=_desk_encoder(),
            local_context=_desk_vivit("spatiotemporal"),
            local_surround=_desk_vivit("spatiotemporal"),
            global_context=_desk_vivit("spatiotemporal"),
            fusion=FusionConfig("transformer", encoder=_desk_encoder(1, 4, 64)),
            seed=seed,
        )
    if name == "ours4_factorised":
        return ModelSpec(
            channels=("bbox", "center", "pose"),
            nonvisual_encoder=_desk_encoder(),
            local_surround=_desk_vivit("factorised"),
            global_context=_desk_vivit("factorised"),
            fusion=FusionConfig("gap"),
            seed=seed,
        )
    if name == "ours6_bboxes":
        return ModelSpec(channels=("bbox",), nonvisual_encoder=_desk_encoder(2, 4, 64), seed=seed)
    if name == "ours8_ft":
        return ModelSpec(
            channels=all_channels,
            nonvisual_encoder=_desk_encoder(),
            use_feature_tokenizer=True,
            seed=seed,
        )
    if name == "ours9_causal":
        return ModelSpec(
            channels=all_channels,
            nonvisual_encoder=_desk_encoder(),
            causal=True,
            local_context=_desk_vivit("spatiotemporal"),
            fusion=FusionConfig("concat_ffn"),
            seed=seed,
        )
    raise ConfigError(f"unknown named config {name!r}; choose from {NAMED_CONFIGS}")


# ---------------------------------------------------------------------------
# persistence


def save_model(model: Model, checkpoint_path):
    """One checkpoint file: a header {"model": spec, "data": model.data (if any)}, then the weights."""
    meta = {"model": model.spec.to_dict()}
    if model.data:
        meta["data"] = model.data
    save_checkpoint(checkpoint_path, model.params, meta)


def load_model(checkpoint_path) -> Model:
    """The model in a `save_model` file: the header's "model" spec and "data" ({} if absent), the weights."""
    meta, arrays = load_checkpoint(checkpoint_path)
    if "model" not in meta:
        raise CheckpointError(f"{checkpoint_path} holds no model: its header has no 'model' spec")
    try:
        spec = ModelSpec.from_dict(meta["model"])
    except ConfigError as e:
        raise CheckpointError(f"{checkpoint_path}: header {e}") from e
    model = build(spec)
    model.load_state_dict(arrays)
    model.data = meta.get("data", {})
    return model
