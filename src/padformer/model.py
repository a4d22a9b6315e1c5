"""End-to-end video anti-spoofing classifier.

A clip [T, 3, H, W] is tokenized per frame by a strided convolution, passed
through ``depth`` transformer layers (a convolution projecting one [q | k | v]
map from one stored ``qkv`` kernel and bias, multi-scale attention on it with
residual, channel norm, convolutional feed-forward with residual), mean-pooled
over frames and space, and mapped linearly to two logits (attack / bona fide).
No class token and no positional encoding; the convolutions carry all spatial
structure, so logits are invariant to frame order. A batch of B clips
[B, T, 3, H, W] runs as one graph whose activations stay channels-last,
[B, T, H, W, C], from the embed to the pool, and gives [B, 2] logits; each
head attends clip by clip in one batched matmul; one clip [T, 3, H, W] is
B = 1. A training batch is (frames [B, T, 3, H, W], int labels [B]).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as tt
from . import vpt
from .attention import conv_project, multiscale_attention
from .embed import conv_ffn, conv_token_embed
from .rng import stream
from .tensor import AdamState, ShapeError, Tensor, adam_step

INIT_STD = 0.02
NUM_CLASSES = 2                 # attack / bona fide


@dataclass(frozen=True)
class ModelConfig:
    frames: int = 8
    height: int = 32
    width: int = 32
    embed_stride: int = 8
    embed_channels: int = 12
    scales: tuple = (1, 2)
    depth: int = 2
    ffn_ratio: int = 4
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(int(s) for s in self.scales))
        if self.frames < 1:
            raise ValueError(f"need at least one frame, got {self.frames}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        for name in ("embed_stride", "embed_channels", "ffn_ratio"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.height % self.embed_stride or self.width % self.embed_stride:
            raise ValueError(
                f"frame extent {self.height}x{self.width} not divisible by "
                f"stride {self.embed_stride}")
        if not self.scales or min(self.scales) < 1:
            raise ValueError(f"need at least one scale, each >= 1, got {self.scales}")
        if self.embed_channels % len(self.scales):
            raise ShapeError(f"{self.embed_channels} channels not divisible across "
                             f"{len(self.scales)} heads")
        for s in self.scales:
            if self.map_h % s or self.map_w % s:
                raise ShapeError(f"scale {s} does not divide map extent "
                                 f"{self.map_h}x{self.map_w}")

    @property
    def map_h(self) -> int:
        return self.height // self.embed_stride

    @property
    def map_w(self) -> int:
        return self.width // self.embed_stride


def parameter_shapes(cfg: ModelConfig) -> dict:
    """Name -> shape for every trainable tensor; fixed enumeration order."""
    c = cfg.embed_channels
    hid = cfg.ffn_ratio * c
    shapes = {
        "embed.weight": (c, 3, cfg.embed_stride, cfg.embed_stride),
        "embed.bias": (c,),
    }
    for i in range(cfg.depth):
        # [q | k | v] on the output axis; the k third of the bias cannot move
        # the logits but stays, so the projection is one conv2d with one bias
        shapes[f"layers.{i}.qkv.weight"] = (3 * c, c, 3, 3)
        shapes[f"layers.{i}.qkv.bias"] = (3 * c,)
        shapes[f"layers.{i}.norm.gamma"] = (c,)
        shapes[f"layers.{i}.norm.beta"] = (c,)
        shapes[f"layers.{i}.ffn1.weight"] = (hid, c, 1, 1)
        shapes[f"layers.{i}.ffn1.bias"] = (hid,)
        shapes[f"layers.{i}.ffn2.weight"] = (c, hid, 1, 1)
        shapes[f"layers.{i}.ffn2.bias"] = (c,)
    shapes["head.weight"] = (c, NUM_CLASSES)
    shapes["head.bias"] = (NUM_CLASSES,)
    return shapes


def init_params(cfg: ModelConfig, dtype=np.float32) -> dict:
    """Truncated-normal weights (sigma 0.02, cut at 2 sigma), zero biases,
    unit norm gains. Seeded by cfg.seed through the named-stream splitter."""
    rng = stream(cfg.seed, "init")
    params = {}
    for name, shape in parameter_shapes(cfg).items():
        if name.endswith("norm.gamma"):
            data = np.ones(shape, dtype=dtype)
        elif name.endswith(".bias") or name.endswith("norm.beta"):
            data = np.zeros(shape, dtype=dtype)
        else:
            data = rng.standard_normal(shape)
            while (out := np.abs(data) > 2.0).any():    # cut at 2 sigma: draw those again
                data[out] = rng.standard_normal(np.count_nonzero(out))
            data = (INIT_STD * data).astype(dtype)
        params[name] = tt.param(data)
    return params


def param_count(params: dict) -> int:
    return sum(p.size for p in params.values())


def forward(frames, params: dict, cfg: ModelConfig, records: list | None = None) -> Tensor:
    """Logits [B, 2] for a batch [B, T, 3, H, W], or [1, 2] for one clip
    [T, 3, H, W]; appends per-head, per-clip attention weights to
    ``records`` when a list is supplied."""
    frames = np.asarray(frames, dtype=params["embed.weight"].dtype)
    want = (cfg.frames, 3, cfg.height, cfg.width)
    if frames.ndim not in (4, 5) or frames.shape[-4:] != want:
        raise ShapeError(f"clip shape {frames.shape} does not match config {want}")
    x = conv_token_embed(frames.reshape((-1,) + want), params["embed.weight"],
                         params["embed.bias"], cfg.embed_stride)
    for i in range(cfg.depth):
        qkv = conv_project(x, params[f"layers.{i}.qkv.weight"],
                           params[f"layers.{i}.qkv.bias"])
        h = multiscale_attention(qkv, cfg.scales, records=records, layer=i)
        y = tt.add(h, x)
        normed = tt.layer_norm(y, params[f"layers.{i}.norm.gamma"],
                               params[f"layers.{i}.norm.beta"])
        f = conv_ffn(normed,
                     params[f"layers.{i}.ffn1.weight"], params[f"layers.{i}.ffn1.bias"],
                     params[f"layers.{i}.ffn2.weight"], params[f"layers.{i}.ffn2.bias"])
        x = tt.add(f, y)
    pooled = tt.mean(x, (1, 2, 3))                   # [B, C]
    return tt.add(tt.matmul(pooled, params["head.weight"]), params["head.bias"])


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the true classes under softmax(logits).

    ``logits`` is [K] with one int label, or [B, K] with B labels. Scalar
    output; the gradient of each row is softmax(row) minus its one-hot
    target, divided by B.
    """
    z = logits.data
    if z.ndim not in (1, 2):
        raise ShapeError(f"cross_entropy expects [K] or [B, K] logits, got {z.shape}")
    rows = z.reshape(-1, z.shape[-1])
    y = np.asarray(labels).reshape(-1)
    if y.shape != (rows.shape[0],):
        raise ShapeError(f"{y.size} labels for {rows.shape[0]} logit rows")
    if y.dtype.kind not in "iu" or y.min() < 0 or y.max() >= rows.shape[1]:
        raise ValueError(f"labels {y.tolist()} must be class indices below {rows.shape[1]}")
    m = rows.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(rows - m).sum(axis=1, keepdims=True))
    probs = np.exp(rows - lse)
    picked = np.arange(rows.shape[0])
    loss = (lse[:, 0] - rows[picked, y]).mean()

    def back(g):
        d = probs.copy()
        d[picked, y] -= 1.0
        return ((d * (g / rows.shape[0])).reshape(z.shape),)

    return tt.record(np.asarray(loss, dtype=z.dtype), (logits,), back)


def zero_grads(params: dict):
    for p in params.values():
        p.grad = None


def train_step(batch, params: dict, opt_state: AdamState, cfg: ModelConfig,
               lr: float) -> float:
    """One optimization step on ``batch`` = (frames [B, T, 3, H, W], int
    labels [B]), run as one graph; returns the mean loss. A non-finite loss or
    gradient raises ``FloatingPointError`` and leaves the params unchanged."""
    frames, labels = batch
    if not len(labels):
        raise ValueError("train_step: empty batch")
    with tt.Tape():
        total = cross_entropy(forward(frames, params, cfg), labels)
        tt.backward(total)
    loss_value = float(total.data)
    finite_grads = all(np.isfinite(p.grad).all() for p in params.values()
                       if p.grad is not None)
    if not (np.isfinite(loss_value) and finite_grads):
        zero_grads(params)
        what = "gradient" if np.isfinite(loss_value) else "loss"
        raise FloatingPointError(f"non-finite {what} at step {opt_state.step}")
    adam_step(params, opt_state, lr)
    zero_grads(params)
    return loss_value


def predict_score(clip, params: dict, cfg: ModelConfig,
                  records: list | None = None) -> float:
    """Probability the ``VideoClip`` is bona fide (softmax mass of class 1)."""
    z = forward(clip.frames, params, cfg, records=records).data[0].astype(np.float64)
    e = np.exp(z - z.max())
    return float(e[1] / e.sum())


@dataclass
class VideoClip:
    """T frames [T, 3, H, W] in [0, 1], the binary label (1 = bona fide) and
    the clip's id; ``forward`` checks the frames' shape."""

    frames: np.ndarray
    label: int
    clip_id: str = ""


def frame_indices(s: int, t: int, mode: str,
                  rng: np.random.Generator | None) -> slice | np.ndarray:
    """The T picks from a source video of S frames, as a slice when they are
    evenly strided (so indexing with them gives a view, not a copy) and as an
    index array otherwise.

    ``uniform`` takes the evenly spaced frames floor(i*S/T) from frame 0: a
    slice with stride S/T when T divides S, an index array when it does not;
    ``random-interval`` draws a stride then a phase from ``rng`` and is always
    a slice.
    """
    if s < t:
        raise ValueError(f"source has {s} frames, need {t}")
    if mode == "uniform":
        return slice(0, s, s // t) if s % t == 0 else (np.arange(t) * s) // t
    if mode != "random-interval":
        raise ValueError(f"unknown sampling mode: {mode!r}")
    stride = int(rng.integers(1, s // t + 1)) if t > 1 else int(rng.integers(1, s + 1))
    phase = int(rng.integers(0, s - (t - 1) * stride))
    return slice(phase, phase + (t - 1) * stride + 1, stride)


def sample_frames(frames: np.ndarray, t: int, mode: str = "uniform",
                  rng: np.random.Generator | None = None, label: int = 0,
                  clip_id: str = "") -> VideoClip:
    """The clip of T frames that ``frame_indices`` picks from a longer source;
    its frames are a view of ``frames`` when the picks are evenly strided."""
    return VideoClip(frames=frames[frame_indices(frames.shape[0], t, mode, rng)],
                     label=label, clip_id=clip_id)


def augment_frames(frames: np.ndarray, rng: np.random.Generator, out: np.ndarray):
    """Label-preserving augmentation of ``frames`` written into ``out``:
    horizontal flip (p=0.5) plus a mild per-clip gain and per-channel shift,
    clipped back to [0, 1]. The draws do not depend on the pixels."""
    if rng.random() < 0.5:
        frames = frames[:, :, :, ::-1]
    gain = 1.0 + 0.2 * (rng.random() - 0.5)
    shift = (0.1 * (rng.random(3) - 0.5)).astype(frames.dtype)[None, :, None, None]
    np.multiply(frames, gain, out=out)
    out += shift
    np.clip(out, 0.0, 1.0, out=out)


# ---------------------------------------------------------------------------
# checkpointing

def save_checkpoint(path, params: dict, config_text: str = ""):
    """Write a parameter manifest (name<TAB>relpath), one VPT1 file per tensor,
    and an echo of the run config; an existing checkpoint at ``path`` is
    replaced whole, never mixed with the new one."""
    with vpt.replace_tree(path, "manifest.tsv") as root:
        (root / "tensors").mkdir()
        lines = []
        for name in sorted(params):
            rel = "tensors/" + name.replace(".", "_") + ".vpt"
            vpt.write_tensor(root / rel, params[name].data)
            lines.append(f"{name}\t{rel}")
        (root / "manifest.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        if config_text:
            (root / "config.cfg").write_text(config_text, encoding="utf-8")


def load_checkpoint(path, cfg: ModelConfig) -> dict:
    """Read a checkpoint back into trainable tensors and validate the full
    inventory (names and shapes) against ``cfg``."""
    root = Path(path)
    manifest = root / "manifest.tsv"
    if not manifest.is_file():
        raise FileNotFoundError(f"no checkpoint manifest at {manifest}")
    params = {}
    lines = manifest.read_text(encoding="utf-8").splitlines()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{manifest} line {line_no}"
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"{where}: expected name<TAB>path, got {line!r}")
        name, rel = fields
        if name in params:
            raise ValueError(f"{where}: duplicate tensor name {name!r}")
        params[name] = tt.param(vpt.read_member(root, rel, where))
    want = parameter_shapes(cfg)
    missing = sorted(set(want) - set(params))
    extra = sorted(set(params) - set(want))
    if missing or extra:
        raise ShapeError(
            f"checkpoint inventory mismatch: missing {missing}, unexpected {extra}")
    for name, shape in want.items():
        if params[name].shape != shape:
            raise ShapeError(
                f"checkpoint tensor {name} has shape {params[name].shape}, "
                f"config expects {shape}")
    return params
