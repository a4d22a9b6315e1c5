"""Deterministic synthetic spoof-video generator.

Every clip shares class-agnostic base content (face-like blob, smooth
background texture, per-frame translation jitter) drawn from a stream keyed by
(seed, split, index) only, so a bona fide clip and an attack clip with the
same index differ in nothing but the class cues:

* bona fide: a global intensity sinusoid over time (pulse-like temporal cue);
* attack: a static high-frequency grid (moire-like spatial cue) plus a
  constant intensity offset drawn from the same sinusoid family (zero
  temporal oscillation).

The constant offset makes single-frame marginals of the two classes
identical, so a one-frame model is chance-level on the temporal-cue-only
variant while a multi-frame model can read the frame-to-frame variation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import vpt
from .rng import stream

SPLITS = ("train", "dev", "test")
STORE_HEADER = ("clip_id", "path", "label", "split")

# class-agnostic content levels, identical for both classes by construction
_BASE_GRAY = 0.45
_BLOB_AMP = (0.30, 0.22, 0.18)
_TEXTURE_BASE_AMP = 0.04
_JITTER_STD = 0.8
_PULSE_FREQ = (0.5, 2.0)         # bona fide pulse cycles per clip


@dataclass(frozen=True)
class SynthSpec:
    train_clips: int = 400          # per class
    dev_clips: int = 50
    test_clips: int = 50
    height: int = 32
    width: int = 32
    source_frames: int = 8
    texture_amp: float = 0.10       # attack spatial cue
    pulse_amp: float = 0.15         # bona fide temporal cue
    noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for name in ("texture_amp", "pulse_amp", "noise_sigma"):
            if not getattr(self, name) >= 0:         # NaN fails too
                raise ValueError(f"{name} must be >= 0")
        for name in ("train_clips", "dev_clips", "test_clips",
                     "height", "width", "source_frames"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def clips_for(self, split: str) -> int:
        return {"train": self.train_clips, "dev": self.dev_clips,
                "test": self.test_clips}[split]


@dataclass
class ClipRecord:
    clip_id: str
    frames: np.ndarray              # [S, 3, H, W] float32 in [0, 1]
    label: int                      # 1 = bona fide
    split: str


def _open_grid(spec: SynthSpec):
    """Pixel row indices as an [H, 1] column and column indices as a [W] row."""
    return np.arange(spec.height, dtype=np.float64)[:, None], np.arange(spec.width, dtype=np.float64)


def _base_content(spec: SynthSpec, split: str, idx: int, grid) -> np.ndarray:
    """Class-shared canvas: blob + low-frequency texture + jitter trajectory."""
    rng = stream(spec.seed, "base", split, idx)
    s, h, w = spec.source_frames, spec.height, spec.width
    yy, xx = grid

    cy = h / 2 + rng.uniform(-2, 2)
    cx = w / 2 + rng.uniform(-2, 2)
    sigma = h / 5 + rng.uniform(-0.5, 0.5)
    jitter = rng.normal(scale=_JITTER_STD, size=(s, 2))

    fy = rng.uniform(0.5, 1.5, size=2)[:, None, None]
    fx = rng.uniform(0.5, 1.5, size=2)[:, None, None]
    ph = rng.uniform(0, 2 * np.pi, size=2)[:, None, None]
    texture = np.sin(2 * np.pi * (fy * yy / h + fx * xx / w) + ph).sum(axis=0)
    texture *= _TEXTURE_BASE_AMP / 2

    dy = yy - cy - jitter[:, 0, None, None]                     # [S, H, 1]
    dx = xx - cx - jitter[:, 1, None, None]                     # [S, 1, W]
    blob = np.exp(-(dy ** 2 + dx ** 2) / (2 * sigma * sigma))   # [S, H, W]
    clip = np.array(_BLOB_AMP)[:, None, None] * blob[:, None]
    clip += _BASE_GRAY
    clip += texture
    return clip


def _make_clip(spec: SynthSpec, split: str, idx: int, label: int, grid) -> np.ndarray:
    clip = _base_content(spec, split, idx, grid)
    s = spec.source_frames
    cue = stream(spec.seed, "cue", split, idx, label)

    if label == 1:
        freq = cue.uniform(*_PULSE_FREQ)
        phase = cue.uniform(0, 2 * np.pi)
        wave = spec.pulse_amp * np.sin(2 * np.pi * freq * np.arange(s) / s + phase)
        clip += wave[:, None, None, None]
    else:
        offset = spec.pulse_amp * np.sin(cue.uniform(0, 2 * np.pi))
        clip += offset
        if spec.texture_amp > 0:
            yy, xx = grid
            gy = cue.uniform(0, 2 * np.pi)
            gx = cue.uniform(0, 2 * np.pi)
            # ~2.5-pixel period, well above the base texture's frequency
            pattern = np.sin(0.8 * np.pi * yy + gy) * np.sin(0.8 * np.pi * xx + gx)
            clip += spec.texture_amp * pattern

    if spec.noise_sigma > 0:
        noise = stream(spec.seed, "noise", split, idx, label)
        clip += noise.normal(scale=spec.noise_sigma, size=clip.shape)
    return np.clip(clip, 0.0, 1.0, out=clip).astype(np.float32)


def generate_dataset(spec: SynthSpec) -> list:
    """All clips of all splits, a pure function of the generation settings."""
    grid = _open_grid(spec)
    records = []
    for split in SPLITS:
        for label, tag in ((0, "attack"), (1, "bona")):
            for idx in range(spec.clips_for(split)):
                records.append(ClipRecord(
                    clip_id=f"{split}_{tag}_{idx:04d}",
                    frames=_make_clip(spec, split, idx, label, grid),
                    label=label, split=split))
    return records


def split_records(records, split: str) -> list:
    out = [r for r in records if r.split == split]
    if not out:
        raise ValueError(f"store has no clips for split {split!r}")
    return out


# ---------------------------------------------------------------------------
# on-disk store: manifest CSV + one VPT1 tensor per clip

def write_store(path, records):
    """Write the store; an existing store at ``path`` is replaced whole."""
    with vpt.replace_tree(path, "manifest.csv") as root:
        (root / "clips").mkdir()
        with open(root / "manifest.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(STORE_HEADER)
            for r in records:
                rel = f"clips/{r.clip_id}.vpt"
                vpt.write_tensor(root / rel, r.frames)
                writer.writerow([r.clip_id, rel, r.label, r.split])


def load_store(path) -> list:
    root = Path(path)
    manifest = root / "manifest.csv"
    if not manifest.is_file():
        raise FileNotFoundError(f"no dataset manifest at {manifest}")
    records, seen = [], set()
    with open(manifest, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(STORE_HEADER):
            raise ValueError(f"{manifest} line 1: expected header "
                             f"{','.join(STORE_HEADER)}, got {header}")
        for row in reader:
            if not row:
                continue
            where = f"{manifest} line {reader.line_num}"
            if len(row) != len(STORE_HEADER):
                raise ValueError(f"{where}: expected {len(STORE_HEADER)} fields, got {row}")
            clip_id, rel, label, split = row
            if clip_id in seen:
                raise ValueError(f"{where}: duplicate clip_id {clip_id!r}")
            seen.add(clip_id)
            if label not in ("0", "1"):
                raise ValueError(f"{where}: label must be 0 or 1, got {label!r}")
            if split not in SPLITS:
                raise ValueError(f"{where}: split must be one of {', '.join(SPLITS)}, "
                                 f"got {split!r}")
            frames = vpt.read_member(root, rel, where)
            if frames.ndim != 4 or frames.shape[1] != 3:
                raise ValueError(f"{where}: clip must be [frames, 3, H, W], got {frames.shape}")
            records.append(ClipRecord(clip_id=clip_id, frames=frames,
                                      label=int(label), split=split))
    return records
