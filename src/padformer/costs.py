"""Analytic per-clip FLOP and parameter accounting.

Conventions (also stated in the CSV header): one multiply-accumulate counts
as 2 FLOPs; convolution cost is 2*Cout*Cin*kh*kw*Hout*Wout per frame with
bias folded in; attention per head is 2*N^2*D for the score products, N^2 for
the softmax pass, and 2*N^2*D for the value aggregation; element-wise
activation passes cost 1 FLOP per element; normalization is charged its
affine cost (2 per element). All counts are exact integers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .model import FFN_RATIO, NUM_CLASSES, ModelConfig

FLOP_CONVENTION = "flops = 2 * multiply-accumulates; activations 1/element"


@dataclass(frozen=True)
class CostEntry:
    name: str
    flops: int
    params: int


@dataclass(frozen=True)
class CostReport:
    entries: tuple

    @property
    def total_flops(self) -> int:
        return sum(e.flops for e in self.entries)

    @property
    def total_params(self) -> int:
        return sum(e.params for e in self.entries)

    def lines(self):
        width = max(len(e.name) for e in self.entries) + 2
        out = [f"{'component':<{width}}{'flops':>14}  {'params':>10}"]
        for e in self.entries:
            out.append(f"{e.name:<{width}}{e.flops:>14}  {e.params:>10}")
        out.append(f"{'total':<{width}}{self.total_flops:>14}  {self.total_params:>10}")
        return out

    def write_csv(self, path):
        with open(Path(path), "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# {FLOP_CONVENTION}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["component", "flops", "params"])
            for e in self.entries:
                writer.writerow([e.name, e.flops, e.params])
            writer.writerow(["total", self.total_flops, self.total_params])


def _conv_cost(cout, cin, kh, kw, out_h, out_w, frames):
    return 2 * cout * cin * kh * kw * out_h * out_w * frames


def count_cost(cfg: ModelConfig) -> CostReport:
    """Per-clip cost of one forward pass under the declared config."""
    t, c, k = cfg.frames, cfg.embed_channels, NUM_CLASSES
    mh, mw = cfg.map_h, cfg.map_w
    hid = FFN_RATIO * c
    elems = t * c * mh * mw
    s = cfg.embed_stride
    heads = len(cfg.scales)

    entries = [CostEntry("embed", _conv_cost(c, 3, s, s, mh, mw, t),
                         c * 3 * s * s + c)]
    for i in range(cfg.depth):
        entries.append(CostEntry(
            f"layers.{i}.qkv", 3 * _conv_cost(c, c, 3, 3, mh, mw, t),
            3 * (c * c * 3 * 3 + c)))
        att = 0
        for l in cfg.scales:
            n = t * l * l
            d = (c // heads) * (mh // l) * (mw // l)
            att += 4 * n * n * d + n * n
        entries.append(CostEntry(f"layers.{i}.attention", att, 0))
        entries.append(CostEntry(f"layers.{i}.residual", 2 * elems, 0))
        entries.append(CostEntry(f"layers.{i}.norm", 2 * elems, 2 * c))
        entries.append(CostEntry(
            f"layers.{i}.ffn",
            _conv_cost(hid, c, 1, 1, mh, mw, t) + hid * mh * mw * t
            + _conv_cost(c, hid, 1, 1, mh, mw, t),
            hid * c + hid + c * hid + c))
    entries.append(CostEntry("pool", elems + c, 0))
    entries.append(CostEntry("head", 2 * c * k + k, c * k + k))
    return CostReport(entries=tuple(entries))
