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
import math
from dataclasses import dataclass
from pathlib import Path

from .model import ModelConfig, parameter_shapes

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


def count_cost(cfg: ModelConfig) -> CostReport:
    """Per-clip cost of one forward pass under the declared config; parameter
    counts and the weight-GEMM FLOPs are read from ``parameter_shapes``."""
    size = {name: math.prod(shape) for name, shape in parameter_shapes(cfg).items()}
    t, c, heads = cfg.frames, cfg.embed_channels, len(cfg.scales)
    pos = t * cfg.map_h * cfg.map_w                 # token positions per clip
    elems = pos * c

    def params(*prefixes):
        return sum(n for name, n in size.items() if name.startswith(prefixes))

    def gemm(*weights):                             # 2 FLOPs per weight per position
        return 2 * pos * sum(size[w] for w in weights)

    entries = [CostEntry("embed", gemm("embed.weight"), params("embed."))]
    for i in range(cfg.depth):
        p = f"layers.{i}."
        att = 0
        for l in cfg.scales:
            n = t * l * l
            d = (c // heads) * (cfg.map_h // l) * (cfg.map_w // l)
            att += 4 * n * n * d + n * n
        entries += [
            CostEntry(p + "qkv", gemm(p + "qkv.weight"), params(p + "qkv.")),
            CostEntry(p + "attention", att, 0),
            CostEntry(p + "residual", 2 * elems, 0),
            CostEntry(p + "norm", 2 * elems, params(p + "norm.")),
            CostEntry(p + "ffn", gemm(p + "ffn1.weight", p + "ffn2.weight")
                      + pos * size[p + "ffn1.bias"], params(p + "ffn1.", p + "ffn2."))]
    entries.append(CostEntry("pool", elems + c, 0))
    entries.append(CostEntry("head", 2 * size["head.weight"] + size["head.bias"],
                             params("head.")))
    return CostReport(entries=tuple(entries))
