"""Tests for the analytic FLOP and parameter counter."""

import numpy as np
import pytest

from padformer.costs import CostReport, count_cost
from padformer.model import ModelConfig, init_params


def cfg_with(**kw):
    base = dict(frames=2, height=16, width=16, embed_stride=8,
                embed_channels=6, scales=(1, 2), depth=1)
    base.update(kw)
    return ModelConfig(**base)


def attention_flops(report):
    return sum(e.flops for e in report.entries if e.name.endswith(".attention"))


def test_attention_flops_quadruple_when_frames_double():
    # single-scale attention is quadratic in token count N = frames, so
    # doubling the clip length must multiply that entry by exactly 4
    for t in (1, 2, 4):
        short = count_cost(cfg_with(frames=t, scales=(1,)))
        long = count_cost(cfg_with(frames=2 * t, scales=(1,)))
        assert attention_flops(long) == 4 * attention_flops(short)
        assert attention_flops(short) > 0


def test_attention_entry_matches_per_head_formula():
    cfg = cfg_with(frames=2, embed_channels=6, scales=(1, 2))
    report = count_cost(cfg)
    att = [e for e in report.entries if e.name == "layers.0.attention"][0]
    want = 0
    for scale in cfg.scales:
        n = cfg.frames * scale * scale
        d = (cfg.embed_channels // len(cfg.scales)) \
            * (cfg.map_h // scale) * (cfg.map_w // scale)
        want += 4 * n * n * d + n * n
    assert att.flops == want and att.params == 0


def test_embed_entry_matches_conv_formula():
    cfg = cfg_with(frames=3, height=32, width=16, embed_stride=8,
                   embed_channels=5, scales=(1,), depth=0)
    report = count_cost(cfg)
    embed = report.entries[0]
    assert embed.name == "embed"
    assert embed.flops == 2 * 5 * 3 * 8 * 8 * 4 * 2 * 3
    assert embed.params == 5 * 3 * 8 * 8 + 5


@pytest.mark.parametrize("cfg", [
    cfg_with(),
    cfg_with(frames=3, height=32, width=16, embed_stride=4, embed_channels=8, depth=2),
], ids=["micro", "stride4-depth2"])
def test_layer_pool_and_head_entries_match_their_formulas(cfg):
    # the hand formulas for C channels over P = T * map_h * map_w positions:
    # 3x3 convs with 3C outputs, two 1x1 convs through 4C with one GELU pass
    # over the hidden, a mean pool and a C -> 2 linear head
    c, p = cfg.embed_channels, cfg.frames * cfg.map_h * cfg.map_w
    want = {}
    for i in range(cfg.depth):
        want.update({
            f"layers.{i}.qkv": (2 * 3 * c * c * 9 * p, 27 * c * c + 3 * c),
            f"layers.{i}.residual": (2 * c * p, 0),
            f"layers.{i}.norm": (2 * c * p, 2 * c),
            f"layers.{i}.ffn": (16 * c * c * p + 4 * c * p, 8 * c * c + 5 * c),
        })
    want["pool"] = (c * p + c, 0)
    want["head"] = (4 * c + 2, 2 * c + 2)
    got = {e.name: (e.flops, e.params) for e in count_cost(cfg).entries}
    assert {name: got[name] for name in want} == want


def test_total_params_equals_initialized_parameter_count():
    for cfg in (cfg_with(), cfg_with(depth=2, embed_channels=12, scales=(1, 2, 4),
                                     height=32, width=32)):
        params = init_params(cfg)
        live = sum(int(np.prod(p.data.shape)) for p in params.values())
        assert count_cost(cfg).total_params == live


def test_zero_depth_report_has_only_embed_pool_head():
    report = count_cost(cfg_with(depth=0))
    assert [e.name for e in report.entries] == ["embed", "pool", "head"]
    assert attention_flops(report) == 0


def test_totals_are_entry_sums_and_integers():
    report = count_cost(cfg_with(depth=2))
    assert report.total_flops == sum(e.flops for e in report.entries)
    assert report.total_params == sum(e.params for e in report.entries)
    for e in report.entries:
        assert isinstance(e.flops, int) and isinstance(e.params, int)
        assert e.flops >= 0 and e.params >= 0


def test_lines_include_every_entry_and_total():
    report = count_cost(cfg_with())
    text = "\n".join(report.lines())
    for e in report.entries:
        assert e.name in text
    assert "total" in text and str(report.total_flops) in text


def test_write_csv_layout(tmp_path):
    report = count_cost(cfg_with())
    out = tmp_path / "cost.csv"
    report.write_csv(out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# flops = 2 * multiply-accumulates")
    assert lines[1] == "component,flops,params"
    assert lines[2].startswith("embed,")
    assert lines[-1] == f"total,{report.total_flops},{report.total_params}"
    assert len(lines) == 2 + len(report.entries) + 1


def test_report_is_plain_data():
    report = count_cost(cfg_with())
    clone = CostReport(entries=report.entries)
    assert clone.total_flops == report.total_flops
