"""Tests of the benchmark itself; none of them asserts a timing.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.add_sources()

import padformer.model as model  # noqa: E402
from padformer.costs import count_cost  # noqa: E402
from tracer import Tracer, component_names  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("depth", [1, 2])
def test_component_names_are_count_cost_names_without_inline_entries(depth):
    cfg = model.ModelConfig(frames=2, height=16, width=16, embed_stride=8,
                            embed_channels=6, scales=(1, 2), depth=depth)
    want = [e.name for e in count_cost(cfg).entries
            if e.name.rsplit(".", 1)[-1] not in ("residual", "pool", "head")]
    assert component_names(depth) == want

    params = model.init_params(cfg)
    clip = np.random.default_rng(0).random((2, 3, 16, 16), dtype=np.float32)
    original = model.forward
    tracer = Tracer()
    tracer.install_model()
    try:
        model.forward(clip, params, cfg)
    finally:
        tracer.restore()
    assert model.forward is original
    assert [s[0] for s in tracer.spans if s[0] != "model.forward"] == want
    forward = next(i for i, s in enumerate(tracer.spans) if s[0] == "model.forward")
    assert all(s[3] == forward and s[1] <= s[2] for s in tracer.spans[forward + 1:])


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int, attempt: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_metric_with_its_unit(workload, trace, group):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_counts_repeat_with_one_seed(workload):
    first, second = smoke(workload, 1, 0), smoke(workload, 1, 1)
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "B")]
    assert "model.forwards_per_step" in counts and "vpt.bytes_per_clip" in counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
        assert first["metrics"][name]["value"] > 0, name


def test_without_the_program_sources_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
