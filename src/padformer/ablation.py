"""Grid experiments over attention scale subsets and clip length.

Each grid cell is a full train/evaluate run. Within one seed replicate, every
cell shares the same dataset and differs in exactly one factor; reported ACER
is the mean over seed replicates.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .harness import evaluate, train_model
from .synth import generate_dataset, split_records

SCALE_SUBSETS = ((1,), (2,), (4,), (1, 2), (1, 4), (2, 4), (1, 2, 4))


def scales_label(subset) -> str:
    return "+".join(str(s) for s in subset)


def _cell_acer(cfg: RunConfig, records) -> float:
    result = train_model(cfg, split_records(records, "train"))
    return evaluate(result.params, result.model_config, records, cfg).acer


def _run_grid(cfg: RunConfig, cells, n_seeds: int):
    """cells: (label, config-field overrides) pairs; returns
    (label, mean_acer, per_seed_acers) rows in grid order."""
    if n_seeds < 1:
        raise ValueError(f"need at least one seed per cell, got {n_seeds}")
    seeds = range(cfg.seed, cfg.seed + n_seeds)
    # every cell's config is built, and so checked, before the first one trains
    grid = [(label, [replace(cfg, seed=seed, **overrides) for seed in seeds])
            for label, overrides in cells]
    datasets = {}
    rows = []
    for label, cell_cfgs in grid:
        acers = []
        for cell_cfg in cell_cfgs:
            seed = cell_cfg.seed
            if seed not in datasets:
                datasets[seed] = generate_dataset(
                    replace(cfg, seed=seed).synth_spec())
            acers.append(_cell_acer(cell_cfg, datasets[seed]))
        rows.append((label, float(np.mean(acers)), acers))
    return rows


def ablation_scales(cfg: RunConfig, n_seeds: int):
    """One row per attention scale subset in ``SCALE_SUBSETS``."""
    cells = [(scales_label(sub), {"scales": sub}) for sub in SCALE_SUBSETS]
    return _run_grid(cfg, cells, n_seeds)


def ablation_clip_length(cfg: RunConfig, grid, n_seeds: int):
    """One row per clip length T; the dataset and everything else is shared."""
    cells = [(f"T{int(t)}", {"frames": int(t)}) for t in grid]
    return _run_grid(cfg, cells, n_seeds)


def write_ablation_csv(path, rows, n_seeds: int):
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell", "mean_acer"] + [f"acer_seed{k}" for k in range(n_seeds)])
        for label, mean_acer, acers in rows:
            writer.writerow([label, f"{mean_acer:.4f}"] + [f"{a:.4f}" for a in acers])
