"""Grid experiments: every cell is checked before any cell trains."""

import pytest

from padformer import ablation
from padformer.ablation import ablation_clip_length, ablation_scales
from padformer.config import ConfigError, RunConfig


@pytest.fixture
def no_runs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran before the grid was checked")

    monkeypatch.setattr(ablation, "train_model", refuse)
    monkeypatch.setattr(ablation, "generate_dataset", refuse)


def test_a_bad_clip_length_late_in_the_grid_fails_before_training(no_runs):
    cfg = RunConfig(frames=2, height=16, width=16, source_frames=4)
    with pytest.raises(ConfigError, match="need at least one frame, got 0"):
        ablation_clip_length(cfg, grid=(2, 0), n_seeds=1)


def test_a_scale_that_does_not_fit_the_map_fails_before_training(no_runs):
    cfg = RunConfig(height=16, width=16, embed_stride=8)
    with pytest.raises(ConfigError, match="scale 4 does not divide map extent 2x2"):
        ablation_scales(cfg, n_seeds=1)
