"""Tests for the key=value run-configuration format."""

import dataclasses
import re
from pathlib import Path

import pytest

from padformer.config import (
    ConfigError,
    RunConfig,
    dump_config,
    load_config,
    parse_config,
)
from padformer.model import ModelConfig
from padformer.synth import SynthSpec

DEFAULT_DUMP = """\
frames=8
height=32
width=32
embed_stride=8
embed_channels=12
scales=1,2
depth=2
train_clips=400
dev_clips=50
test_clips=50
source_frames=8
texture_amp=0.1
pulse_amp=0.15
noise_sigma=0.02
lr=0.001
steps=2000
batch_size=16
warmup_frac=0.05
sample_mode=uniform
augment=true
data_dir=
out_dir=runs/default
seed=0
"""


def test_empty_text_gives_defaults():
    assert parse_config("") == RunConfig()


def test_round_trip_default_and_modified():
    for cfg in (RunConfig(),
                RunConfig(frames=4, scales=(1, 2, 4), lr=3e-4, augment=False,
                          sample_mode="random-interval", data_dir="d",
                          texture_amp=0.07)):
        assert parse_config(dump_config(cfg)) == cfg


def test_default_dump_text_is_pinned():
    assert dump_config(RunConfig()) == DEFAULT_DUMP


def test_model_and_data_defaults_match_run_defaults():
    run = RunConfig()
    for cls in (ModelConfig, SynthSpec):
        for f in dataclasses.fields(cls):
            if hasattr(run, f.name):
                assert getattr(run, f.name) == f.default, (cls.__name__, f.name)


def test_dump_covers_every_key_once():
    lines = dump_config(RunConfig()).splitlines()
    keys = [line.split("=", 1)[0] for line in lines]
    assert len(keys) == len(set(keys))
    assert "frames" in keys and "seed" in keys and "scales" in keys


def test_comments_blanks_and_spacing():
    cfg = parse_config("""
# training length
steps = 12

  batch_size=4
""")
    assert cfg.steps == 12 and cfg.batch_size == 4


def test_typed_values():
    cfg = parse_config("scales=1, 2,4\naugment=false\nlr=2e-3\nout_dir=runs/x\n")
    assert cfg.scales == (1, 2, 4)
    assert cfg.augment is False
    assert cfg.lr == 2e-3
    assert cfg.out_dir == "runs/x"


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'leraning_rate'"):
        parse_config("steps=5\nleraning_rate=0.1\n")


def test_duplicate_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 3: duplicate key 'steps'"):
        parse_config("steps=5\n# again\nsteps=6\n")


def test_invalid_values_report_line_numbers():
    with pytest.raises(ConfigError, match=r"line 1: invalid int"):
        parse_config("steps=many\n")
    with pytest.raises(ConfigError, match=r"line 1: invalid float"):
        parse_config("lr=fast\n")
    with pytest.raises(ConfigError, match=r"line 1: invalid bool"):
        parse_config("augment=yes\n")
    with pytest.raises(ConfigError, match=r"line 1: invalid int list"):
        parse_config("scales=1,two\n")
    with pytest.raises(ConfigError, match=r"line 1: 'scales' needs at least"):
        parse_config("scales=\n")
    with pytest.raises(ConfigError, match=r"line 1: expected key=value"):
        parse_config("just words\n")


def test_overrides_win_over_file_values():
    cfg = parse_config("steps=5\nseed=1\n", overrides={"steps": 9})
    assert cfg.steps == 9 and cfg.seed == 1


def test_validation_errors():
    with pytest.raises(ConfigError, match="sample_mode"):
        RunConfig(sample_mode="stochastic")
    with pytest.raises(ConfigError, match="batch_size"):
        RunConfig(batch_size=0)
    with pytest.raises(ConfigError, match="warmup_frac"):
        RunConfig(warmup_frac=1.5)
    with pytest.raises(ConfigError, match="source_frames"):
        RunConfig(frames=8, source_frames=4)
    with pytest.raises(ConfigError, match="noise_sigma must be >= 0"):
        RunConfig(noise_sigma=float("nan"))


@pytest.mark.parametrize("key", ["noise_sigma", "pulse_amp", "lr", "warmup_frac"])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_floats_report_line_numbers(key, text):
    # a NaN fails every ordered comparison, so a range check alone lets it through
    with pytest.raises(ConfigError,
                       match=rf"line 2: non-finite float for '{key}': '{text}'"):
        parse_config(f"steps=3\n{key}={text}\n")


@pytest.mark.parametrize("text", ["nan", "inf"])
def test_non_finite_model_key_is_an_invalid_int(text):
    # every model key is an int or an int list
    with pytest.raises(ConfigError, match=rf"line 1: invalid int for 'frames': '{text}'"):
        parse_config(f"frames={text}\n")


def test_optimizer_keys_are_checked_before_training():
    for value in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="lr must be finite and > 0"):
            RunConfig(lr=value)
    assert parse_config("lr=1e30\n").lr == 1e30


def test_invalid_model_or_data_keys_fail_at_parse():
    with pytest.raises(ConfigError, match="not divisible by stride 8"):
        parse_config("height=30\n")
    with pytest.raises(ConfigError, match="channels not divisible"):
        parse_config("embed_channels=7\n")
    with pytest.raises(ConfigError, match="noise_sigma"):
        parse_config("noise_sigma=-1\n")


@pytest.mark.parametrize("key, value", [("embed_stride", 0), ("embed_stride", -8),
                                        ("embed_channels", 0), ("embed_channels", -12)])
def test_stride_and_channel_count_below_one_fail_at_construction(key, value):
    # checked before the stride divides the frame extent; a negative count
    # would give negative costs
    with pytest.raises(ConfigError, match=rf"^{key} must be >= 1, got {value}$"):
        RunConfig(**{key: value})


def test_model_config_and_synth_spec_share_seed_and_geometry():
    cfg = parse_config("seed=11\nheight=16\nwidth=16\nframes=2\n"
                       "embed_channels=6\nscales=1,2\nsource_frames=4\n")
    mcfg = cfg.model_config()
    spec = cfg.synth_spec()
    assert mcfg.seed == spec.seed == 11
    assert (mcfg.height, mcfg.width) == (spec.height, spec.width) == (16, 16)
    assert mcfg.frames == 2 and spec.source_frames == 4
    assert mcfg.scales == (1, 2)


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps=3\nseed=4\n", encoding="utf-8")
    cfg = load_config(path, overrides={"seed": 5})
    assert cfg.steps == 3 and cfg.seed == 5


# ---------------------------------------------------------------------------
# the shipped experiment configs and the README that names them

REPO = Path(__file__).resolve().parent.parent


def test_every_shipped_config_parses():
    paths = sorted((REPO / "configs").glob("*.cfg"))
    assert paths
    for path in paths:
        load_config(path)


def test_readme_and_configs_dir_name_the_same_files():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"configs/([\w.-]*\w)", readme))
    shipped = {p.name for p in (REPO / "configs").iterdir()}
    assert named - shipped == set(), "README names configs that do not exist"
    assert shipped - named == set(), "configs/ holds files the README does not name"


def test_readme_key_table_names_every_run_key():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
    first_cells = re.findall(r"^\| (.*?) \|", section, flags=re.M)
    named = {k for cell in first_cells for k in re.findall(r"`(\w+)`", cell)}
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    assert named - keys == set(), "README's key table names keys RunConfig lacks"
    assert keys - named == set(), "RunConfig has keys README's key table lacks"
