"""End-to-end tests for the command-line interface.

All commands run in-process through ``main(argv)`` so exit codes, stdout, and
the single-line ``error:`` stderr contract are asserted directly.
"""

import re

import numpy as np
import pytest

from padformer import vpt
from padformer.cli import main, write_pgm
from padformer.config import RunConfig, dump_config, load_config, parse_config
from padformer.model import init_params, load_checkpoint, save_checkpoint
from padformer.synth import load_store, write_store

from test_model import six_tensor_format

MICRO = """
frames=2
height=16
width=16
embed_stride=8
embed_channels=6
scales=1,2
depth=1
train_clips=3
dev_clips=2
test_clips=2
source_frames=4
steps=4
batch_size=2
lr=0.001
seed=0
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generated store plus one trained micro checkpoint, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data, run = root / "data", root / "run"
    cfg = root / "run.cfg"
    cfg.write_text(MICRO + f"data_dir={data}\nout_dir={run}\n", encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    return {"root": root, "cfg": cfg, "data": data, "run": run,
            "checkpoint": run / "checkpoint"}


# ---------------------------------------------------------------------------
# happy paths

def test_gen_data_writes_store(pipeline):
    records = load_store(pipeline["data"])
    assert len(records) == 2 * (3 + 2 + 2)
    assert (pipeline["data"] / "manifest.csv").is_file()


def test_train_writes_log_and_checkpoint(pipeline):
    log = (pipeline["run"] / "train_log.csv").read_text(encoding="utf-8")
    lines = log.splitlines()
    assert lines[0] == "step,loss,lr"
    assert len(lines) == 1 + 4
    assert (pipeline["checkpoint"] / "manifest.tsv").is_file()
    assert (pipeline["checkpoint"] / "config.cfg").is_file()


def test_train_log_byte_identical_for_same_seed(pipeline, tmp_path):
    assert main(["train", "--config", str(pipeline["cfg"]),
                 "--out", str(tmp_path / "rerun")]) == 0
    a = (pipeline["run"] / "train_log.csv").read_bytes()
    b = (tmp_path / "rerun" / "train_log.csv").read_bytes()
    assert a == b


def test_eval_writes_report(pipeline, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["eval", "--checkpoint", str(pipeline["checkpoint"]),
                 "--data", str(pipeline["data"]), "--out", str(out),
                 "--run-id", "micro"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "run_id,threshold,apcer,bpcer,acer,hter"
    assert lines[1].startswith("micro,")
    assert "micro: threshold=" in capsys.readouterr().out


def test_eval_default_report_location(pipeline):
    assert main(["eval", "--checkpoint", str(pipeline["checkpoint"]),
                 "--data", str(pipeline["data"])]) == 0
    assert (pipeline["checkpoint"] / "report.csv").is_file()


def test_export_attention_files(pipeline, tmp_path):
    out = tmp_path / "maps"
    assert main(["export-attention", "--checkpoint", str(pipeline["checkpoint"]),
                 "--data", str(pipeline["data"]), "--head", "1",
                 "--out", str(out)]) == 0
    pgms = sorted(p.name for p in out.glob("*.pgm"))
    vpts = sorted(p.name for p in out.glob("*.vpt"))
    assert pgms == ["attn_L0_H1_F0.pgm", "attn_L0_H1_F1.pgm"]
    assert vpts == ["attn_L0_H1_F0.vpt", "attn_L0_H1_F1.vpt"]

    raw = (out / "attn_L0_H1_F0.pgm").read_bytes()
    assert raw.startswith(b"P5\n16 16\n255\n")
    assert len(raw) == len(b"P5\n16 16\n255\n") + 16 * 16

    heat = vpt.read_tensor(out / "attn_L0_H1_F0.vpt")
    assert heat.shape == (2, 2)        # map resolution, upsampled only for PGM

    # each PGM is its map with every cell painted over its stride x stride pixels
    stride = 8                         # MICRO's embed_stride
    for name in vpts:
        heat = vpt.read_tensor(out / name)
        write_pgm(tmp_path / "want.pgm", np.kron(heat, np.ones((stride, stride), heat.dtype)))
        assert (out / name).with_suffix(".pgm").read_bytes() == \
            (tmp_path / "want.pgm").read_bytes()


def test_untrained_attention_is_near_uniform(pipeline, tmp_path):
    # fresh init puts the score products near zero, so every token should
    # receive close to 1/N attention mass
    run0 = tmp_path / "run0"
    assert main(["train", "--config", str(pipeline["cfg"]), "--steps", "0",
                 "--out", str(run0)]) == 0
    log = (run0 / "train_log.csv").read_text(encoding="utf-8")
    assert log == "step,loss,lr\n"

    out = tmp_path / "maps0"
    assert main(["export-attention", "--checkpoint", str(run0 / "checkpoint"),
                 "--data", str(pipeline["data"]), "--head", "1",
                 "--out", str(out)]) == 0
    heat = vpt.read_tensor(out / "attn_L0_H1_F0.vpt")
    assert float(heat.min()) > 0
    assert float(heat.max()) < 2 * float(heat.min())


def test_count_cost_prints_and_writes(pipeline, tmp_path, capsys):
    out = tmp_path / "cost.csv"
    assert main(["count-cost", "--config", str(pipeline["cfg"]),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "# 2 frames of 16x16" in stdout
    assert "total" in stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "component,flops,params"


def test_ablate_clip_length_is_reproducible(pipeline, tmp_path, capsys):
    args = ["ablate", "--axis", "clip-length", "--config", str(pipeline["cfg"]),
            "--grid", "1,2", "--seeds", "1"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "ablation_clip-length.csv").read_bytes()
    b = (tmp_path / "b" / "ablation_clip-length.csv").read_bytes()
    assert a == b
    lines = a.decode("utf-8").splitlines()
    assert lines[0] == "cell,mean_acer,acer_seed0"
    assert [row.split(",")[0] for row in lines[1:]] == ["T1", "T2"]
    assert "wrote" in capsys.readouterr().out


def test_ablate_scales_covers_all_subsets(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frames=2\nheight=32\nwidth=32\nembed_stride=8\n"
                   "embed_channels=6\nscales=1,2\ndepth=1\n"
                   "train_clips=2\ndev_clips=1\ntest_clips=1\nsource_frames=4\n"
                   "steps=2\nbatch_size=2\nseed=0\n"
                   f"data_dir={tmp_path / 'data'}\nout_dir={tmp_path / 'run'}\n",
                   encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg)]) == 0
    assert main(["ablate", "--axis", "scales", "--config", str(cfg),
                 "--seeds", "1", "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "ablation_scales.csv") \
        .read_text(encoding="utf-8").splitlines()
    assert lines[0] == "cell,mean_acer,acer_seed0"
    assert [row.split(",")[0] for row in lines[1:]] == \
        ["1", "2", "4", "1+2", "1+4", "2+4", "1+2+4"]


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok - attention-row-stochasticity",
        "ok - patch-count-grid",
        "ok - partition-round-trip",
        "ok - frame-permutation-invariance",
        "ok - metric-recount",
        "ok - training-determinism",
        "ok - checkpoint-round-trip",
        "ok - config-round-trip",
    ]


def test_dump_config_defaults(capsys):
    assert main(["--dump-config"]) == 0
    text = capsys.readouterr().out
    assert parse_config(text) == RunConfig()
    assert text == dump_config(RunConfig())


def test_dump_config_echoes_file(pipeline, capsys):
    assert main(["--config", str(pipeline["cfg"]), "--dump-config"]) == 0
    text = capsys.readouterr().out
    assert parse_config(text).frames == 2
    assert parse_config(text).scales == (1, 2)


def test_dump_config_before_a_verb_echoes_file(pipeline, capsys):
    assert main(["--config", str(pipeline["cfg"]), "--dump-config", "train"]) == 0
    assert capsys.readouterr().out == dump_config(load_config(pipeline["cfg"]))


def test_dump_config_applies_the_verb_overrides(pipeline, capsys):
    assert main(["--config", str(pipeline["cfg"]), "--dump-config",
                 "train", "--steps", "5", "--seed", "7"]) == 0
    cfg = parse_config(capsys.readouterr().out)
    assert (cfg.steps, cfg.seed) == (5, 7)
    assert cfg == load_config(pipeline["cfg"], {"steps": 5, "seed": 7})


@pytest.mark.parametrize("before", [True, False], ids=["before-verb", "after-verb"])
def test_config_applies_before_or_after_the_verb(pipeline, tmp_path, capsys, before):
    config = ["--config", str(pipeline["cfg"])]
    verb = ["count-cost"]
    assert main(config + verb if before else verb + config) == 0
    assert "# 2 frames of 16x16" in capsys.readouterr().out
    verb = ["train", "--out", str(tmp_path / "run")]
    assert main(config + verb if before else verb + config) == 0
    assert (tmp_path / "run" / "train_log.csv").read_bytes() == \
        (pipeline["run"] / "train_log.csv").read_bytes()


# ---------------------------------------------------------------------------
# error contract: exit code 2, single "error:" line on stderr

def expect_error(argv, fragment, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert fragment in err
    assert err.strip().count("\n") == 0


def test_missing_data_dir_names_the_key(capsys):
    expect_error(["train"], "config key 'data_dir' is required", capsys)
    expect_error(["gen-data"], "config key 'data_dir' is required", capsys)


def test_non_finite_loss_stops_training_without_artifacts(pipeline, tmp_path, capsys):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text(MICRO.replace("lr=0.001", "lr=1e30"), encoding="utf-8")
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        expect_error(["train", "--config", str(cfg), "--data", str(pipeline["data"]),
                      "--out", str(out)], "non-finite loss at step 1", capsys)
    assert not (out / "train_log.csv").exists()
    assert not (out / "checkpoint").exists()


def test_non_finite_gradient_stops_training_without_artifacts(pipeline, tmp_path, capsys,
                                                             nan_ffn_backward):
    out = tmp_path / "run"
    expect_error(["train", "--config", str(pipeline["cfg"]), "--out", str(out)],
                 "non-finite gradient at step 0", capsys)
    assert not (out / "train_log.csv").exists()
    assert not (out / "checkpoint").exists()


def test_refused_checkpoint_write_keeps_the_old_train_log(pipeline, tmp_path, capsys):
    out = tmp_path / "run"
    (out / "checkpoint").mkdir(parents=True)
    (out / "checkpoint" / "notes.txt").write_text("keep\n", encoding="utf-8")
    (out / "train_log.csv").write_text("old log\n", encoding="utf-8")
    expect_error(["train", "--config", str(pipeline["cfg"]), "--out", str(out)],
                 "holds no manifest.tsv; not replacing it", capsys)
    assert (out / "train_log.csv").read_text(encoding="utf-8") == "old log\n"


def test_train_rejects_beta1_of_one_before_any_step(pipeline, tmp_path, capsys):
    cfg = tmp_path / "beta.cfg"
    cfg.write_text(MICRO + "beta1=1.0\n", encoding="utf-8")
    line = MICRO.count("\n") + 1
    out = tmp_path / "run"
    expect_error(["train", "--config", str(cfg), "--data", str(pipeline["data"]),
                  "--out", str(out)], f"error: line {line}: unknown key 'beta1'", capsys)
    assert not out.exists()


def test_eval_refuses_a_six_tensor_checkpoint(pipeline, tmp_path, capsys):
    old = tmp_path / "checkpoint"
    echo = (pipeline["checkpoint"] / "config.cfg").read_text(encoding="utf-8")
    params = load_checkpoint(pipeline["checkpoint"], parse_config(echo).model_config())
    save_checkpoint(old, six_tensor_format(params), echo)
    expect_error(["eval", "--checkpoint", str(old), "--out", str(tmp_path / "report.csv")],
                 "checkpoint inventory mismatch: missing ['layers.0.qkv.bias'", capsys)
    assert not (tmp_path / "report.csv").exists()


def test_bad_config_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("steps=5\nlr=fast\n", encoding="utf-8")
    expect_error(["count-cost", "--config", str(bad)],
                 "line 2: invalid float for 'lr'", capsys)


def test_count_cost_rejects_a_zero_stride(tmp_path, capsys):
    # checked before the divisibility checks, which would divide by the stride
    bad = tmp_path / "bad.cfg"
    bad.write_text("embed_stride=0\n", encoding="utf-8")
    expect_error(["count-cost", "--config", str(bad)],
                 "embed_stride must be >= 1, got 0", capsys)


def test_eval_rejects_a_top_level_config(pipeline, tmp_path, capsys):
    out = tmp_path / "report.csv"
    expect_error(["--config", str(pipeline["cfg"]), "eval",
                  "--checkpoint", str(pipeline["checkpoint"]), "--out", str(out)],
                 "eval reads its config from the checkpoint; --config is not accepted",
                 capsys)
    assert not out.exists()


def test_export_attention_rejects_a_top_level_config(pipeline, tmp_path, capsys):
    out = tmp_path / "maps"
    expect_error(["--config", str(pipeline["cfg"]), "export-attention",
                  "--checkpoint", str(pipeline["checkpoint"]), "--out", str(out)],
                 "export-attention reads its config from the checkpoint", capsys)
    assert not out.exists()


def test_selftest_rejects_a_top_level_config(tmp_path, capsys):
    expect_error(["--config", str(tmp_path / "missing.cfg"), "selftest"],
                 "selftest takes no config; --config is not accepted", capsys)


def test_unknown_ablation_axis(pipeline, capsys):
    expect_error(["ablate", "--axis", "width", "--config", str(pipeline["cfg"])],
                 "unknown ablation axis 'width'", capsys)


@pytest.mark.parametrize("axis,seeds", [("scales", "0"), ("clip-length", "-1")])
def test_ablate_needs_at_least_one_seed(pipeline, tmp_path, capsys, axis, seeds):
    out = tmp_path / "out"
    expect_error(["ablate", "--axis", axis, "--config", str(pipeline["cfg"]),
                  "--seeds", seeds, "--out", str(out)],
                 f"need at least one seed per cell, got {seeds}", capsys)
    assert not out.exists()


def test_ablate_rejects_a_bad_grid_value(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    expect_error(["ablate", "--axis", "clip-length", "--config", str(pipeline["cfg"]),
                  "--grid", "1,x", "--out", str(out)],
                 "--grid needs comma-separated clip lengths, got '1,x'", capsys)
    assert not out.exists()


def test_ablate_scales_rejects_a_grid(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    expect_error(["ablate", "--axis", "scales", "--config", str(pipeline["cfg"]),
                  "--grid", "banana", "--seeds", "1", "--out", str(out)],
                 "--grid applies only to --axis clip-length", capsys)
    assert not out.exists()


def test_ablate_clip_length_grid_defaults_to_1_2_4_8(pipeline, tmp_path, monkeypatch):
    grids = []

    def record_grid(cfg, grid, n_seeds):
        grids.append(grid)
        return []

    monkeypatch.setattr("padformer.cli.ablation_clip_length", record_grid)
    assert main(["ablate", "--axis", "clip-length", "--config", str(pipeline["cfg"]),
                 "--out", str(tmp_path / "out")]) == 0
    assert grids == [(1, 2, 4, 8)]


def test_ablate_checks_every_cell_before_training(pipeline, tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained before the grid was checked")

    monkeypatch.setattr("padformer.ablation.train_model", no_training)
    out = tmp_path / "out"
    expect_error(["ablate", "--axis", "clip-length", "--config", str(pipeline["cfg"]),
                  "--grid", "2,0", "--seeds", "1", "--out", str(out)],
                 "need at least one frame, got 0", capsys)
    assert not out.exists()


def test_export_attention_checks_the_head_before_reading_the_store(pipeline, tmp_path,
                                                                   capsys):
    out = tmp_path / "m"
    expect_error(["export-attention", "--checkpoint", str(pipeline["checkpoint"]),
                  "--data", str(tmp_path / "no-store"), "--head", "9", "--out", str(out)],
                 "head 9 out of range for 2 heads", capsys)
    assert not out.exists()


def test_export_attention_range_checks(pipeline, tmp_path, capsys):
    base = ["export-attention", "--checkpoint", str(pipeline["checkpoint"]),
            "--data", str(pipeline["data"]), "--out", str(tmp_path / "m")]
    expect_error(base + ["--layer", "5"], "layer 5 out of range", capsys)
    expect_error(base + ["--head", "2"], "head 2 out of range", capsys)
    expect_error(base + ["--clip", "nope"], "no clip 'nope'", capsys)


def test_eval_checks_the_split_before_reading_the_store(pipeline, tmp_path, capsys):
    out = tmp_path / "report.csv"
    expect_error(["eval", "--checkpoint", str(pipeline["checkpoint"]),
                  "--data", str(tmp_path / "no-store"), "--split", "bogus",
                  "--out", str(out)],
                 "--split must be one of train, dev, test, got 'bogus'", capsys)
    assert not out.exists()


def test_eval_needs_both_classes_in_dev(pipeline, tmp_path, capsys):
    records = [r for r in load_store(pipeline["data"])
               if not (r.split == "dev" and r.label == 1)]
    store = tmp_path / "oneclass"
    write_store(store, records)
    expect_error(["eval", "--checkpoint", str(pipeline["checkpoint"]),
                  "--data", str(store)], "both classes", capsys)


def test_eval_rejects_non_finite_scores(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "checkpoint"
    echo = (pipeline["checkpoint"] / "config.cfg").read_text(encoding="utf-8")
    params = load_checkpoint(pipeline["checkpoint"], parse_config(echo).model_config())
    params["head.bias"].data[:] = np.nan
    save_checkpoint(ckpt, params, echo)
    expect_error(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "report.csv")],
                 "4 of 4 scores are not finite", capsys)
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("store_keys,shape", [
    ({"height=16": "height=32", "width=16": "width=32"}, (4, 3, 32, 32)),
    ({"frames=2": "frames=1", "source_frames=4": "source_frames=1"}, (1, 3, 16, 16)),
], ids=["larger-frames", "fewer-source-frames"])
def test_train_names_a_store_clip_that_does_not_fit_the_config(
        pipeline, tmp_path, capsys, store_keys, shape):
    text = MICRO
    for key, value in store_keys.items():
        text = text.replace(f"\n{key}\n", f"\n{value}\n")
    (tmp_path / "store.cfg").write_text(text, encoding="utf-8")
    data, out = tmp_path / "data", tmp_path / "run"
    assert main(["gen-data", "--config", str(tmp_path / "store.cfg"), "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(pipeline["cfg"]), "--data", str(data),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: clip train_(bona|attack)_\d{{4}} has shape "
                        rf"{re.escape(str(shape))}, config needs at least 2 frames "
                        rf"of \(3, 16, 16\)\n", err), err
    assert not out.exists()


@pytest.fixture(scope="module")
def frames4_checkpoint(tmp_path_factory):
    """An untrained checkpoint of a 32x32, frames=4 model."""
    root = tmp_path_factory.mktemp("frames4")
    cfg = parse_config("frames=4\nsource_frames=4\nheight=32\nwidth=32\n"
                       "train_clips=1\ndev_clips=1\ntest_clips=1\n")
    save_checkpoint(root / "checkpoint", init_params(cfg.model_config()), dump_config(cfg))
    return root / "checkpoint"


@pytest.mark.parametrize("store_text,shape", [
    ("frames=4\nsource_frames=4\nheight=64\nwidth=64\n", (4, 3, 64, 64)),
    ("frames=2\nsource_frames=2\nheight=32\nwidth=32\n", (2, 3, 32, 32)),
], ids=["64x64-store", "2-frame-store"])
@pytest.mark.parametrize("command,split", [("eval", "dev"), ("export-attention", "test")])
def test_scoring_names_a_store_clip_that_does_not_fit_the_checkpoint(
        frames4_checkpoint, tmp_path, capsys, store_text, shape, command, split):
    # eval scores the dev split first; export-attention reads the first test clip
    (tmp_path / "store.cfg").write_text(
        store_text + "train_clips=1\ndev_clips=1\ntest_clips=1\n", encoding="utf-8")
    data = tmp_path / "data"
    assert main(["gen-data", "--config", str(tmp_path / "store.cfg"), "--out", str(data)]) == 0
    capsys.readouterr()
    argv = [command, "--checkpoint", str(frames4_checkpoint), "--data", str(data)]
    if command == "export-attention":
        argv += ["--out", str(tmp_path / "maps")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: clip {split}_(bona|attack)_\d{{4}} has shape "
                        rf"{re.escape(str(shape))}, config needs at least 4 frames "
                        rf"of \(3, 32, 32\)\n", err), err
    assert not (tmp_path / "maps").exists()


def test_missing_checkpoint_config(tmp_path, capsys):
    expect_error(["eval", "--checkpoint", str(tmp_path / "ghost"),
                  "--data", str(tmp_path)], "no config echo", capsys)


def test_no_command(capsys):
    expect_error([], "no command given", capsys)


def test_error_is_one_line_without_the_traceback_variable(capsys, monkeypatch):
    monkeypatch.delenv("PADFORMER_TRACEBACK", raising=False)
    assert main([]) == 2
    assert capsys.readouterr().err == "error: no command given (see --help)\n"


def test_traceback_variable_adds_the_traceback(capsys, monkeypatch):
    monkeypatch.setenv("PADFORMER_TRACEBACK", "1")
    assert main([]) == 2
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert 'raise ValueError("no command given (see --help)")' in err
    assert err.endswith("\nerror: no command given (see --help)\n")


def test_pgm_writer_scales_and_handles_flat(tmp_path):
    img = np.array([[0.0, 1.0], [2.0, 3.0]])
    write_pgm(tmp_path / "x.pgm", img)
    raw = (tmp_path / "x.pgm").read_bytes()
    assert raw == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])

    write_pgm(tmp_path / "flat.pgm", np.ones((2, 2)))
    assert (tmp_path / "flat.pgm").read_bytes().endswith(bytes(4))
