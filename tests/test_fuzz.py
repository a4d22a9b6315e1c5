"""Fuzzing of everything read from disk: truncated, mutated and extended
VPT1 files, checkpoint and store manifests and config files each give a
valid result or the reader's own error type, never another exception."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padformer import vpt
from padformer.config import ConfigError, RunConfig, parse_config
from padformer.model import (ModelConfig, init_params, load_checkpoint, parameter_shapes,
                             save_checkpoint)
from padformer.synth import SynthSpec, generate_dataset, load_store, write_store

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# the characters the formats give meaning to, and any other
TEXT_CHUNKS = st.text(st.one_of(st.sampled_from(list(",\t\n\r=./#-_ 019e")),
                                st.characters(codec="utf-8")), max_size=4)


def edited(original, chunks):
    """``original`` after 1-4 edits: truncate at a point, replace one unit
    by a short chunk (maybe empty, so a deletion), or append a chunk."""
    @st.composite
    def edit(draw):
        out = original
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["truncate", "mutate", "extend"]))
            if kind == "truncate":
                out = out[:draw(st.integers(0, len(out)))]
            elif kind == "extend":
                out = out + draw(chunks)
            else:
                i = draw(st.integers(0, max(len(out) - 1, 0)))
                out = out[:i] + draw(chunks) + out[i + 1:]
        return out
    return edit()


CFG = ModelConfig(frames=2, height=16, width=16, embed_stride=8, embed_channels=6,
                  scales=(1, 2), depth=1, seed=3)


@pytest.fixture(scope="module")
def disk(tmp_path_factory):
    """A checkpoint and a store, written once; a test rewrites one manifest
    and puts it back."""
    root = tmp_path_factory.mktemp("fuzz")
    save_checkpoint(root / "ckpt", init_params(CFG))
    spec = SynthSpec(train_clips=1, dev_clips=1, test_clips=1, height=8, width=8,
                     source_frames=2, seed=7)
    write_store(root / "store", generate_dataset(spec)[:3])
    return root


def read_with_manifest(manifest, text, reader):
    """``reader()`` with ``manifest`` rewritten as ``text``, then restored."""
    original = manifest.read_bytes()
    try:
        manifest.write_text(text, encoding="utf-8")
        return reader()
    finally:
        manifest.write_bytes(original)


VPT_BYTES = (vpt.MAGIC + bytes([0, 2]) + np.array([2, 3], dtype="<u4").tobytes()
             + np.arange(6, dtype="<f4").tobytes())
CONFIG_TEXT = (Path(__file__).resolve().parent.parent / "configs" / "clip-length.cfg"
               ).read_text(encoding="utf-8")


def test_the_fuzzed_files_start_valid(disk, tmp_path):
    vpt.write_tensor(tmp_path / "t.vpt", np.arange(6, dtype=np.float32).reshape(2, 3))
    assert (tmp_path / "t.vpt").read_bytes() == VPT_BYTES
    assert load_checkpoint(disk / "ckpt", CFG).keys() == parameter_shapes(CFG).keys()
    assert len(load_store(disk / "store")) == 3
    assert parse_config(CONFIG_TEXT).frames == 8


@FUZZ
@given(data=edited(VPT_BYTES, st.binary(max_size=4)))
def test_vpt_reader_gives_a_tensor_or_its_format_error(disk, data):
    path = disk / "fuzzed.vpt"
    path.write_bytes(data)
    try:
        out = vpt.read_tensor(path)
    except vpt.VptFormatError:
        return
    assert out.dtype in (np.float32, np.float64)
    assert len(data) == 6 + 4 * out.ndim + out.nbytes


@FUZZ
@given(data=st.data())
def test_checkpoint_manifest_gives_parameters_or_a_value_error(disk, data):
    manifest = disk / "ckpt" / "manifest.tsv"
    text = data.draw(edited(manifest.read_text(encoding="utf-8"), TEXT_CHUNKS))
    try:                                    # ShapeError and VptFormatError are ValueErrors
        params = read_with_manifest(manifest, text, lambda: load_checkpoint(disk / "ckpt", CFG))
    except ValueError:
        return
    assert params.keys() == parameter_shapes(CFG).keys()


@FUZZ
@given(data=st.data())
def test_store_manifest_gives_records_or_a_value_error(disk, data):
    manifest = disk / "store" / "manifest.csv"
    text = data.draw(edited(manifest.read_text(encoding="utf-8"), TEXT_CHUNKS))
    try:
        records = read_with_manifest(manifest, text, lambda: load_store(disk / "store"))
    except ValueError:
        return
    assert all(r.frames.ndim == 4 and r.frames.shape[1] == 3 for r in records)


@settings(max_examples=300, deadline=None)
@given(text=edited(CONFIG_TEXT, TEXT_CHUNKS))
def test_config_gives_a_run_config_or_a_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@pytest.mark.parametrize("rel", ["", ".", "clips", "clips/", "clips/\0.vpt"])
def test_a_store_row_that_is_no_file_names_its_line(tmp_path, rel):
    records = generate_dataset(SynthSpec(train_clips=1, dev_clips=1, test_clips=1,
                                         height=8, width=8, source_frames=2))
    write_store(tmp_path / "s", records[:2])
    manifest = tmp_path / "s" / "manifest.csv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    fields = lines[2].split(",")
    lines[2] = ",".join([fields[0], rel] + fields[2:])
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"manifest.csv line 3: cannot read {rel!r}")):
        load_store(tmp_path / "s")


@pytest.mark.parametrize("rel", ["", ".", "tensors", "tensors/missing.vpt", "tensors/\0"])
def test_a_checkpoint_row_that_is_no_file_names_its_line(tmp_path, rel):
    save_checkpoint(tmp_path / "ckpt", init_params(CFG))
    manifest = tmp_path / "ckpt" / "manifest.tsv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0].split("\t")[0] + "\t" + rel
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"manifest.tsv line 1: cannot read {rel!r}")):
        load_checkpoint(tmp_path / "ckpt", CFG)
