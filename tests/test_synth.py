"""Tests for the synthetic spoof-video generator and its on-disk store."""

import numpy as np
import pytest

from padformer.synth import (
    ClipRecord,
    SynthSpec,
    generate_dataset,
    load_store,
    split_records,
    write_store,
)

SMALL = SynthSpec(train_clips=4, dev_clips=2, test_clips=2,
                  height=16, width=16, source_frames=6, seed=7)


def by_id(records):
    return {r.clip_id: r for r in records}


# ---------------------------------------------------------------------------
# determinism and basic shape contracts

def test_generation_is_bitwise_deterministic():
    a = generate_dataset(SMALL)
    b = generate_dataset(SMALL)
    assert [r.clip_id for r in a] == [r.clip_id for r in b]
    for ra, rb in zip(a, b):
        assert ra.label == rb.label and ra.split == rb.split
        assert ra.frames.tobytes() == rb.frames.tobytes()


def test_shapes_dtype_and_range():
    for r in generate_dataset(SMALL):
        assert r.frames.shape == (6, 3, 16, 16)
        assert r.frames.dtype == np.float32
        assert float(r.frames.min()) >= 0.0
        assert float(r.frames.max()) <= 1.0


def test_counts_ids_and_splits():
    records = generate_dataset(SMALL)
    assert len(records) == 2 * (4 + 2 + 2)
    ids = [r.clip_id for r in records]
    assert len(set(ids)) == len(ids)
    assert "train_bona_0003" in ids and "dev_attack_0001" in ids
    for split, want in (("train", 4), ("dev", 2), ("test", 2)):
        part = split_records(records, split)
        assert sum(r.label for r in part) == want          # bona fide count
        assert sum(1 - r.label for r in part) == want      # attack count


def test_seed_changes_content():
    a = by_id(generate_dataset(SMALL))
    b = by_id(generate_dataset(SynthSpec(train_clips=4, dev_clips=2,
                                         test_clips=2, height=16, width=16,
                                         source_frames=6, seed=8)))
    assert not np.array_equal(a["train_bona_0000"].frames,
                              b["train_bona_0000"].frames)


# ---------------------------------------------------------------------------
# class-cue structure

ZERO_CUE = SynthSpec(train_clips=3, dev_clips=1, test_clips=1,
                     height=16, width=16, source_frames=6,
                     texture_amp=0.0, pulse_amp=0.0, noise_sigma=0.0, seed=5)

TEMPORAL_ONLY = SynthSpec(train_clips=6, dev_clips=1, test_clips=1,
                          height=16, width=16, source_frames=8,
                          texture_amp=0.0, pulse_amp=0.10,
                          noise_sigma=0.0, seed=5)


def test_zero_amplitude_cues_make_classes_identical():
    # with every class cue switched off the two labels share the exact
    # base content, so paired clips must match bitwise
    recs = by_id(generate_dataset(ZERO_CUE))
    for idx in range(3):
        bona = recs[f"train_bona_{idx:04d}"].frames
        attack = recs[f"train_attack_{idx:04d}"].frames
        assert bona.tobytes() == attack.tobytes()


def test_attack_minus_bona_is_spatially_constant_per_frame():
    # base content cancels between the paired clips, leaving only the
    # (spatially uniform) intensity terms; float32 rounding is the only
    # residual because the two casts happen at different absolute levels
    recs = by_id(generate_dataset(TEMPORAL_ONLY))
    for idx in range(4):
        diff = (recs[f"train_attack_{idx:04d}"].frames.astype(np.float64)
                - recs[f"train_bona_{idx:04d}"].frames.astype(np.float64))
        for t in range(diff.shape[0]):
            assert float(diff[t].std()) < 1e-6


def test_bona_fide_intensity_oscillates_and_attack_does_not():
    recs = by_id(generate_dataset(TEMPORAL_ONLY))
    for idx in range(6):
        bona = recs[f"train_bona_{idx:04d}"].frames
        attack = recs[f"train_attack_{idx:04d}"].frames
        bona_sway = float(bona.mean(axis=(1, 2, 3)).std())
        attack_sway = float(attack.mean(axis=(1, 2, 3)).std())
        # attack frame means move only through blob jitter; the pulse is
        # an order of magnitude above that
        assert bona_sway > 10 * attack_sway
        assert bona_sway > 0.02


def test_attack_grid_adds_high_frequency_energy():
    spec = SynthSpec(train_clips=6, dev_clips=1, test_clips=1,
                     height=16, width=16, source_frames=4,
                     texture_amp=0.10, pulse_amp=0.0, noise_sigma=0.0, seed=9)
    recs = by_id(generate_dataset(spec))

    def hf_energy(frames):
        d = np.diff(frames.astype(np.float64), axis=3)
        return float((d * d).mean())

    for idx in range(6):
        bona = hf_energy(recs[f"train_bona_{idx:04d}"].frames)
        attack = hf_energy(recs[f"train_attack_{idx:04d}"].frames)
        assert attack > 5 * bona


# ---------------------------------------------------------------------------
# store round-trip and record helpers

def test_store_round_trip(tmp_path):
    records = generate_dataset(SMALL)
    write_store(tmp_path / "data", records)
    loaded = load_store(tmp_path / "data")
    assert [r.clip_id for r in loaded] == [r.clip_id for r in records]
    for ra, rb in zip(records, loaded):
        assert (ra.label, ra.split) == (rb.label, rb.split)
        assert ra.frames.tobytes() == rb.frames.tobytes()


def test_load_store_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_store(tmp_path / "nowhere")


def test_store_path_outside_its_root_rejected(tmp_path):
    records = generate_dataset(SMALL)[:2]
    write_store(tmp_path / "data", records)
    clip = f"clips/{records[1].clip_id}.vpt"
    (tmp_path / "data" / clip).rename(tmp_path / "outside.vpt")
    manifest = tmp_path / "data" / "manifest.csv"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text.replace(clip, "../outside.vpt"), encoding="utf-8")
    with pytest.raises(ValueError, match=r"manifest\.csv line 3: .*resolves outside"):
        load_store(tmp_path / "data")


@pytest.mark.parametrize("line,edit,message", [
    (0, lambda f: ["clip_id", "file", "label", "split"],
     r"line 1: expected header clip_id,path,label,split"),
    (1, lambda f: f[:2] + ["zero", f[3]], r"line 2: label must be 0 or 1, got 'zero'"),
    (2, lambda f: f[:2] + ["2", f[3]], r"line 3: label must be 0 or 1, got '2'"),
    (2, lambda f: f[:3] + ["validation"],
     r"line 3: split must be one of train, dev, test, got 'validation'"),
], ids=["header", "label-word", "label-2", "split"])
def test_store_manifest_fields_are_checked(tmp_path, line, edit, message):
    write_store(tmp_path / "data", generate_dataset(SMALL)[:2])
    manifest = tmp_path / "data" / "manifest.csv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lines[line] = ",".join(edit(lines[line].split(",")))
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"manifest\.csv " + message):
        load_store(tmp_path / "data")


def test_store_duplicate_clip_id_names_the_line(tmp_path):
    records = generate_dataset(SMALL)[:2]
    write_store(tmp_path / "data", records)
    manifest = tmp_path / "data" / "manifest.csv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    manifest.write_text("\n".join(lines + [lines[1]]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"manifest\.csv line 4: "
                                         rf"duplicate clip_id '{records[0].clip_id}'"):
        load_store(tmp_path / "data")


def test_split_records_raises_on_empty():
    records = [ClipRecord("x", np.zeros((1, 3, 4, 4), np.float32), 0, "train")]
    assert split_records(records, "train") == records
    with pytest.raises(ValueError, match="dev"):
        split_records(records, "dev")


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        SynthSpec(texture_amp=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(pulse_freq_min=2.0, pulse_freq_max=1.0)
    with pytest.raises(ValueError):
        SynthSpec(train_clips=0)
    with pytest.raises(ValueError):
        SynthSpec(source_frames=0)


def test_clips_for_mapping():
    assert SMALL.clips_for("train") == 4
    assert SMALL.clips_for("dev") == 2
    assert SMALL.clips_for("test") == 2
    with pytest.raises(KeyError):
        SMALL.clips_for("validation")
