"""Training batches: ``make_batch`` against the list-based oracle, and the
store-shape check at the batch boundary."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padformer.config import RunConfig
from padformer.harness import make_batch
from padformer.rng import stream
from padformer.tensor import ShapeError

from oracles import make_batch_listwise


def records_for(seed, n, s, h=16, w=16, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return [SimpleNamespace(clip_id=f"clip{i}", label=int(rng.integers(0, 2)),
                            frames=rng.random((s, 3, h, w)).astype(dtype))
            for i in range(n)]


def batches(fn, records, cfg, steps):
    rngs = [stream(cfg.seed, name) for name in ("batches", "sampling", "augment")]
    return [fn(records, cfg, *rngs) for _ in range(steps)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.integers(1, 4), extra=st.integers(0, 6),
       b=st.integers(1, 5), n=st.integers(1, 4),
       mode=st.sampled_from(["uniform", "random-interval"]), augment=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_batch_is_bytewise_the_list_based_batch(seed, t, extra, b, n, mode, augment, dtype):
    cfg = RunConfig(frames=t, source_frames=t + extra, height=16, width=16,
                    batch_size=b, sample_mode=mode, augment=augment, seed=seed)
    records = records_for(seed, n, t + extra, dtype=dtype)
    got = batches(make_batch, records, cfg, 3)
    want = batches(make_batch_listwise, records, cfg, 3)
    for (frames, labels), (ref_frames, ref_labels) in zip(got, want):
        assert frames.shape == ref_frames.shape == (b, t, 3, 16, 16)
        assert frames.dtype == ref_frames.dtype == dtype
        assert frames.tobytes() == ref_frames.tobytes()
        assert labels.dtype.kind == "i" and labels.tolist() == ref_labels.tolist()


@pytest.mark.parametrize("s,t", [(8, 4), (12, 5)], ids=["t-divides-s", "t-does-not-divide-s"])
@pytest.mark.parametrize("mode", ["uniform", "random-interval"])
@pytest.mark.parametrize("augment", [True, False], ids=["augment", "no-augment"])
def test_batch_from_strided_and_indexed_picks_is_the_list_based_batch(s, t, mode, augment):
    # T | S and random-interval picks are read as views of the store clip,
    # uneven uniform picks as an index gather; the bytes are the same
    cfg = RunConfig(frames=t, source_frames=s, height=16, width=16, batch_size=4,
                    sample_mode=mode, augment=augment, seed=5)
    records = records_for(5, 3, s)
    sources = [r.frames.copy() for r in records]
    for (frames, labels), (ref_frames, ref_labels) in zip(
            batches(make_batch, records, cfg, 4), batches(make_batch_listwise, records, cfg, 4)):
        assert frames.tobytes() == ref_frames.tobytes()
        assert labels.tolist() == ref_labels.tolist()
    assert all(np.array_equal(r.frames, src) for r, src in zip(records, sources))


@pytest.mark.parametrize("s,h", [(8, 32), (1, 16)], ids=["larger-frames", "fewer-frames"])
def test_a_clip_that_does_not_fit_the_config_is_named(s, h):
    cfg = RunConfig(frames=2, source_frames=2, height=16, width=16, batch_size=2)
    with pytest.raises(ShapeError, match=rf"^clip clip0 has shape \({s}, 3, {h}, {h}\), "
                                         r"config needs at least 2 frames of \(3, 16, 16\)$"):
        batches(make_batch, records_for(0, 1, s, h, h), cfg, 1)
