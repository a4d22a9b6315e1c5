"""Dtype contract: every primitive returns, and back-propagates, its
operands' dtype, so float32 training and scoring stay float32 end to end."""

import numpy as np
import pytest

from padformer import model as M
from padformer import tensor as T
from padformer.attention import multiscale_attention
from padformer.model import ModelConfig, cross_entropy, forward, init_params, predict_score

from test_gradients import gelu

# the benchmark workloads' model shapes, with fewer frames where the full
# clip would only make the test slower
SHAPES = {
    "default": ModelConfig(),
    "longclip": ModelConfig(frames=16, scales=(1, 2, 4)),
    "hires": ModelConfig(frames=2, height=64, width=64, embed_stride=4, scales=(1,)),
}


def frames_for(cfg, batch, dtype):
    rng = np.random.default_rng(0)
    lead = (batch,) if batch else ()
    return rng.random(lead + (cfg.frames, 3, cfg.height, cfg.width)).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("batch", [2, 0], ids=["batched", "single"])
@pytest.mark.parametrize("shape", SHAPES)
def test_training_pass_keeps_the_params_dtype(shape, batch, dtype, monkeypatch):
    cfg = SHAPES[shape]
    params = init_params(cfg, dtype=dtype)
    seen = []
    real_record = T.record

    def spy(out_data, parents, backward_fn):
        seen.append((backward_fn.__qualname__, out_data.dtype))
        return real_record(out_data, parents, backward_fn)

    monkeypatch.setattr(T, "record", spy)
    with T.Tape():
        logits = forward(frames_for(cfg, batch, dtype), params, cfg)
        grads = T.backward(cross_entropy(logits, [0, 1][:batch or 1]))
    assert seen and all(got == dtype for _, got in seen), \
        [op for op, got in seen if got != dtype]
    assert all(grads[p].dtype == dtype for p in params.values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("shape", SHAPES)
def test_scoring_gets_logits_of_the_params_dtype(shape, dtype, monkeypatch):
    cfg = SHAPES[shape]
    logits = []
    real_forward = M.forward

    def spy(*args, **kwargs):
        logits.append(real_forward(*args, **kwargs))
        return logits[-1]

    monkeypatch.setattr(M, "forward", spy)
    clip = M.VideoClip(frames_for(cfg, 0, np.float32), label=0)
    score = predict_score(clip, init_params(cfg, dtype=dtype), cfg)
    assert 0.0 <= score <= 1.0
    assert [z.data.dtype for z in logits] == [dtype]


def test_record_rejects_a_dtype_change():
    def widen(x):
        return T.record(x.data.astype(np.float64), (x,), lambda g: (g.astype(np.float32),))

    with pytest.raises(TypeError, match=r"^widen: float32 operand gave a float64 output"):
        widen(T.tensor(np.ones(3), dtype=np.float32))


def test_gelu_keeps_float32():
    # the FFN's GELU (identity 1x1 kernels): Python-float coefficients never promote
    x = T.param(np.linspace(-3.0, 3.0, 7, dtype=np.float32).reshape(7, 1))
    with T.Tape():
        y = gelu(x)
        grads = T.backward(T.mean(y, (0, 1)))
    assert y.data.dtype == np.float32
    assert grads[x].dtype == np.float32


def test_attention_keeps_float32():
    # a NumPy float64 scale factor (1.0 / np.sqrt(D)) would promote a head's
    # scores, weights and gradients to float64 under NumPy 2
    rng = np.random.default_rng(1)
    qkv = T.param(rng.normal(size=(2, 4, 4, 4, 36)).astype(np.float32))
    recs = []
    with T.Tape():
        out = multiscale_attention(qkv, (1, 2, 4), records=recs)
        grads = T.backward(T.mean(out, (0, 1, 2, 3, 4)))
    assert out.data.dtype == np.float32
    assert len(recs) == 6 and all(r.alpha.dtype == np.float32 for r in recs)
    assert grads[qkv].dtype == np.float32
