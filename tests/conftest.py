"""Fixtures that break one piece of the program on purpose."""

import numpy as np
import pytest

from padformer import model as M
from padformer import tensor as T
from padformer import vpt


@pytest.fixture
def nan_ffn_backward(monkeypatch):
    """Give every feed-forward block a NaN backward: the forward and the loss
    are unchanged and every gradient through an FFN is NaN."""
    real = M.conv_ffn

    def ffn(y, *weights):
        out = real(y, *weights)
        return T.record(out.data, (out,), lambda g: (g * np.nan,))

    monkeypatch.setattr(M, "conv_ffn", ffn)


@pytest.fixture
def fail_writes_after(monkeypatch):
    """Call with n: from then on ``vpt.write_tensor`` writes n files, then
    raises ``OSError``."""
    def arm(writes):
        real, done = vpt.write_tensor, []

        def write(path, array):
            if len(done) == writes:
                raise OSError("disk full")
            done.append(path)
            real(path, array)

        monkeypatch.setattr(vpt, "write_tensor", write)
    return arm
