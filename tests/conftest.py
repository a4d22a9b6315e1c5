"""Fixtures that break one piece of the program on purpose."""

import numpy as np
import pytest

from padformer import tensor as T
from padformer import vpt


@pytest.fixture
def nan_gelu_backward(monkeypatch):
    """Make ``gelu`` the identity with a NaN backward: the loss stays finite
    and every gradient upstream of the first FFN is NaN."""
    monkeypatch.setattr(T, "gelu", lambda x: T.record(x.data.copy(), (x,),
                                                      lambda g: (g * np.nan,)))


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
