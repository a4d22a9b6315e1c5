"""VPT1 tensor file round-trips and malformed-file rejection."""

import struct

import numpy as np
import pytest

from padformer import model, synth, vpt


def encode(arr):
    """The VPT1 bytes of ``arr``, built straight from the documented layout."""
    arr = np.asarray(arr)
    code = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}[arr.dtype]
    return (b"VPT1" + struct.pack(f"<BB{arr.ndim}I", code, arr.ndim, *arr.shape)
            + np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_roundtrip(tmp_path, dtype):
    rng = np.random.default_rng(5)
    arr = rng.normal(size=(2, 3, 4)).astype(dtype)
    path = tmp_path / "x.vpt"
    vpt.write_tensor(path, arr)
    back = vpt.read_tensor(path)
    assert back.dtype == dtype
    assert np.array_equal(back, arr)


def _views():
    base = np.arange(60, dtype=np.float32).reshape(6, 10)
    return {
        "zero-extent": np.zeros((0, 3), dtype=np.float32),
        "fortran": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        "strided": base[::2, 1::3],
        "transposed": base.T,
    }


@pytest.mark.parametrize("name", list(_views()))
def test_roundtrip_of_any_memory_layout(tmp_path, name):
    arr = _views()[name]
    path = tmp_path / "v.vpt"
    vpt.write_tensor(path, arr)
    assert path.read_bytes() == encode(arr)
    back = vpt.read_tensor(path)
    assert back.shape == arr.shape and back.dtype == arr.dtype
    assert np.array_equal(back, arr)


@pytest.mark.parametrize("shape", [(), (0, 3), (2, 3, 4)])
def test_read_result_is_writable_and_owns_its_data(tmp_path, shape):
    # adam_step updates loaded checkpoint parameters in place
    path = tmp_path / "w.vpt"
    vpt.write_tensor(path, np.ones(shape))
    back = vpt.read_tensor(path)
    assert back.flags.writeable and back.flags.owndata and back.dtype.isnative
    back[...] = 2.0
    assert vpt.read_tensor(path).sum() == np.ones(shape).sum()


def test_roundtrip_scalar_rank0(tmp_path):
    path = tmp_path / "s.vpt"
    vpt.write_tensor(path, np.float64(3.5))
    back = vpt.read_tensor(path)
    assert back.shape == ()
    assert back == 3.5


def test_header_layout(tmp_path):
    path = tmp_path / "h.vpt"
    vpt.write_tensor(path, np.zeros((2, 257), dtype=np.float32))
    raw = path.read_bytes()
    assert raw[:4] == b"VPT1"
    assert raw[4] == 0 and raw[5] == 2
    assert raw[6:10] == (2).to_bytes(4, "little")
    assert raw[10:14] == (257).to_bytes(4, "little")
    assert len(raw) == 14 + 2 * 257 * 4


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.vpt"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(vpt.VptFormatError):
        vpt.read_tensor(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "short.vpt"
    vpt.write_tensor(path, np.zeros(4, dtype=np.float32))
    raw = path.read_bytes()
    path.write_bytes(raw[:-2])
    with pytest.raises(vpt.VptFormatError):
        vpt.read_tensor(path)


def test_integer_dtype_rejected(tmp_path):
    with pytest.raises(vpt.VptFormatError):
        vpt.write_tensor(tmp_path / "i.vpt", np.zeros(3, dtype=np.int32))


def test_extent_beyond_u32_rejected_on_write(tmp_path):
    # a zero-size array: nothing is allocated, and no file is left behind
    path = tmp_path / "wide.vpt"
    with pytest.raises(vpt.VptFormatError, match=r"extent 4294967296 of shape \(4294967296, 0\)"):
        vpt.write_tensor(path, np.zeros((2 ** 32, 0), np.float32))
    assert not path.exists()


def test_overflowing_extents_name_the_file(tmp_path):
    # 2**31 * 2**31 * 4 wraps to 0 in int64; the header must still be refused
    path = tmp_path / "huge.vpt"
    path.write_bytes(b"VPT1" + struct.pack("<BB3I", 0, 3, 2 ** 31, 2 ** 31, 4))
    with pytest.raises(vpt.VptFormatError, match="huge.vpt: payload is 0 bytes"):
        vpt.read_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.vpt"
    path.write_bytes(encode(np.zeros(4, dtype=np.float32)) + b"\0")
    with pytest.raises(vpt.VptFormatError, match="payload is 17 bytes, expected 16"):
        vpt.read_tensor(path)


def test_unknown_dtype_code_rejected(tmp_path):
    path = tmp_path / "code.vpt"
    path.write_bytes(b"VPT1" + struct.pack("<BBI", 2, 1, 1) + bytes(4))
    with pytest.raises(vpt.VptFormatError, match="unknown dtype code 2"):
        vpt.read_tensor(path)


def test_truncated_extent_list_rejected(tmp_path):
    path = tmp_path / "ext.vpt"
    path.write_bytes(b"VPT1" + struct.pack("<BBI", 0, 2, 5) + b"\0\0")
    with pytest.raises(vpt.VptFormatError, match="truncated extent list"):
        vpt.read_tensor(path)


def _count_reads(monkeypatch):
    calls = []
    real = vpt.read_tensor

    def counted(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(vpt, "read_tensor", counted)
    return calls


def test_loaders_read_each_tensor_once_through_read_tensor(tmp_path, monkeypatch):
    # perfbench times store and checkpoint loads by patching vpt.read_tensor;
    # a loader that bypassed it would make vpt.read_ms_per_clip read 0
    spec = synth.SynthSpec(train_clips=2, dev_clips=1, test_clips=1,
                           height=8, width=8, source_frames=2)
    synth.write_store(tmp_path / "store", synth.generate_dataset(spec))
    cfg = model.ModelConfig(frames=2, height=16, width=16, embed_stride=8,
                            embed_channels=6, scales=(1, 2), depth=1)
    params = model.init_params(cfg)
    model.save_checkpoint(tmp_path / "ckpt", params)

    calls = _count_reads(monkeypatch)
    records = synth.load_store(tmp_path / "store")
    assert len(calls) == len(records) == 8
    assert len(set(calls)) == len(calls)

    calls.clear()
    loaded = model.load_checkpoint(tmp_path / "ckpt", cfg)
    assert len(calls) == len(loaded) == len(params)
    assert len(set(calls)) == len(calls)
