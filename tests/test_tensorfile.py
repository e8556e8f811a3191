import math
import struct

import numpy as np
import pytest

from nanopose.errors import SchemaError
from nanopose.qtensor import quantize, split_weight_codes, weight_codes
from nanopose.tensorfile import read_qtensor, read_tensor, write_qtensor, write_tensor


def test_u8_roundtrip(tmp_path):
    p = tmp_path / "a.qtns"
    data = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    write_tensor(p, data, eps=0.5, base=0)
    back, eps, zb = read_tensor(p)
    assert (back == data).all() and back.dtype == np.uint8
    assert eps == 0.5 and zb == 0


def test_i32_and_f32_roundtrip(tmp_path):
    acc = np.array([[-(2**31), 2**31 - 1], [0, 7]], dtype=np.int32)
    write_tensor(tmp_path / "acc.qtns", acc)
    back, _, _ = read_tensor(tmp_path / "acc.qtns")
    assert (back == acc).all()

    f = np.linspace(-1, 1, 10, dtype=np.float32)
    write_tensor(tmp_path / "f.qtns", f)
    back, eps, zb = read_tensor(tmp_path / "f.qtns")
    assert (back == f).all() and eps == 1.0 and zb == 0


def test_weight_tensor_roundtrip(tmp_path):
    # signed codes go to disk as split_weight_codes' offsets plus base, and
    # come back as the same signed codes
    rng = np.random.default_rng(0)
    qt = weight_codes(rng.normal(0, 0.3, (8, 4, 3, 3)))
    p = tmp_path / "w.qtns"
    write_qtensor(p, qt)
    offsets, base = split_weight_codes(qt.data)
    stored, eps_back, base_back = read_tensor(p)
    assert (stored == offsets).all() and eps_back == qt.eps and base_back == base
    back = read_qtensor(p)
    assert back.data.dtype == np.int8 and (back.data == qt.data).all()
    assert back.eps == qt.eps


def write_i8(p, payload, base):
    write_tensor(p, np.array(payload, dtype=np.int8), eps=0.25, base=base)


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int32])
def test_payload_decodes_to_the_params_it_was_quantized_with(tmp_path, dtype):
    qt = quantize(np.array([[-2.0, 0.0], [1.5, 3.0]]), 0.5, dtype)
    write_qtensor(tmp_path / "t.qtns", qt)
    back = read_qtensor(tmp_path / "t.qtns")
    assert back.eps == qt.eps
    assert back.data.dtype == qt.data.dtype and (back.data == qt.data).all()


def test_weight_codes_are_base_plus_offset(tmp_path):
    p = tmp_path / "w.qtns"
    write_i8(p, [5, 10], base=-132)
    assert read_qtensor(p).data.tolist() == [-127, -122]


def test_weight_offset_below_zero_rejected(tmp_path):
    p = tmp_path / "w.qtns"
    write_i8(p, [0, 5, -128], base=0)
    with pytest.raises(SchemaError, match="offset -128 is below 0"):
        read_qtensor(p)


@pytest.mark.parametrize("payload,base", [([0, 127], 1), ([0, 3], -129), ([2], -131), ([], 200)])
def test_weight_codes_beyond_int8_rejected(tmp_path, payload, base):
    p = tmp_path / "w.qtns"
    write_i8(p, payload, base)
    with pytest.raises(SchemaError, match="exceed signed 8-bit"):
        read_qtensor(p)


def test_base_on_other_payload_rejected(tmp_path):
    p = tmp_path / "a.qtns"
    write_tensor(p, np.arange(4, dtype=np.uint8), eps=0.5, base=-3)
    with pytest.raises(SchemaError, match="base -3"):
        read_qtensor(p)


def test_header_is_fixed_layout(tmp_path):
    p = tmp_path / "h.qtns"
    write_tensor(p, np.array([7], dtype=np.uint8), eps=1.0)
    raw = p.read_bytes()
    assert raw[:4] == b"QTNS"
    assert raw[4] == 0 and raw[5] == 1          # dtype u8, rank 1
    assert raw[6:10] == (1).to_bytes(4, "little")
    assert raw[10] == 7
    assert len(raw) == 10 + 1 + 12              # payload + f64/i32 trailer


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.qtns"
    p.write_bytes(b"NOPE" + b"\0" * 20)
    with pytest.raises(SchemaError, match="magic"):
        read_tensor(p)


def test_truncated_rejected(tmp_path):
    p = tmp_path / "t.qtns"
    write_tensor(p, np.zeros((4, 4), dtype=np.uint8))
    p.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(SchemaError, match="size"):
        read_tensor(p)


@pytest.mark.parametrize("size", [5, 6, 9])
def test_short_header_rejected(tmp_path, size):
    # a 2-D tensor's header is 14 bytes: magic, dtype, rank, two u32 dims
    p = tmp_path / "t.qtns"
    write_tensor(p, np.zeros((4, 4), dtype=np.uint8))
    p.write_bytes(p.read_bytes()[:size])
    with pytest.raises(SchemaError, match="header"):
        read_tensor(p)


def test_corrupt_rank_reports_true_size(tmp_path):
    # rank 255 reads 255 payload words as dims; their product overflows int64
    p = tmp_path / "t.qtns"
    write_tensor(p, np.ones((64, 600), dtype=np.int8))
    raw = bytearray(p.read_bytes())
    raw[5] = 255
    p.write_bytes(bytes(raw))
    with pytest.raises(SchemaError, match="size mismatch") as e:
        read_tensor(p)
    dims = struct.unpack_from("<255I", raw, 6)     # 64, 600, then 0x01010101 words
    expected = int(str(e.value).rsplit("expected ", 1)[1].rstrip(")"))
    assert expected == 6 + 4 * 255 + math.prod(dims) + 12
