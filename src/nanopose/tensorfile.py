"""QTNS binary tensor files.

Layout (all little-endian):

    magic   4 bytes  b"QTNS"
    dtype   u8       0=u8, 1=i8, 2=i32, 3=f32
    rank    u8
    dims    rank * u32
    payload raw row-major element data
    trailer f64 eps, i32 base

The format is bit-exact across platforms; float tensors carry eps=1.0 and
base=0 in the trailer.

An i8 payload is the on-disk form of signed 8-bit weight codes: 7-bit
offsets in [0, 127] from the base point in the trailer (see
qtensor.split_weight_codes).  write_qtensor splits the codes and
read_qtensor merges them, so in memory weights are only ever signed codes.
Every other payload carries base 0.
"""

import math
import struct

import numpy as np

from .errors import SchemaError
from .qtensor import QTensor, split_weight_codes

MAGIC = b"QTNS"

_CODE_TO_DTYPE = {0: np.uint8, 1: np.int8, 2: np.int32, 3: np.float32}
_DTYPE_TO_CODE = {np.dtype(v): k for k, v in _CODE_TO_DTYPE.items()}


def write_tensor(path, data: np.ndarray, eps: float = 1.0, base: int = 0) -> None:
    data = np.ascontiguousarray(data)
    dt = np.dtype(data.dtype).newbyteorder("<")
    if np.dtype(data.dtype) not in _DTYPE_TO_CODE:
        raise SchemaError(f"unsupported dtype {data.dtype} for QTNS")
    code = _DTYPE_TO_CODE[np.dtype(data.dtype)]
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<BB", code, data.ndim))
        f.write(struct.pack(f"<{data.ndim}I", *data.shape))
        f.write(data.astype(dt, copy=False).tobytes())
        f.write(struct.pack("<di", float(eps), int(base)))


def read_tensor(path):
    """Read a QTNS file; returns (array, eps, base)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise SchemaError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 6 or len(raw) < 6 + 4 * raw[5]:
        raise SchemaError(f"{path}: {len(raw)} bytes end inside the header")
    code, rank = struct.unpack_from("<BB", raw, 4)
    if code not in _CODE_TO_DTYPE:
        raise SchemaError(f"{path}: unknown dtype code {code}")
    dims = struct.unpack_from(f"<{rank}I", raw, 6)
    dtype = np.dtype(_CODE_TO_DTYPE[code]).newbyteorder("<")
    start = 6 + 4 * rank
    count = math.prod(dims)   # a Python int: a corrupt rank or dim cannot overflow it
    nbytes = count * dtype.itemsize
    if len(raw) != start + nbytes + 12:
        raise SchemaError(f"{path}: size mismatch (got {len(raw)}, expected {start + nbytes + 12})")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=start).reshape(dims)
    eps, base = struct.unpack_from("<di", raw, start + nbytes)
    return data.astype(_CODE_TO_DTYPE[code]), eps, base


def write_qtensor(path, qt: QTensor) -> None:
    """Write a quantized tensor; int8 weight codes go out as offsets plus
    base (ValueError when they span more than 128 levels)."""
    if qt.data.dtype == np.int8:
        offsets, base = split_weight_codes(qt.data)
        write_tensor(path, offsets, eps=qt.eps, base=base)
    else:
        write_tensor(path, qt.data, eps=qt.eps)


def read_qtensor(path) -> QTensor:
    """Read a quantized tensor; an i8 payload comes back as the signed
    weight codes base + offset."""
    data, eps, base = read_tensor(path)
    if data.dtype == np.float32:
        raise SchemaError(f"{path}: float payload is not a quantized tensor")
    if data.dtype == np.int8:
        lo, hi = (int(data.min()), int(data.max())) if data.size else (0, 0)
        if lo < 0:
            raise SchemaError(f"{path}: weight offset {lo} is below 0")
        if base + lo < -128 or base + hi > 127:
            raise SchemaError(f"{path}: base {base} + offsets [{lo}, {hi}] exceed signed 8-bit")
        data = (base + data.astype(np.int16)).astype(np.int8)
    elif base:
        raise SchemaError(f"{path}: base {base} on a payload without weight offsets")
    return QTensor(data, eps)
