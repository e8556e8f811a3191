"""Binary PGM (P5, maxval 255) image I/O for grayscale frames."""

import numpy as np

from .errors import SchemaError


def write_pgm(path, img: np.ndarray, comment: str = None) -> None:
    img = np.asarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise SchemaError(f"PGM wants a 2-D uint8 array, got {img.dtype} {img.shape}")
    h, w = img.shape
    header = b"P5\n"
    if comment:
        for line in comment.splitlines():
            header += b"# " + line.encode() + b"\n"
    header += f"{w} {h}\n255\n".encode()
    with open(path, "wb") as f:
        f.write(header + img.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(b"P5"):
        raise SchemaError(f"{path}: not a binary PGM (P5) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    # ASCII decimal digits only: int() would also take signs and underscores
    if not all(v.isdigit() for v in fields):
        raise SchemaError(f"{path}: malformed PGM header")
    w, h, maxval = (int(v) for v in fields)
    if maxval != 255:
        raise SchemaError(f"{path}: only maxval 255 supported, got {maxval}")
    if w == 0 or h == 0:
        raise SchemaError(f"{path}: image size {w}x{h} is empty")
    pos += 1  # single whitespace after maxval
    if len(raw) - pos < h * w:
        raise SchemaError(f"{path}: truncated payload ({max(len(raw) - pos, 0)} of {h * w} bytes)")
    return np.frombuffer(raw, dtype=np.uint8, count=h * w, offset=pos).reshape(h, w).copy()
