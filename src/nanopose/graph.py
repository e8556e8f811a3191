"""Chain IR for the pose-estimation CNN family, shape inference and footprint
analysis.

Shapes are (channels, height, width) throughout.  The reference family has
three variants named by input width and base channel count: 160x32, 160x16,
and 80x32.

A graph is checked once, when it is built: `NetGraph`'s constructor holds
its fields to `infer_shapes`' rule and stores the shaped layers.  Layers and
graphs are frozen, so a built graph cannot be edited and stays valid; a
changed graph is a new one, built for example with `dataclasses.replace`.
"""

import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .errors import SchemaError, check_format, decoding

CONV = "conv2d"
POOL = "maxpool"
REQUANT = "requant_act"
FC = "fully_connected"
DROPOUT = "dropout_noop"

VARIANTS = ("160x32", "160x16", "80x32")

# (kernel, stride, padding) of every kind but the conv: pooling is 2x2 with
# stride 2, the only window the engine and the oracles implement, and the
# other kinds read no window, so they keep the LayerSpec defaults
FIXED_WINDOW = {
    POOL: ((2, 2), (2, 2), (0, 0)),
    REQUANT: ((1, 1), (1, 1), (0, 0)),
    DROPOUT: ((1, 1), (1, 1), (0, 0)),
    FC: ((1, 1), (1, 1), (0, 0)),
}


@dataclass(frozen=True)
class LayerSpec:
    """One layer's parameters.  A layer is shaped, its in/out shape and the
    channels its kind takes from its input filled in, only inside a
    `NetGraph`, whose constructor builds the shaped copy."""

    kind: str
    name: str
    in_ch: int = 0
    out_ch: int = 0
    kernel: tuple = (1, 1)
    stride: tuple = (1, 1)
    padding: tuple = (0, 0)
    in_shape: tuple = None
    out_shape: tuple = None

    def weight_shape(self) -> tuple:
        """Layout of the layer's weights: (out, in, kh, kw) for a conv,
        (out, in) for the head, () for a layer without weights."""
        if self.kind == CONV:
            return (self.out_ch, self.in_ch, *self.kernel)
        if self.kind == FC:
            return (self.out_ch, self.in_ch)
        return ()

    def taps(self) -> int:
        """Weights per output channel: the inner MAC chain length."""
        if self.kind == CONV:
            return self.in_ch * self.kernel[0] * self.kernel[1]
        if self.kind == FC:
            return self.in_ch
        return 0

    def weight_count(self) -> int:
        return self.out_ch * self.taps()

    def macs(self) -> int:
        if self.kind == CONV:
            _, h, w = self.out_shape
            return h * w * self.weight_count()
        if self.kind == FC:
            return self.weight_count()
        return 0

    def out_elem_bytes(self) -> int:
        # activations are 8-bit codes, the head's outputs 32-bit fixed point
        return 4 if self.kind == FC else 1

    def out_bytes(self) -> int:
        return self.out_elem_bytes() * math.prod(self.out_shape)


@dataclass(frozen=True)
class NetGraph:
    """A chain of layers on an input shape, valid and shaped once built:
    the constructor runs `infer_shapes` on its fields, SchemaError for any
    that breaks the rule, and holds the shaped layers as a tuple.  The
    layers given may be LayerSpecs or a graph document's layer records."""

    layers: tuple
    input_shape: tuple
    variant: str = ""

    def __post_init__(self):
        layers, input_shape = infer_shapes(self.layers, self.input_shape, self.variant)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "input_shape", input_shape)

    def layer(self, name: str) -> LayerSpec:
        for l in self.layers:
            if l.name == name:
                return l
        raise KeyError(name)

    def head(self) -> LayerSpec:
        """The fully connected head: the last fc layer."""
        for l in reversed(self.layers):
            if l.kind == FC:
                return l
        raise SchemaError("graph has no fully connected head")


@dataclass
class GraphStats:
    macs: int
    params: int
    memory_bytes: int


def conv_out_hw(h, w, kernel, stride, padding):
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    return oh, ow


def as_ints(v, n: int, lo: int, where: str, field: str) -> tuple:
    """v as a tuple of n ints >= lo, or SchemaError; a bool, float or numpy
    integer is no int here."""
    if not (isinstance(v, (list, tuple)) and len(v) == n and all(type(x) is int and x >= lo for x in v)):
        raise SchemaError(f"{where}: {field} must be {n} integers >= {lo}, got {v!r}")
    return tuple(v)


# the fields a layer is built from; the shapes and the channels of a kind
# without weights follow from them
_LAYER_FIELDS = ("kind", "name", "in_ch", "out_ch", "kernel", "stride", "padding")
_spec_fields, _record_fields = attrgetter(*_LAYER_FIELDS), itemgetter(*_LAYER_FIELDS)


def _layer_fields(l) -> tuple:
    """The `_LAYER_FIELDS` of a LayerSpec, or of a graph document's layer
    record: a dict holding them, where a missing one is a KeyError, which
    `from_doc` reports as SchemaError like any missing document field."""
    return (_record_fields if isinstance(l, dict) else _spec_fields)(l)


def infer_shapes(layers, input_shape, variant) -> tuple:
    """Check a graph's fields and chain structure and shape its layers;
    returns (the shaped layers as a tuple, the input shape as a tuple).
    `NetGraph`'s constructor runs this, and nothing else does.  It is the
    one statement of the field rule, which every graph meets when it is
    built: the input shape is 3 ints >= 1, the variant a str, the layer
    names unique strs, a conv or fc layer's in_ch and out_ch ints >= 1, and
    every layer's kernel and stride 2 ints >= 1 and its padding 2 ints >= 0,
    stored as tuples.  A bool, float or numpy integer is no int.  Any other
    value raises SchemaError, so each field of a graph is a plain int or
    str.  The layers are LayerSpecs or a graph document's layer records,
    read through `_layer_fields`, so a decoded layer is built once, as its
    shaped LayerSpec; the caller's layers are unchanged."""
    layers = [_layer_fields(l) for l in layers]
    if not layers:
        raise SchemaError("empty graph")
    names = [l[1] for l in layers]
    if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
        raise SchemaError(f"layer names must be unique strings, got {names}")
    if not isinstance(variant, str):
        raise SchemaError(f"variant must be a string, got {variant!r}")
    shape = input_shape = as_ints(input_shape, 3, 1, "graph", "input_shape")
    prev = None
    shaped = []
    for kind, name, in_ch, out_ch, kernel, stride, padding in layers:
        if not (isinstance(kind, str) and (kind == CONV or kind in FIXED_WINDOW)):
            raise SchemaError(f"unknown layer kind {kind!r}")
        # quantization folds each conv's batch-norm into the activation
        # stage right after it
        if (kind == REQUANT) != (prev == CONV):
            raise SchemaError(f"{name}: each conv needs an activation stage right after it, "
                              f"and only a conv may precede one")
        prev = kind
        window = (as_ints(kernel, 2, 1, name, "kernel"), as_ints(stride, 2, 1, name, "stride"),
                  as_ints(padding, 2, 0, name, "padding"))
        if window != FIXED_WINDOW.get(kind, window):
            raise SchemaError(f"{name}: a {kind} layer takes kernel, stride, padding "
                              f"{FIXED_WINDOW[kind]}, got {window}")
        in_shape = shape
        c, h, w = shape
        if kind in (CONV, FC):
            # >= 1 as well: in_ch must match the incoming channels, and a
            # zero out_ch collapses the output shape below
            in_ch, out_ch = as_ints((in_ch, out_ch), 2, 0, name, "in_ch, out_ch")
        else:
            in_ch = out_ch = c
        if kind == CONV:
            if in_ch != c:
                raise SchemaError(f"{name}: in_ch {in_ch} != incoming channels {c}")
            shape = (out_ch, *conv_out_hw(h, w, *window))
        elif kind == POOL:
            shape = (c, h // 2, w // 2)
        elif kind == FC:
            flat = c * h * w
            if in_ch != flat:
                raise SchemaError(f"{name}: in features {in_ch} != flattened input {flat}")
            shape = (out_ch, 1, 1)
        if min(shape) <= 0:
            raise SchemaError(f"{name}: output shape {shape} collapsed to an empty dimension")
        shaped.append(LayerSpec(kind, name, in_ch, out_ch, *window, in_shape, shape))
    return tuple(shaped), input_shape


def build_variant(tag: str) -> NetGraph:
    """Build one of the three reference variants, named by `VARIANTS` as
    "<input width>x<base channels>".

    Chain: 5x5/s2 conv + activation, 2x2 max-pool, then three blocks of
    [3x3/s2 conv + act, 3x3/s1 conv + act] with channel progression
    c -> c -> 2c -> 4c (the first conv of blocks 2 and 3 doubles channels),
    a dropout kept as an inference no-op, and a 4-output fully connected
    head (x, y, z, theta).
    """
    if tag not in VARIANTS:
        raise SchemaError(f"unknown variant {tag!r}; expect one of {VARIANTS}")
    input_width, c = map(int, tag.split("x"))
    h = 96 if input_width == 160 else 48
    stem = dict(kernel=(5, 5), stride=(2, 2), padding=(2, 2))
    down = dict(kernel=(3, 3), stride=(2, 2), padding=(1, 1))
    same = dict(kernel=(3, 3), stride=(1, 1), padding=(1, 1))
    layers = [
        LayerSpec(CONV, "conv1", in_ch=1, out_ch=c, **stem),
        LayerSpec(REQUANT, "act1"),
        LayerSpec(POOL, "pool1", kernel=(2, 2), stride=(2, 2)),
    ]
    # each stage's output size, up to the last block's, which the head flattens
    oh, ow = conv_out_hw(h, input_width, **stem)
    oh, ow = oh // 2, ow // 2
    ch = c
    for b, out0 in enumerate((c, 2 * c, 4 * c), start=1):
        layers += [
            LayerSpec(CONV, f"b{b}c1", in_ch=ch, out_ch=out0, **down),
            LayerSpec(REQUANT, f"b{b}a1"),
            LayerSpec(CONV, f"b{b}c2", in_ch=out0, out_ch=out0, **same),
            LayerSpec(REQUANT, f"b{b}a2"),
        ]
        oh, ow = conv_out_hw(*conv_out_hw(oh, ow, **down), **same)
        ch = out0
    layers.append(LayerSpec(DROPOUT, "drop"))
    layers.append(LayerSpec(FC, "fc", in_ch=ch * oh * ow, out_ch=4))
    return NetGraph(layers=layers, input_shape=(1, h, input_width), variant=tag)


def _buffer_bytes(l: LayerSpec) -> int:
    # one activation buffer per executed stage
    return l.out_bytes() if l.kind in (CONV, POOL, FC) else 0


def analyze(g: NetGraph) -> GraphStats:
    """MAC, parameter, and straightforward-implementation memory totals.

    MACs count convolutional and fully connected layers only.  Memory sums
    the input image, all weights, and every intermediate activation buffer
    at one byte per element (four for the 32-bit head outputs).
    """
    macs = sum(l.macs() for l in g.layers)
    params = sum(l.weight_count() for l in g.layers)
    memory = math.prod(g.input_shape) + params + sum(_buffer_bytes(l) for l in g.layers)
    return GraphStats(macs=macs, params=params, memory_bytes=memory)


def layer_table(g: NetGraph):
    """Per-layer analysis rows for reports."""
    rows = []
    for l in g.layers:
        rows.append(
            dict(
                name=l.name,
                kind=l.kind,
                in_shape="x".join(map(str, l.in_shape)),
                out_shape="x".join(map(str, l.out_shape)),
                macs=l.macs(),
                params=l.weight_count(),
                buffer_bytes=_buffer_bytes(l),
            )
        )
    return rows


def to_doc(g: NetGraph) -> dict:
    """The graph as a nanopose-graph document (a dict ready for json)."""
    return {
        "format": "nanopose-graph",
        "version": 1,
        "variant": g.variant,
        "input_shape": list(g.input_shape),
        "layers": [dict(vars(l)) for l in g.layers],
    }


def from_doc(doc: dict) -> NetGraph:
    """Decode a nanopose-graph document, on its own or embedded in a qgraph
    or plan.  Its fields meet `infer_shapes`' rule, which shapes the layer
    records as they stand, so each layer is built once.  The stored layer
    channels, and shapes where present, are copies: each must be the
    integer the layer parameters give, or SchemaError."""
    with decoding("graph document"):
        check_format(doc, "graph document", "nanopose-graph")
        g = NetGraph(layers=doc["layers"], input_shape=doc["input_shape"],
                     variant=doc.get("variant", ""))
        for d, l in zip(doc["layers"], g.layers):
            derived = (l.in_ch, l.out_ch, l.in_shape, l.out_shape)
            stored = (d["in_ch"], d["out_ch"], tuple(d.get("in_shape", l.in_shape)),
                      tuple(d.get("out_shape", l.out_shape)))
            if stored != derived:
                raise SchemaError(f"graph document: {l.name} stores in_ch, out_ch, in_shape, "
                                  f"out_shape {stored}, its parameters give {derived}")
        # a float or bool copy equals an int by value (32.0 == 32), and only
        # a conv's or fc's channels went through the rule
        if not {type(x) for d in doc["layers"]
                for x in (d["in_ch"], d["out_ch"], *d.get("in_shape", ()), *d.get("out_shape", ()))} <= {int}:
            raise SchemaError("graph document: a stored channel count or shape holds a non-integer")
    return g
