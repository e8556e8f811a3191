import dataclasses
import json

import numpy as np
import pytest

from nanopose import graph as G
from nanopose.errors import SchemaError, parse_doc

from oracles import with_layer


def enumerate_stats(input_hw, c):
    """Independent layer-by-layer enumeration used as the analysis oracle.

    Walks the chain with explicit convolution arithmetic, no shared code
    with the graph module.
    """
    h, w = input_hw

    def conv(h, w, k, s, p):
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    macs = params = 0
    buffers = []
    # conv1 5x5/2 pad2, 1 -> c
    h, w = conv(h, w, 5, 2, 2)
    macs += c * h * w * 1 * 25
    params += c * 1 * 25
    buffers.append(c * h * w)
    # pool 2x2/2
    h, w = h // 2, w // 2
    buffers.append(c * h * w)
    cin = c
    for cout in (c, 2 * c, 4 * c):
        h, w = conv(h, w, 3, 2, 1)
        macs += cout * h * w * cin * 9
        params += cout * cin * 9
        buffers.append(cout * h * w)
        macs += cout * h * w * cout * 9
        params += cout * cout * 9
        buffers.append(cout * h * w)
        cin = cout
    flat = cin * h * w
    macs += flat * 4
    params += flat * 4
    buffers.append(4 * 4)  # four 32-bit outputs
    memory = input_hw[0] * input_hw[1] + params + sum(buffers)
    return macs, params, memory, (h, w), flat


# expected values frozen from the enumeration above
ORACLE = {
    "160x32": (14_138_880, 303_392, 499_248),
    "160x16": (4_304_640, 77_968, 183_584),
    "80x32": (4_033_536, 298_784, 348_336),
}


class TestBuild:
    def test_unsupported_pair(self):
        for tag in ("80x16", "160x32 ", "x"):
            with pytest.raises(SchemaError):
                G.build_variant(tag)

    def test_160x32_trace(self):
        g = G.build_variant("160x32")
        # shape trace (W x H presentation): 160x96 -> 80x48 -> 40x24 -> 20x12 -> 10x6 -> 5x3
        conv_outs = [l.out_shape for l in g.layers if l.kind == G.CONV]
        assert conv_outs[0] == (32, 48, 80)
        assert conv_outs[-1] == (128, 3, 5)
        assert g.layer("fc").in_ch == 1920

    def test_80x32_final_spatial(self):
        g = G.build_variant("80x32")
        last = [l for l in g.layers if l.kind == G.CONV][-1]
        assert last.out_shape == (128, 2, 3)  # 3x2 spatial, 128 channels

    def test_160x16_fc_input(self):
        g = G.build_variant("160x16")
        assert g.layer("fc").in_ch == 64 * 5 * 3


# every layer with weights, written out per variant: name -> (weight shape, taps)
def expected_weights(c, flat):
    return {
        "conv1": ((c, 1, 5, 5), 25),
        "b1c1": ((c, c, 3, 3), 9 * c),
        "b1c2": ((c, c, 3, 3), 9 * c),
        "b2c1": ((2 * c, c, 3, 3), 9 * c),
        "b2c2": ((2 * c, 2 * c, 3, 3), 18 * c),
        "b3c1": ((4 * c, 2 * c, 3, 3), 18 * c),
        "b3c2": ((4 * c, 4 * c, 3, 3), 36 * c),
        "fc": ((4, flat), flat),
    }


WEIGHTS = {
    "160x32": expected_weights(32, 128 * 3 * 5),
    "160x16": expected_weights(16, 64 * 3 * 5),
    "80x32": expected_weights(32, 128 * 2 * 3),
}


class TestWeightLayout:
    @pytest.mark.parametrize("tag", G.VARIANTS)
    def test_every_layer_against_enumeration(self, tag):
        expect = WEIGHTS[tag]
        g = G.build_variant(tag)
        assert {l.name for l in g.layers if l.weight_shape()} == set(expect)
        for l in g.layers:
            shape, taps = expect.get(l.name, ((), 0))
            assert l.weight_shape() == shape, l.name
            assert l.taps() == taps, l.name
            assert l.weight_count() == (shape[0] * taps if shape else 0), l.name
        assert sum(l.weight_count() for l in g.layers) == ORACLE[tag][1]

    @pytest.mark.parametrize("tag", G.VARIANTS)
    def test_head_is_the_fc_layer(self, tag):
        g = G.build_variant(tag)
        assert g.head() is g.layer("fc")

    def test_head_is_the_last_fc(self):
        g = G.NetGraph(layers=[
            G.LayerSpec(G.FC, "hidden", in_ch=16, out_ch=8),
            G.LayerSpec(G.FC, "out", in_ch=8, out_ch=4),
        ], input_shape=(1, 4, 4))
        assert g.head() is g.layer("out")

    def test_headless_graph_rejected(self):
        g = G.NetGraph(layers=[
            G.LayerSpec(G.CONV, "c", in_ch=1, out_ch=2, kernel=(3, 3), padding=(1, 1)),
            G.LayerSpec(G.REQUANT, "a"),
        ], input_shape=(1, 4, 4))
        with pytest.raises(SchemaError, match="no fully connected head"):
            g.head()


class TestInferShapes:
    def test_idempotent(self):
        # a graph rebuilt from shaped layers is the same graph, and the
        # layers it was built from are left as they were
        g = G.build_variant("160x32")
        again = G.NetGraph(g.layers, g.input_shape, g.variant)
        assert again == g and again.layers == G.infer_shapes(g.layers, g.input_shape, g.variant)[0]
        unshaped = [G.LayerSpec(l.kind, l.name, l.in_ch, l.out_ch, l.kernel, l.stride, l.padding)
                    for l in g.layers]
        assert G.NetGraph(unshaped, g.input_shape, g.variant) == g
        assert all(l.in_shape is l.out_shape is None for l in unshaped)

    def test_pool_output(self):
        g = G.build_variant("160x32")
        assert g.layer("pool1").out_shape == (32, 24, 40)

    def test_80_trace_ends_3x2(self):
        g = G.build_variant("80x32")
        # manual ceil-halving trace on the height: 48/24/12/6/3/2
        heights = [l.out_shape[1] for l in g.layers if l.kind in (G.CONV, G.POOL)]
        assert heights == [24, 12, 6, 6, 3, 3, 2, 2]

    def test_collapse_error(self):
        with pytest.raises(SchemaError, match="collapsed"):
            G.NetGraph(
                layers=[G.LayerSpec(G.CONV, "c", in_ch=1, out_ch=2, kernel=(5, 5), stride=(2, 2))],
                input_shape=(1, 3, 3),
            )


# graphs that break the field rule, each the 80x32 variant with one change:
# (graph fields, {layer name: layer fields})
MALFORMED = {
    "zero-channel-input": ({"input_shape": (0, 48, 80)}, {"conv1": {"in_ch": 0}}),
    "bool-channel": ({}, {"conv1": {"in_ch": True}}),
    "float-channel": ({}, {"conv1": {"out_ch": 32.0}}),
    "int64-channel": ({}, {"conv1": {"out_ch": np.int64(32)}}),
    "int-variant": ({"variant": 7}, {}),
    "three-stride": ({}, {"b1c1": {"stride": (2, 2, 2)}}),
    "none-kernel": ({}, {"b1c1": {"kernel": None}}),
}


def malformed(case):
    """Build the 80x32 variant with the change of `case`."""
    graph_fields, layer_fields = MALFORMED[case]
    g = G.build_variant("80x32")
    return dataclasses.replace(g, layers=[dataclasses.replace(l, **layer_fields.get(l.name, {}))
                                          for l in g.layers], **graph_fields)


class TestFieldRule:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_built_graph_refused(self, case):
        # the constructor runs the rule, so no such graph exists to be
        # planned, analysed or written, and no plan that the plan reader
        # would refuse
        with pytest.raises(SchemaError):
            malformed(case)

    @pytest.mark.parametrize("case", MALFORMED)
    def test_document_refused(self, case):
        graph_fields, layer_fields = MALFORMED[case]
        doc = G.to_doc(G.build_variant("80x32"))
        doc.update(graph_fields)
        for d in doc["layers"]:
            d.update(layer_fields.get(d["name"], {}))
        with pytest.raises(SchemaError):
            G.from_doc(doc)

    def test_windows_stored_as_tuples(self):
        g = G.build_variant("80x32")
        g = dataclasses.replace(with_layer(g, "b1c1", kernel=[3, 3], stride=[2, 2], padding=[1, 1]),
                                input_shape=[1, 48, 80])
        conv = g.layer("b1c1")
        assert (conv.kernel, conv.stride, conv.padding, g.input_shape) == ((3, 3), (2, 2), (1, 1), (1, 48, 80))
        assert g == G.build_variant("80x32")

    def test_built_graph_cannot_be_edited(self):
        g = G.build_variant("80x32")
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.layer("conv1").in_ch = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.variant = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.input_shape = (0, 48, 80)
        assert isinstance(g.layers, tuple)


class TestAnalyze:
    @pytest.mark.parametrize("tag", G.VARIANTS)
    def test_matches_independent_enumeration(self, tag):
        w, c = map(int, tag.split("x"))
        hw = (96, 160) if w == 160 else (48, 80)
        macs, params, memory, _, _ = enumerate_stats(hw, c)
        s = G.analyze(G.build_variant(tag))
        assert (s.macs, s.params, s.memory_bytes) == (macs, params, memory)
        assert (s.macs, s.params, s.memory_bytes) == ORACLE[tag]

    def test_memory_at_least_params(self):
        for tag in G.VARIANTS:
            s = G.analyze(G.build_variant(tag))
            assert s.memory_bytes >= s.params

    def test_channel_doubling_quadruples_deep_block(self):
        g32 = G.build_variant("160x32")
        g16 = G.build_variant("160x16")
        assert g32.layer("b3c2").weight_count() == 4 * g16.layer("b3c2").weight_count()

    def test_first_conv_buffer_dominates(self):
        for tag in G.VARIANTS:
            rows = G.layer_table(G.build_variant(tag))
            bufs = [r["buffer_bytes"] for r in rows if r["kind"] in (G.CONV, G.POOL, G.FC)]
            assert bufs[0] == max(bufs)


class TestJson:
    def test_roundtrip(self):
        g = G.build_variant("80x32")
        g2 = G.from_doc(parse_doc(json.dumps(G.to_doc(g)), "g.json", "nanopose-graph"))
        assert g2.variant == g.variant
        assert [l.name for l in g2.layers] == [l.name for l in g.layers]
        assert G.analyze(g2) == G.analyze(g)

    def test_bad_document(self):
        with pytest.raises(SchemaError):
            parse_doc("{}", "g.json", "nanopose-graph")
        with pytest.raises(SchemaError):
            parse_doc("not json", "g.json", "nanopose-graph")

    @pytest.mark.parametrize("name, field, value", [
        ("pool1", "kernel", [3, 3]),
        ("pool1", "stride", [1, 1]),
        ("b1c1", "stride", [0, 2]),
        ("b1c1", "kernel", "3x3"),
        ("b1c1", "in_ch", None),
        ("b2c1", "name", "b1c1"),
        ("conv1", "out_shape", [33, 24, 40]),
        ("b3a1", "in_ch", 129),
        # a kind that reads no window keeps the defaults, and a pool's padding is 0
        ("b3a1", "kernel", [2, 1]),
        ("drop", "stride", [2, 2]),
        ("fc", "stride", [3, 3]),
        ("fc", "padding", [0, 1]),
        ("pool1", "padding", [1, 1]),
    ])
    def test_bad_layer_rejected(self, name, field, value):
        doc = json.loads(json.dumps(G.to_doc(G.build_variant("80x32"))))
        next(d for d in doc["layers"] if d["name"] == name)[field] = value
        with pytest.raises(SchemaError):
            G.from_doc(doc)

    def test_each_decoded_layer_built_once(self, monkeypatch):
        # the constructor shapes the document's layer records as they
        # stand: one LayerSpec per layer, the shaped one
        doc = json.loads(json.dumps(G.to_doc(G.build_variant("80x32"))))
        built, real = [], G.LayerSpec
        monkeypatch.setattr(G, "LayerSpec", lambda *a, **k: built.append(a) or real(*a, **k))
        g = G.from_doc(doc)
        assert len(built) == len(g.layers) == len(doc["layers"])
        assert g == G.build_variant("80x32")

    @pytest.mark.parametrize("field", ["kind", "name", "in_ch", "out_ch", "kernel", "stride", "padding"])
    def test_missing_layer_field_refused(self, field):
        doc = json.loads(json.dumps(G.to_doc(G.build_variant("80x32"))))
        del doc["layers"][3][field]
        with pytest.raises(SchemaError, match="missing or mistyped field"):
            G.from_doc(doc)

    def test_stored_shapes_optional(self):
        doc = json.loads(json.dumps(G.to_doc(G.build_variant("80x32"))))
        for d in doc["layers"]:
            del d["in_shape"], d["out_shape"]
        assert G.analyze(G.from_doc(doc)) == G.analyze(G.build_variant("80x32"))
