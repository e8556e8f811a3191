"""Fuzz every JSON document and binary artifact the CLI reads.

Each JSON example takes a valid graph, qgraph, plan, --mem, --params or
--config document, drops one key at a random path or replaces its value with
null, a string, a list or an object, and runs the subcommand that reads it
through `cli.main` in-process.  Each binary example truncates a valid PGM
frame or QTNS weight file, or flips bits of one header byte.  No exception
may escape and the exit code must be a documented one.  Exit 0 stays
allowed: some keys are optional (a layer's `in_shape` and `out_shape`, a
plan's `violations`, a graph's `variant`), and a flipped digit can leave a
valid header.  Derived copies that are present are read and must match,
integers as integers (a float or bool copy does not match): a layer's
channels and shapes, a plan's stage figures (each stage is derived again
from its `layer_names`), tile `l1_bytes`, occupancy rows and
`l3_weight_bytes`, and each tile's `in_bytes`, `weight_bytes` and
`out_bytes`, which the audit `sweep` runs derives again from the layer
geometry.  A plan that lists any violation exits 5.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nanopose.cli import main
from nanopose.pgm import write_pgm

EXITS = {0, 3, 4, 5}
DROP = "drop"
ACTIONS = (DROP, None, "", "x", [], [0], {}, {"x": 0})
# examples per document kind; quantize is the slowest reader (about 0.1 s)
EXAMPLES = {"graph": 20, "qgraph": 40, "plan": 40, "mem": 20, "params": 20, "config": 20}


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """kind -> (valid document, file to write the mutant to, argv that reads it)."""
    d = tmp_path_factory.mktemp("fuzz")
    out = d / "out"
    out.mkdir()
    assert run(["analyze", "--net", "80x32", "--graph-out", d / "graph.json"]) == 0
    assert run(["quantize", "--net", "80x32", "--calib-size", 1, "--out", d / "q" / "qgraph.json"]) == 0
    assert run(["plan", "--net", "80x32", "--out", d / "plan.json"]) == 0
    assert run(["calibrate-cost", "--out", d / "params.json"]) == 0
    frame = d / "frame.pgm"
    write_pgm(frame, np.random.default_rng(0).integers(0, 256, (48, 80)).astype(np.uint8))
    # a full-size camera frame, which infer center-crops and halves
    camera = d / "camera.pgm"
    write_pgm(camera, np.random.default_rng(1).integers(0, 256, (96, 160)).astype(np.uint8))
    mem = dict(l1_bytes=65536, l2_bytes=524288, l3_bytes=8388608, code_budget_l2=81920)
    config = dict(delta=1.3, tau=0.5, t_v=0.3, q_accel_var=1.0, duration=0.5,
                  noise_std=[0.1, 0.1, 0.05, 0.3])

    def read(path):
        return json.loads(path.read_text())

    weights = d / "q" / "qgraph_conv1.qtns"
    return {
        "pgm": (camera.read_bytes(), camera,
                ["infer", "--qgraph", d / "q" / "qgraph.json", "--image", camera,
                 "--out", out / "pose.csv"]),
        "qtns": (weights.read_bytes(), weights,
                 ["infer", "--qgraph", d / "q" / "qgraph.json", "--image", frame,
                  "--out", out / "pose.csv"]),
        "graph": (read(d / "graph.json"), d / "mutant_graph.json",
                  ["quantize", "--graph", d / "mutant_graph.json", "--calib-size", 1,
                   "--out", out / "q.json"]),
        "qgraph": (read(d / "q" / "qgraph.json"), d / "q" / "mutant.json",
                   ["infer", "--qgraph", d / "q" / "mutant.json", "--image", frame,
                    "--out", out / "pose.csv"]),
        "plan": (read(d / "plan.json"), d / "mutant_plan.json",
                 ["sweep", "--plan", d / "mutant_plan.json", "--out", out / "sweep.csv"]),
        "mem": (mem, d / "mem.json",
                ["plan", "--net", "80x32", "--mem", d / "mem.json", "--out", out / "plan.json"]),
        "params": (read(d / "params.json"), d / "mutant_params.json",
                   ["sweep", "--plan", d / "plan.json", "--params", d / "mutant_params.json",
                    "--out", out / "sweep.csv"]),
        "config": (config, d / "config.json",
                   ["simulate", "--net", "mocap", "--config", d / "config.json",
                    "--out", out / "traj.csv"]),
    }


def paths(node, prefix=()):
    """Every key path in a document.  A list of scalars contributes its first
    element only, so the long requant vectors do not swamp the draw."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node)) if node and isinstance(node[0], (dict, list)) else range(len(node[:1]))
    else:
        return []
    return [p for k in keys for p in (prefix + (k,), *paths(node[k], prefix + (k,)))]


def mutate(doc, path, action):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if action == DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = action
    return doc


@pytest.mark.parametrize("kind", list(EXAMPLES))
def test_mutated_document_exits_cleanly(docs, kind):
    doc, target, argv = docs[kind]

    @settings(max_examples=EXAMPLES[kind], derandomize=True, deadline=None, database=None)
    @given(path=st.sampled_from(paths(doc)), action=st.sampled_from(ACTIONS))
    def check(path, action):
        target.write_text(json.dumps(mutate(doc, path, action)))
        assert run(argv) in EXITS

    check()


# header bytes: "P5\n160 96\n255\n"; magic, dtype, rank and four u32 dims
HEADER_BYTES = {"pgm": 14, "qtns": 22}


def damaged(valid: bytes, header: int):
    """Truncations at several lengths, then each header byte with its low
    bit, its high bit or all of its bits flipped."""
    n = len(valid)
    for cut in sorted({0, 1, 2, 3, 5, 8, header - 1, header, header + 1, n // 2, n - 13, n - 1}):
        yield valid[:cut]
    for i in range(header):
        for mask in (0x01, 0x80, 0xFF):
            yield valid[:i] + bytes([valid[i] ^ mask]) + valid[i + 1:]


@pytest.mark.parametrize("kind", list(HEADER_BYTES))
def test_damaged_binary_exits_cleanly(docs, kind):
    valid, target, argv = docs[kind]
    try:
        for mutant in damaged(valid, HEADER_BYTES[kind]):
            target.write_bytes(mutant)
            assert run(argv) in EXITS, mutant[:HEADER_BYTES[kind]]
    finally:
        target.write_bytes(valid)
