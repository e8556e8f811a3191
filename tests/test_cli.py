import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nanopose
from nanopose.cli import (
    EXIT_CONSTRAINT,
    EXIT_NOT_FOUND,
    EXIT_SCHEMA,
    EXIT_USAGE,
    main,
)
from nanopose import tensorfile
from nanopose.pgm import write_pgm


def run_cli(args):
    return main(list(args))


@pytest.fixture
def qgraph_file(tmp_path):
    out = tmp_path / "q" / "qgraph.json"
    out.parent.mkdir()
    assert run_cli(["quantize", "--net", "80x32", "--seed", "3", "--out", str(out)]) == 0
    return out


def frame_pgm(tmp_path, size=162, seed=0):
    p = tmp_path / "frame.pgm"
    img = np.random.default_rng(seed).integers(0, 256, (size, size)).astype(np.uint8)
    write_pgm(p, img)
    return p


def test_cli_import_leaves_out_scipy_optimize():
    # only cost-model fits need the optimizer and only blur augmentation
    # scipy.ndimage; every subcommand pays a module-level scipy import otherwise
    src = os.path.dirname(os.path.dirname(nanopose.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, "-c", "import sys, nanopose.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestAnalyze:
    def test_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert run_cli(["analyze", "--net", "160x32", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "14.1 MMAC" in text
        assert "499 kB" in text
        assert "3.03e5" in text
        body = out.read_text()
        assert body.startswith("# nanopose")

    def test_unknown_subcommand_usage_exit(self):
        with pytest.raises(SystemExit) as ei:
            run_cli(["frobnicate"])
        assert ei.value.code == EXIT_USAGE


class TestQuantizeInfer:
    def test_end_to_end(self, tmp_path, qgraph_file):
        img = frame_pgm(tmp_path)
        pose_csv = tmp_path / "pose.csv"
        acts = tmp_path / "acts"
        code = run_cli(["infer", "--qgraph", str(qgraph_file), "--image", str(img),
                        "--out", str(pose_csv), "--dump-activations", str(acts)])
        assert code == 0
        lines = [l for l in pose_csv.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("x,y,z,theta")
        assert len(lines) == 2
        assert any(f.suffix == ".qtns" for f in acts.iterdir())

    def test_frame_of_input_size_runs_unchanged(self, tmp_path, qgraph_file):
        from nanopose import engine
        from nanopose.quantizer import load_qgraph
        px = np.random.default_rng(4).integers(0, 256, (48, 80)).astype(np.uint8)
        img = tmp_path / "frame.pgm"
        write_pgm(img, px)
        pose_csv = tmp_path / "pose.csv"
        assert run_cli(["infer", "--qgraph", str(qgraph_file), "--image", str(img),
                        "--out", str(pose_csv)]) == 0
        want = engine.infer_int(load_qgraph(qgraph_file),
                                nanopose.QTensor(px.reshape(1, 48, 80), engine.IMAGE_EPS))
        row = [l for l in pose_csv.read_text().splitlines() if not l.startswith("#")][1]
        assert row.split(",")[4:] == [str(int(v)) for v in want.raw]

    def test_activation_dir_is_a_file_exit_3(self, tmp_path, capsys, qgraph_file):
        img = frame_pgm(tmp_path)
        taken = tmp_path / "acts"
        taken.write_text("")
        code = run_cli(["infer", "--qgraph", str(qgraph_file), "--image", str(img),
                        "--out", str(tmp_path / "pose.csv"), "--dump-activations", str(taken)])
        assert code == EXIT_NOT_FOUND
        assert "error[not-found]" in capsys.readouterr().err
        assert not (tmp_path / "pose.csv").exists()

    def test_missing_image_exit_3(self, tmp_path, qgraph_file):
        code = run_cli(["infer", "--qgraph", str(qgraph_file),
                        "--image", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_NOT_FOUND

    def test_bad_qgraph_exit_4(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"format\": \"wrong\"}")
        code = run_cli(["infer", "--qgraph", str(bad), "--image", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_SCHEMA


def _cut_mult(doc):
    doc["requant"]["act1"]["mult"] = doc["requant"]["act1"]["mult"][:2]


def _cut_bias(doc):
    doc["requant"]["b2a1"]["bias"] = doc["requant"]["b2a1"]["bias"] * 2


def _cut_out_eps(doc):
    doc["out_eps"] = doc["out_eps"][:1]


def _drop_weights(doc):
    del doc["weights"]


def _pool_3x3(doc):
    next(d for d in doc["graph"]["layers"] if d["kind"] == "maxpool")["kernel"] = [3, 3]


def _graph_layer(doc, name):
    return next(d for d in doc["graph"]["layers"] if d["name"] == name)


def _conv1_out_shape_33(doc):
    _graph_layer(doc, "conv1")["out_shape"][0] = 33


def _b3a1_in_ch_129(doc):
    _graph_layer(doc, "b3a1")["in_ch"] = 129


def _double_out_eps(doc):
    doc["out_eps"] = [2 * v for v in doc["out_eps"]]


def _change_input_eps(doc):
    doc["input_eps"] = 0.5


def _change_acc_eps(doc):
    doc["acc_eps"]["conv1"] = 7.0


class TestTamperedQgraph:
    """A qgraph whose requant vectors or output scales do not fit the graph,
    whose embedded graph is not marked a version 1 nanopose-graph document
    or stores a layer channel count or shape its parameters do not give,
    that lacks its weights, whose pooling is not 2x2, that sets a window
    field a requant, fc or pool layer does not use, that has a negative
    requant multiplier, a requant shift outside [0, 31] or a requant vector
    beyond int32, or whose stored scales differ from the ones its weight
    scales and alphas give is rejected when loaded: exit 4 with a one-line
    message, no traceback."""

    @pytest.mark.parametrize("tamper", [_cut_mult, _cut_bias, _cut_out_eps, _drop_weights, _pool_3x3,
                                        _conv1_out_shape_33, _b3a1_in_ch_129])
    def test_infer_exit_4(self, tmp_path, qgraph_file, tamper):
        doc = json.loads(qgraph_file.read_text())
        tamper(doc)
        bad = qgraph_file.parent / "tampered.json"
        bad.write_text(json.dumps(doc))
        img = frame_pgm(tmp_path)
        src = os.path.dirname(os.path.dirname(nanopose.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        res = subprocess.run(
            [sys.executable, "-m", "nanopose.cli", "infer", "--qgraph", str(bad),
             "--image", str(img), "--out", str(tmp_path / "pose.csv")],
            capture_output=True, text=True, env=env)
        assert res.returncode == EXIT_SCHEMA, res.stderr
        assert "Traceback" not in res.stderr
        assert "error[schema]" in res.stderr

    @pytest.mark.parametrize("tamper", [_double_out_eps, _change_input_eps, _change_acc_eps])
    def test_scale_copy_exit_4(self, tmp_path, capsys, qgraph_file, tamper):
        doc = json.loads(qgraph_file.read_text())
        tamper(doc)
        bad = qgraph_file.parent / "tampered.json"
        bad.write_text(json.dumps(doc))
        img = frame_pgm(tmp_path)
        out = tmp_path / "pose.csv"
        assert run_cli(["infer", "--qgraph", str(bad), "--image", str(img),
                        "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and "differ from the scales" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name, field, value", [
        ("b3a1", "kernel", [2, 1]), ("fc", "stride", [3, 3]), ("pool1", "padding", [1, 1]),
    ])
    def test_unused_window_field_exit_4(self, tmp_path, capsys, qgraph_file, name, field, value):
        doc = json.loads(qgraph_file.read_text())
        _graph_layer(doc, name)[field] = value
        bad = qgraph_file.parent / "tampered.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "pose.csv"
        assert run_cli(["infer", "--qgraph", str(bad), "--image", str(frame_pgm(tmp_path)),
                        "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and "takes kernel, stride, padding" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("in_ch", True), ("out_ch", 32.0), ("stride", [2, 2, 2]), ("kernel", None), ("name", 7),
    ])
    def test_malformed_graph_field_exit_4(self, tmp_path, capsys, qgraph_file, field, value):
        doc = json.loads(qgraph_file.read_text())
        _graph_layer(doc, "conv1")[field] = value
        bad = qgraph_file.parent / "tampered.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "pose.csv"
        assert run_cli(["infer", "--qgraph", str(bad), "--image", str(frame_pgm(tmp_path)),
                        "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("tamper", [
        lambda g: g.update(format="x"),
        lambda g: g.update(version=2),
        lambda g: (g.pop("format"), g.pop("version")),
    ], ids=["format-x", "version-2", "unmarked"])
    def test_embedded_graph_format_exit_4(self, tmp_path, capsys, qgraph_file, tamper):
        doc = json.loads(qgraph_file.read_text())
        tamper(doc["graph"])
        bad = qgraph_file.parent / "tampered.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "pose.csv"
        assert run_cli(["infer", "--qgraph", str(bad), "--image", str(frame_pgm(tmp_path)),
                        "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and "not a version 1 nanopose-graph document" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key,index,value,message", [
        ("shift", None, 40, "shift 40 is not an int in [0, 31]"),
        ("mult", 3, 2**40, "mult does not fit 32-bit"),
        ("bias", 3, -(2**40), "bias does not fit 32-bit"),
    ], ids=["shift-40", "mult-2^40", "bias-minus-2^40"])
    def test_requant_beyond_32_bit_exit_4(self, tmp_path, capsys, qgraph_file, key, index, value,
                                          message):
        doc = json.loads(qgraph_file.read_text())
        if index is None:
            doc["requant"]["b2a1"][key] = value
        else:
            doc["requant"]["b2a1"][key][index] = value
        bad = qgraph_file.parent / "tampered.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "pose.csv"
        assert run_cli(["infer", "--qgraph", str(bad), "--image", str(frame_pgm(tmp_path)),
                        "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and f"{bad}: requant b2a1 {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_negative_mult_exit_4(self, tmp_path, capsys, qgraph_file):
        doc = json.loads(qgraph_file.read_text())
        doc["requant"]["act1"]["mult"][3] *= -1
        bad = qgraph_file.parent / "tampered.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "pose.csv"
        assert run_cli(["infer", "--qgraph", str(bad), "--image", str(frame_pgm(tmp_path)),
                        "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and f"{bad}: requant act1 has a negative multiplier" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_extra_weights_entry_exit_4(self, tmp_path, capsys, qgraph_file):
        doc = json.loads(qgraph_file.read_text())
        doc["weights"]["ghost"] = doc["weights"]["conv1"]
        bad = qgraph_file.parent / "tampered.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "pose.csv"
        assert run_cli(["infer", "--qgraph", str(bad), "--image", str(frame_pgm(tmp_path)),
                        "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err
        assert f"{bad}: weights or requant entries do not match the graph's layers" in err
        assert "Traceback" not in err
        assert not out.exists()


def _offset_byte_0x80(path):
    raw = bytearray(path.read_bytes())
    raw[6 + 4 * raw[5]] = 0x80          # first payload byte: offset -128
    path.write_bytes(bytes(raw))


def _rewrite_as(dtype):
    def tamper(path):
        data, eps, _ = tensorfile.read_tensor(path)
        tensorfile.write_tensor(path, data.astype(dtype), eps=eps)
    return tamper


def _int16_payload(path):
    # QTNS has no int16 code: the file's dtype byte names none it knows
    data, eps, _ = tensorfile.read_tensor(path)
    raw = bytearray(path.read_bytes())
    start = 6 + 4 * raw[5]
    raw[4] = 4
    raw[start:start + data.size] = data.astype("<i2").tobytes()
    path.write_bytes(bytes(raw))


def _flattened(path):
    # the right codes in the wrong shape: (out, in * kh * kw)
    data, eps, base = tensorfile.read_tensor(path)
    tensorfile.write_tensor(path, data.reshape(data.shape[0], -1), eps=eps, base=base)


class TestTamperedWeightFile:
    """A weight file that is not 7-bit offsets in an i8 payload of its
    layer's shape is rejected when loaded rather than read as other codes,
    with a message naming the file at fault: the weight file when it cannot
    be read, else the qgraph whose contract it breaks."""

    @pytest.mark.parametrize("tamper,message,names", [
        (_offset_byte_0x80, "offset -128 is below 0", "weights"),
        (_rewrite_as(np.uint8), "i8 weight payload", "qgraph"),
        (_rewrite_as(np.int32), "i8 weight payload", "qgraph"),
        (_int16_payload, "unknown dtype code 4", "weights"),
        (_flattened, "conv1 needs an i8 weight payload of shape (32, 1, 5, 5), got int8 (32, 25)",
         "qgraph"),
    ], ids=["offset-0x80", "u8", "i32", "i16", "wrong-shape"])
    def test_infer_exit_4(self, tmp_path, capsys, qgraph_file, tamper, message, names):
        doc = json.loads(qgraph_file.read_text())
        weights = qgraph_file.parent / doc["weights"]["conv1"]
        tamper(weights)
        img = frame_pgm(tmp_path)
        out = tmp_path / "pose.csv"
        code = run_cli(["infer", "--qgraph", str(qgraph_file), "--image", str(img),
                        "--out", str(out)])
        assert code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and message in err
        assert f"{qgraph_file if names == 'qgraph' else weights}: " in err
        assert "Traceback" not in err
        assert not out.exists()


PLAN_TAMPERS = {
    "node-without-macs": lambda d: d["nodes"][0].pop("macs"),
    "string-l1-bytes": lambda d: d["mem"].update(l1_bytes="64k"),
    "occupancy-cut-to-3-rows": lambda d: d.update(occupancy=d["occupancy"][:3]),
    "layer-missing-from-schedule": lambda d: d["schedule"].pop("b2c1"),
    "zeroed-current-weights": lambda d: d["occupancy"][2].update(weights_current=0),
    "occupancy-total": lambda d: d["occupancy"][1].update(total=d["occupancy"][1]["total"] - 1),
    "occupancy-l3-weights": lambda d: d["occupancy"][0].update(l3_weights=0),
    "l3-weight-bytes": lambda d: d.update(l3_weight_bytes=d["l3_weight_bytes"] + 1),
    "tile-l1-bytes": lambda d: d["schedule"]["conv1"][0].update(l1_bytes=1),
    # 100 B moved from the weights to the input: l1_bytes still matches
    "tile-bytes-shifted": lambda d: d["schedule"]["conv1"][0].update(in_bytes=3700, weight_bytes=700),
    "graph-format-x": lambda d: d["graph"].update(format="x"),
    "graph-version-2": lambda d: d["graph"].update(version=2),
    "graph-unmarked": lambda d: (d["graph"].pop("format"), d["graph"].pop("version")),
    "graph-conv1-out-shape-33": _conv1_out_shape_33,
    "graph-b3a1-in-ch-129": _b3a1_in_ch_129,
    # a requant or fc layer reads no window and a pool pads nothing
    "graph-b3a1-kernel-2x1": lambda d: _graph_layer(d, "b3a1").update(kernel=[2, 1]),
    "graph-fc-stride-3x3": lambda d: _graph_layer(d, "fc").update(stride=[3, 3]),
    "graph-pool1-padding-1x1": lambda d: _graph_layer(d, "pool1").update(padding=[1, 1]),
    # a float or bool copy equal to the derived integer is no copy either
    "tile-l1-bytes-float": lambda d: d["schedule"]["conv1"][0].update(
        l1_bytes=float(d["schedule"]["conv1"][0]["l1_bytes"])),
    "occupancy-total-float": lambda d: d["occupancy"][0].update(total=float(d["occupancy"][0]["total"])),
    "occupancy-zero-as-false": lambda d: d["occupancy"][-1].update(weights_next=False),
    "l3-weight-bytes-float": lambda d: d.update(l3_weight_bytes=float(d["l3_weight_bytes"])),
    "graph-conv1-out-shape-float": lambda d: _graph_layer(d, "conv1").update(
        out_shape=[float(x) for x in _graph_layer(d, "conv1")["out_shape"]]),
    "graph-conv1-in-shape-true": lambda d: _graph_layer(d, "conv1")["in_shape"].__setitem__(0, True),
    # stage figures are derived again from the stage's layers
    "stage-macs-plus-1": lambda d: d["nodes"][1].update(macs=d["nodes"][1]["macs"] + 1),
    "stage-dot-len-float": lambda d: d["nodes"][1].update(dot_len=float(d["nodes"][1]["dot_len"])),
    "stage-without-layers": lambda d: d["nodes"][1].update(layer_names=[]),
}


class TestPlanSweep:
    def test_plan_and_sweep(self, tmp_path):
        plan_json = tmp_path / "plan.json"
        report = tmp_path / "occupancy.csv"
        assert run_cli(["plan", "--net", "160x16", "--policy", "resident_l2",
                        "--out", str(plan_json), "--report", str(report)]) == 0
        doc = json.loads(plan_json.read_text())
        assert doc["policy"] == "resident_l2"
        assert doc["_provenance"]["tool"].startswith("nanopose")
        sweep_csv = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--plan", str(plan_json), "--out", str(sweep_csv)]) == 0
        rows = [l for l in sweep_csv.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "f_fc,f_cl,vdd,fps,mW_fc,mW_cl,mJ_frame"
        assert len(rows) == 71

    @pytest.mark.parametrize("tamper", list(PLAN_TAMPERS.values()), ids=list(PLAN_TAMPERS))
    def test_bad_plan_exit_4(self, tmp_path, capsys, tamper):
        plan_json = tmp_path / "plan.json"
        assert run_cli(["plan", "--net", "80x32", "--out", str(plan_json)]) == 0
        doc = json.loads(plan_json.read_text())
        tamper(doc)
        plan_json.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--plan", str(plan_json), "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"eta_peak": "x"}, {"eta_peak": 0}, {"eta_peak": float("nan")},
        {"cl_base_activity": 7}, {"no_such_coefficient": 1.0}, [1.0],
    ], ids=json.dumps)
    def test_bad_params_exit_4(self, tmp_path, capsys, doc):
        plan_json = tmp_path / "plan.json"
        assert run_cli(["plan", "--net", "80x32", "--out", str(plan_json)]) == 0
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--plan", str(plan_json), "--params", str(params),
                        "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, "{\"l1_bytes\": 1", "\xff"],
                             ids=["deeply-nested", "truncated", "not-utf8"])
    def test_unreadable_option_file_exit_4(self, tmp_path, capsys, text):
        mem = tmp_path / "mem.json"
        mem.write_bytes(text.encode("latin-1"))
        out = tmp_path / "p.json"
        assert run_cli(["plan", "--net", "80x32", "--mem", str(mem), "--out", str(out)]) == EXIT_SCHEMA
        assert "error[schema]" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"l1_bytes": 0.5}, {"code_budget_l2": 0}, {"dma_channels": "2"}],
                             ids=json.dumps)
    def test_bad_mem_exit_4(self, tmp_path, capsys, doc):
        mem = tmp_path / "mem.json"
        mem.write_text(json.dumps(doc))
        out = tmp_path / "p.json"
        assert run_cli(["plan", "--net", "80x32", "--mem", str(mem), "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and "Traceback" not in err
        assert not out.exists()

    def test_infeasible_resident_exit_5(self, tmp_path):
        mem = tmp_path / "mem.json"
        mem.write_text(json.dumps(dict(l1_bytes=65536, l2_bytes=262144,
                                       l3_bytes=8388608, code_budget_l2=81920)))
        code = run_cli(["plan", "--net", "160x32", "--policy", "resident_l2",
                        "--mem", str(mem), "--out", str(tmp_path / "p.json")])
        assert code == EXIT_CONSTRAINT

    def test_naive_l2_need_follows_mem(self, tmp_path, capsys):
        mem = tmp_path / "mem.json"
        mem.write_text(json.dumps({"code_budget_l2": 40960}))
        assert run_cli(["plan", "--net", "80x32", "--out", str(tmp_path / "p0.json")]) == 0
        assert "naive no-tiling L2 need: 419,104 B" in capsys.readouterr().out
        assert run_cli(["plan", "--net", "80x32", "--mem", str(mem),
                        "--out", str(tmp_path / "p1.json")]) == 0
        assert "naive no-tiling L2 need: 378,144 B" in capsys.readouterr().out

    SMALL_L3 = dict(l1_bytes=65536, l2_bytes=245760, l3_bytes=262144, code_budget_l2=1024)

    def test_weights_beyond_l3_exit_5(self, tmp_path, capsys):
        mem = tmp_path / "mem.json"
        mem.write_text(json.dumps(self.SMALL_L3))
        out = tmp_path / "p.json"
        assert run_cli(["plan", "--net", "160x32", "--mem", str(mem), "--out", str(out)]) == EXIT_CONSTRAINT
        assert "L3: weights 303392 > 262144" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_unflagged_l3_overflow(self, tmp_path, capsys):
        from nanopose import planner as P
        from test_planner import over_budget_plan

        plan_json = tmp_path / "plan.json"
        plan_json.write_text(P.plan_to_json(over_budget_plan("160x32", P.MemoryHierarchy(**self.SMALL_L3))))
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--plan", str(plan_json), "--out", str(out)]) == EXIT_SCHEMA
        assert "L3: weights 303392 > 262144" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_listed_violations_exit_5(self, tmp_path, capsys):
        plan_json = tmp_path / "plan.json"
        assert run_cli(["plan", "--net", "80x32", "--out", str(plan_json)]) == 0
        doc = json.loads(plan_json.read_text())
        violations = ["L3: weights 1 > 0", "conv1: L2 occupancy 2 > 1"]
        doc["violations"] = violations
        plan_json.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--plan", str(plan_json), "--out", str(out)]) == EXIT_CONSTRAINT
        err = capsys.readouterr().err
        assert "error[constraint]" in err and "Traceback" not in err
        assert all(v in err for v in violations)
        assert not out.exists()

    def test_calibrate_cost_feeds_sweep(self, tmp_path, capsys):
        fit = tmp_path / "fit.json"
        assert run_cli(["calibrate-cost", "--out", str(fit)]) == 0
        doc = json.loads(fit.read_text())
        assert "eta_peak" in doc and "_fit" in doc
        # the six residuals identify only five of the six fitted coefficients
        assert "Jacobian rank 5 of 6 (degenerate)" in capsys.readouterr().out.splitlines()
        plan_json = tmp_path / "p.json"
        assert run_cli(["plan", "--net", "80x32", "--out", str(plan_json)]) == 0
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--plan", str(plan_json), "--params", str(fit),
                        "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) > 70


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli(["simulate", "--net", "mocap", "--seed", "1",
                            "--out", str(out), "--metrics-out", str(out) + ".m"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_overrides(self, tmp_path):
        import re

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(delta=2.0, tau=0.4, duration=10.0)))
        m = tmp_path / "m.csv"
        assert run_cli(["simulate", "--net", "mocap", "--seed", "0", "--config", str(cfg),
                        "--out", str(tmp_path / "t.csv"), "--metrics-out", str(m)]) == 0
        dist = float(re.search(r"phase0_final_distance_m,([0-9.e-]+)", m.read_text()).group(1))
        assert abs(dist - 2.0) < 0.1

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(no_such_knob=1)))
        code = run_cli(["simulate", "--net", "mocap", "--config", str(bad),
                        "--out", str(tmp_path / "t2.csv")])
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("rate", ["0", "nan", "inf", "1e9", "1e308"])
    def test_bad_rate_exit_4(self, tmp_path, capsys, rate):
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--net", "mocap", "--rate", rate, "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"tau": 0}, {"t_v": -0.3}, {"delta": "far"}, {"a_max": True},
        {"q_accel_var": float("inf")}, {"duration": float("nan")},
        # more dynamics ticks than a run may hold
        {"duration": 1e9}, {"duration": 1e300},
        {"noise_std": [0.1, 0.2]}, {"noise_std": [0.1, 0.1, 0.1, -0.1]}, {"noise_std": 0.3},
        [1, 2],
        # the 500 Hz Euler tick diverges (t_v) or ends in a math domain error (t_omega)
        {"t_v": 0.0009}, {"t_omega": 0.0005}, {"t_v": 0.001},
        # the filter covariance overflows and loses positive definiteness
        {"q_accel_var": 1e300},
    ], ids=json.dumps)
    def test_bad_config_values_exit_4(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--net", "mocap", "--config", str(cfg),
                        "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and "Traceback" not in err
        if isinstance(doc, dict) and "noise_std" not in doc:
            assert f".{next(iter(doc))} " in err      # the message names the setting
        assert not out.exists()

    def test_short_run_has_no_phase0_distance(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration": 2.0}))   # phase 0 ends at 5 s
        assert run_cli(["simulate", "--net", "mocap", "--seed", "0", "--config", str(cfg),
                        "--out", str(tmp_path / "t.csv")]) == 0
        assert "phase-0 distance nan m" in capsys.readouterr().out

    def test_mocap_beats_noisy(self, tmp_path):
        import re

        vals = {}
        for net in ("mocap", "80x32"):
            out = tmp_path / f"{net}.csv"
            m = tmp_path / f"{net}.metrics"
            run_cli(["simulate", "--net", net, "--seed", "1", "--out", str(out),
                     "--metrics-out", str(m)])
            text = m.read_text()
            vals[net] = float(re.search(r"median_e_xy_m,([0-9.e-]+)", text).group(1))
        assert vals["mocap"] < vals["80x32"]


class TestQuantizeWithArtifacts:
    def test_graph_weights_calib_chain(self, tmp_path):
        import nanopose.graph as G
        from nanopose import tensorfile
        from nanopose.floatnet import random_float_net

        graph_json = tmp_path / "g.json"
        assert run_cli(["analyze", "--net", "80x32", "--graph-out", str(graph_json)]) == 0
        assert json.loads(graph_json.read_text())["_provenance"]["tool"].startswith("nanopose")

        g = G.from_doc(json.loads(graph_json.read_text()))
        net = random_float_net(g, seed=11)
        wdir = tmp_path / "w"
        wdir.mkdir()
        for name, w in net.weights.items():
            tensorfile.write_tensor(wdir / f"{name}.qtns", w.astype(np.float32))

        calib = tmp_path / "calib"
        calib.mkdir()
        rng = np.random.default_rng(2)
        for k in range(3):
            write_pgm(calib / f"img{k}.pgm",
                      rng.integers(0, 256, (48, 80)).astype(np.uint8))

        out = tmp_path / "qg" / "qgraph.json"
        out.parent.mkdir()
        code = run_cli(["quantize", "--graph", str(graph_json), "--weights", str(wdir),
                        "--calib", str(calib), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "nanopose-qgraph"
        assert "_provenance" in doc and doc["_provenance"]["inputs"]

    def test_calib_frames_cropped_like_infer(self, tmp_path):
        # a 96x160 camera frame calibrates on the crop infer feeds the
        # network, the same codes as the cropped 48x80 frame itself
        from nanopose.engine import crop_center
        from nanopose.pgm import read_pgm

        rng = np.random.default_rng(5)
        frames = [rng.integers(0, 256, (96, 160)).astype(np.uint8) for _ in range(2)]
        docs = []
        for name, imgs in [("camera", frames),
                           ("cropped", [crop_center(f, (48, 80)).data[0] for f in frames])]:
            calib = tmp_path / name
            calib.mkdir()
            for k, img in enumerate(imgs):
                write_pgm(calib / f"f{k}.pgm", img)
            out = tmp_path / f"q_{name}" / "q.json"
            assert run_cli(["quantize", "--net", "80x32", "--calib", str(calib), "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            doc.pop("_provenance")
            docs.append((doc, sorted(path.read_bytes() for path in out.parent.glob("*.qtns"))))
        assert docs[0] == docs[1]
        camera = tmp_path / "camera" / "f0.pgm"
        assert read_pgm(camera).shape == (96, 160)
        assert run_cli(["infer", "--qgraph", str(tmp_path / "q_camera" / "q.json"), "--image",
                        str(camera), "--out", str(tmp_path / "pose.csv")]) == 0

    def test_weights_of_wrong_size_exit_4(self, tmp_path, capsys):
        from nanopose import tensorfile

        wdir = tmp_path / "w"
        wdir.mkdir()
        tensorfile.write_tensor(wdir / "conv1.qtns", np.ones((3, 3), dtype=np.float32))
        code = run_cli(["quantize", "--net", "80x32", "--weights", str(wdir),
                        "--out", str(tmp_path / "q.json")])
        assert code == EXIT_SCHEMA
        assert "conv1" in capsys.readouterr().err


    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weights_exit_4(self, tmp_path, capsys, bad):
        from nanopose import tensorfile

        wdir = tmp_path / "w"
        wdir.mkdir()
        w = np.full((32, 1, 5, 5), 0.1, dtype=np.float32)
        w[3, 0, 2, 1] = bad
        tensorfile.write_tensor(wdir / "conv1.qtns", w)
        code = run_cli(["quantize", "--net", "80x32", "--weights", str(wdir),
                        "--out", str(tmp_path / "q.json")])
        assert code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "conv1.qtns" in err and "finite" in err


class TestAugmentCmd:
    def test_augment_writes_samples(self, tmp_path):
        img = frame_pgm(tmp_path, size=160)
        out = tmp_path / "aug"
        assert run_cli(["augment", "--image", str(img), "--label", "1.3,0.2,0,0.1",
                        "--count", "5", "--seed", "7", "--out", str(out)]) == 0
        assert len(list(out.glob("*.pgm"))) == 5
        labels = (out / "labels.csv").read_text()
        assert "aug_0004.pgm" in labels

    @pytest.mark.parametrize("label", ["1,2", "1,2,3,4,5", "a,b,c,d", "1,2,nan,0"])
    def test_bad_label_exit_4(self, tmp_path, capsys, label):
        img = frame_pgm(tmp_path, size=160)
        out = tmp_path / "aug"
        assert run_cli(["augment", "--image", str(img), "--label", label, "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and "Traceback" not in err


    def test_out_is_a_file_exit_3(self, tmp_path, capsys):
        img = frame_pgm(tmp_path, size=160)
        taken = tmp_path / "aug"
        taken.write_text("")
        code = run_cli(["augment", "--image", str(img), "--label", "1,0,0,0",
                        "--out", str(taken)])
        assert code == EXIT_NOT_FOUND
        assert "error[not-found]" in capsys.readouterr().err

    def test_negative_count_usage_exit(self, tmp_path):
        img = frame_pgm(tmp_path, size=160)
        with pytest.raises(SystemExit) as ei:
            run_cli(["augment", "--image", str(img), "--label", "1,0,0,0", "--count", "-2",
                     "--out", str(tmp_path / "aug")])
        assert ei.value.code == EXIT_USAGE
        assert not (tmp_path / "aug").exists()


@pytest.mark.parametrize("size", ["0", "-3"])
def test_calib_size_below_one_usage_exit(tmp_path, capsys, size):
    out = tmp_path / "q.json"
    with pytest.raises(SystemExit) as ei:
        run_cli(["quantize", "--net", "80x32", "--calib-size", size, "--out", str(out)])
    assert ei.value.code == EXIT_USAGE
    assert f"--calib-size: must be >= 1, got {size}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["quantize", "--net", "80x32", "--out", "q.json"],
    ["simulate", "--net", "mocap", "--out", "log.csv"],
    ["augment", "--image", "frame.pgm", "--label", "1,0,0,0", "--out", "aug"],
], ids=lambda argv: argv[0])
def test_negative_seed_usage_exit(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    frame_pgm(tmp_path, size=160)
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as ei:
        run_cli([*argv, "--seed", "-1"])
    assert ei.value.code == EXIT_USAGE
    assert sorted(tmp_path.iterdir()) == before


class TestEntryPoint:
    def test_module_invocation(self):
        res = subprocess.run([sys.executable, "-m", "nanopose.cli", "--version"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "nanopose" in res.stdout

    def test_public_names_resolve(self):
        assert all(hasattr(nanopose, name) for name in nanopose.__all__)
