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


class TestTamperedQgraph:
    """A qgraph whose requant vectors or output scales do not fit the graph,
    that lacks its weights or whose pooling is not 2x2 is rejected when
    loaded: exit 4 with a one-line message, no traceback."""

    @pytest.mark.parametrize("tamper", [_cut_mult, _cut_bias, _cut_out_eps, _drop_weights, _pool_3x3])
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


PLAN_TAMPERS = {
    "node-without-macs": lambda d: d["nodes"][0].pop("macs"),
    "string-l1-bytes": lambda d: d["mem"].update(l1_bytes="64k"),
    "occupancy-cut-to-3-rows": lambda d: d.update(occupancy=d["occupancy"][:3]),
    "layer-missing-from-schedule": lambda d: d["schedule"].pop("b2c1"),
    "zeroed-current-weights": lambda d: d["occupancy"][2].update(weights_current=0),
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

    SMALL_L3 = dict(l1_bytes=65536, l2_bytes=245760, l3_bytes=262144, code_budget_l2=1024)

    def test_weights_beyond_l3_exit_5(self, tmp_path, capsys):
        mem = tmp_path / "mem.json"
        mem.write_text(json.dumps(self.SMALL_L3))
        out = tmp_path / "p.json"
        assert run_cli(["plan", "--net", "160x32", "--mem", str(mem), "--out", str(out)]) == EXIT_CONSTRAINT
        assert "L3: weights 303392 > 262144" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_unflagged_l3_overflow(self, tmp_path, capsys):
        import nanopose.graph as G
        from nanopose import planner as P
        from nanopose.errors import PlanConstraintError

        with pytest.raises(PlanConstraintError) as ei:
            P.plan(G.build_variant("160x32"), P.MemoryHierarchy(**self.SMALL_L3))
        p = ei.value.plan
        p.violations = []
        plan_json = tmp_path / "plan.json"
        plan_json.write_text(P.plan_to_json(p))
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--plan", str(plan_json), "--out", str(out)]) == EXIT_SCHEMA
        assert "L3: weights 303392 > 262144 not flagged" in capsys.readouterr().err
        assert not out.exists()

    def test_calibrate_cost_feeds_sweep(self, tmp_path):
        fit = tmp_path / "fit.json"
        assert run_cli(["calibrate-cost", "--out", str(fit)]) == 0
        doc = json.loads(fit.read_text())
        assert "eta_peak" in doc and "_fit" in doc
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

    @pytest.mark.parametrize("rate", ["0", "nan", "inf"])
    def test_bad_rate_exit_4(self, tmp_path, capsys, rate):
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--net", "mocap", "--rate", rate, "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"tau": 0}, {"t_v": -0.3}, {"delta": "far"}, {"a_max": True},
        {"q_accel_var": float("inf")}, {"duration": float("nan")},
        {"noise_std": [0.1, 0.2]}, {"noise_std": [0.1, 0.1, 0.1, -0.1]}, {"noise_std": 0.3},
        [1, 2],
    ], ids=json.dumps)
    def test_bad_config_values_exit_4(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--net", "mocap", "--config", str(cfg),
                        "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and "Traceback" not in err
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

    def test_weights_of_wrong_size_exit_4(self, tmp_path, capsys):
        from nanopose import tensorfile

        wdir = tmp_path / "w"
        wdir.mkdir()
        tensorfile.write_tensor(wdir / "conv1.qtns", np.ones((3, 3), dtype=np.float32))
        code = run_cli(["quantize", "--net", "80x32", "--weights", str(wdir),
                        "--out", str(tmp_path / "q.json")])
        assert code == EXIT_SCHEMA
        assert "conv1" in capsys.readouterr().err


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


class TestEntryPoint:
    def test_module_invocation(self):
        res = subprocess.run([sys.executable, "-m", "nanopose.cli", "--version"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "nanopose" in res.stdout
