import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weylflow import billiards, cli, geometry
from weylflow.errors import ConfigError


MINIMAL = {
    "task": "simulate",
    "scenario": {
        "metric": {"family": "flat_torus", "periods": [1.0, 1.0]},
        "field": {"type": "constant", "components": [1.0, 0.0]},
    },
}


def test_parse_minimal_config_defaults():
    cfg = cli.parse_config(json.dumps(MINIMAL))
    assert cfg.task == "simulate"
    assert cfg.numerics["dt"] == 1e-3
    assert cfg.numerics["T"] == 100.0
    assert cfg.scenario.dim == 2


def test_parse_preset_config():
    cfg = cli.parse_config({"task": "lyapunov", "preset": "example_1_2",
                            "numerics": {"T": 10.0}})
    assert cfg.scenario is not None
    assert cfg.numerics["T"] == 10.0


def test_parse_rejects_negative_dt():
    doc = dict(MINIMAL, numerics={"dt": -1e-3})
    with pytest.raises(ConfigError) as err:
        cli.parse_config(doc)
    assert any("numerics.dt" in e for e in err.value.errors)


def test_parse_rejects_unknown_keys():
    doc = dict(MINIMAL)
    doc["extra"] = 1
    doc["numerics"] = {"dt": 1e-3, "bogus": 2}
    with pytest.raises(ConfigError) as err:
        cli.parse_config(doc)
    msgs = "\n".join(err.value.errors)
    assert "unknown key 'extra'" in msgs
    assert "unknown key 'bogus'" in msgs


def test_parse_collects_all_errors_not_just_first():
    doc = {"task": "nonsense", "numerics": {"dt": -1, "T": -2}}
    with pytest.raises(ConfigError) as err:
        cli.parse_config(doc)
    assert len(err.value.errors) >= 3


def test_parse_mutually_exclusive_field_data():
    doc = {
        "task": "simulate",
        "scenario": {
            "metric": {"family": "flat_torus", "periods": [1.0, 1.0]},
            "field": {"type": "constant", "components": [1.0, 0.0],
                      "potential": {"dim": 2, "terms": []}},
        },
    }
    with pytest.raises(ConfigError) as err:
        cli.parse_config(doc)
    assert any("mutually exclusive" in e for e in err.value.errors)


def test_parse_syntax_error_reports_position():
    with pytest.raises(ConfigError) as err:
        cli.parse_config('{"task": "simulate",}')
    assert any("line 1" in e for e in err.value.errors)


def test_parse_preset_and_scenario_exclusive():
    doc = dict(MINIMAL, preset="example_1_2")
    with pytest.raises(ConfigError) as err:
        cli.parse_config(doc)
    assert any("mutually exclusive" in e for e in err.value.errors)


def test_simulate_dispatch_writes_deterministic_outputs(tmp_path):
    doc = dict(MINIMAL, numerics={"T": 1.0, "dt": 1e-3},
               initial={"q": [0.0, 0.0], "v": [0.0, 1.0]})
    cfg = cli.parse_config(json.dumps(doc))
    m1 = cli.dispatch(cfg, out_override=tmp_path / "run1")
    m2 = cli.dispatch(cfg, out_override=tmp_path / "run2")
    b1 = (tmp_path / "run1" / "trajectory.csv").read_bytes()
    b2 = (tmp_path / "run2" / "trajectory.csv").read_bytes()
    assert b1 == b2
    assert m1["files"][0]["sha256"] == m2["files"][0]["sha256"]
    manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    assert manifest["task"] == "simulate"
    assert manifest["files"][0]["name"] == "trajectory.csv"
    header = b1.decode().splitlines()[0].split(",")
    assert header == ["t", "q0", "q1", "v0", "v1",
                      "speed_residual", "energy_residual", "int_phi"]


def test_curvature_scan_dispatch(tmp_path):
    cfg = cli.parse_config({"task": "curvature-scan", "preset": "torus3_constant",
                            "numerics": {"n_points": 5, "n_planes": 4, "seed": 7}})
    manifest = cli.dispatch(cfg, out_override=tmp_path)
    assert manifest["summary"]["count_positive"] == 0
    text = (tmp_path / "curvature_scan.csv").read_text()
    header = text.splitlines()[0].split(",")
    assert header[:3] == ["q0", "q1", "q2"]
    assert header[-4:] == ["K", "Khat_tensor", "Khat_formula", "margin"]


def test_lyapunov_dispatch(tmp_path):
    cfg = cli.parse_config({"task": "lyapunov", "preset": "example_1_2",
                            "numerics": {"T": 5.0, "dt": 2e-3},
                            "initial": {"q": [0.1, 0.3], "v": [0.6, 0.8]}})
    manifest = cli.dispatch(cfg, out_override=tmp_path)
    report = json.loads((tmp_path / "lyapunov.json").read_text())
    assert len(report["exponents"]) == 2
    assert abs(sum(report["exponents"]) - 1.0 * report["sbar"]) < 0.05
    csv_lines = (tmp_path / "lyapunov.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# weylflow lyapunov run")
    assert csv_lines[1].split(",")[:3] == ["t", "lambda1", "lambda2"]


def test_billiard_dispatch(tmp_path):
    cfg = cli.parse_config({"task": "billiard", "preset": "sinai_thermostat",
                            "numerics": {"n_collisions": 50, "seed": 3}})
    manifest = cli.dispatch(cfg, out_override=tmp_path)
    assert manifest["summary"]["collisions"] == 50
    assert manifest["summary"]["horizon_finite"] is True
    lines = (tmp_path / "collisions.csv").read_text().splitlines()
    assert lines[0].split(",") == ["index", "t", "scatterer", "impact_x",
                                   "impact_y", "angle_in", "angle_out"]
    assert len(lines) == 51


def test_billiard_rows_match_per_event_reference(tmp_path):
    q0, v0 = [0.7, 0.25], [float(np.cos(0.6)), float(np.sin(0.6))]
    cfg = cli.parse_config({"task": "billiard", "preset": "sinai_thermostat",
                            "initial": {"q": q0, "v": v0},
                            "numerics": {"n_collisions": 200}})
    cli.dispatch(cfg, out_override=tmp_path)
    table = cfg.table
    run = billiards.run_billiard(table, np.array(q0), np.array(v0), 200)
    ref = ["index,t,scatterer,impact_x,impact_y,angle_in,angle_out"]
    for i, ev in enumerate(run.events):
        p = table.wrap(ev.point)
        row = [i, run.collision_times[i], ev.scatterer, p[0], p[1],
               np.arctan2(ev.v_in[1], ev.v_in[0]), np.arctan2(ev.v_out[1], ev.v_out[0])]
        ref.append(",".join(_reference_cell(x) for x in row))
    assert (tmp_path / "collisions.csv").read_text() == "\n".join(ref) + "\n"


def test_orbit_stability_dispatch(tmp_path):
    cfg = cli.parse_config({"task": "orbit-stability", "preset": "two_disk_orbit"})
    manifest = cli.dispatch(cfg, out_override=tmp_path)
    assert manifest["summary"]["classification"] == "hyperbolic"
    sweep = (tmp_path / "orbit_sweep.csv").read_text().splitlines()
    assert sweep[0].split(",") == ["parameter", "lambda1", "elliptic_flag"]
    assert len(sweep) == 22


def test_custom_billiard_config(tmp_path):
    cfg = cli.parse_config({
        "task": "billiard",
        "billiard": {"periods": [1.0, 1.0],
                     "scatterers": [{"center": [0.25, 0.25], "radius": 0.36},
                                    {"center": [0.75, 0.75], "radius": 0.2}],
                     "field_magnitude": 0.3},
        "numerics": {"n_collisions": 20, "seed": 1},
    })
    manifest = cli.dispatch(cfg, out_override=tmp_path)
    assert manifest["summary"]["collisions"] == 20


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"task": "simulate", "numerics": {"dt": -1}}))
    rc = cli.main(["simulate", "--config", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerics.dt" in err


@pytest.mark.parametrize("task", ["simulate", "lyapunov"])
def test_main_rejects_T_below_dt(tmp_path, capsys, task):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"task": task, "preset": "example_1_2",
                                    "numerics": {"T": 0.0005, "dt": 0.001}}))
    rc = cli.main([task, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerics.T" in err and "numerics.dt" in err
    assert not (tmp_path / "out").exists()


def test_main_task_mismatch(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(MINIMAL))
    rc = cli.main(["lyapunov", "--config", str(p)])
    assert rc == 2


def test_main_runs_simulate(tmp_path):
    doc = dict(MINIMAL, numerics={"T": 0.5, "dt": 1e-3},
               output={"directory": str(tmp_path / "out")})
    p = tmp_path / "c.json"
    p.write_text(json.dumps(doc))
    rc = cli.main(["simulate", "--config", str(p)])
    assert rc == 0
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_float_formatting_17_digits():
    assert cli.fmt(1.0 / 3.0) == "0.33333333333333331"
    assert cli.fmt(7) == "7"
    assert cli.fmt(True) == "1"



def _reference_cell(x):
    """The per-cell rule, written out apart from cli: bools as 1/0, integers by int,
    floats to 17 significant digits, str otherwise."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def _reference_csv(rows, header):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_reference_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def test_csv_matches_per_cell_reference():
    rows = [
        [0.1, np.float64(1 / 3), np.float32(0.1), 7, np.int64(-3), np.int32(2**31 - 1)],
        [True, False, np.bool_(True), "PASS", '"quoted, text"', None],
        [float("nan"), float("inf"), -float("inf"), np.float64("nan"), -0.0, 1e-310],
        [2**70, np.uint64(2**64 - 1), 1e300, np.float16(0.5), "x", 3],
        (1.5, 2, "tuple row", np.float64(-np.inf), False, 0),
        [0.1, np.float64(1 / 3), np.float32(0.1), 7, np.int64(-3), np.int32(2**31 - 1)],
    ]
    rows.append(np.array([[1.0, 2.5, -1e-20, np.nan, np.inf, 0.0]]).tolist()[0])
    header = [f"c{i}" for i in range(6)]
    assert cli._csv(rows, header) == _reference_csv(rows, header)
    assert cli._csv(iter(rows), header) == _reference_csv(rows, header)
    assert cli._csv([], header) == "c0,c1,c2,c3,c4,c5\n"
    numbers = [x for row in rows for x in row if not isinstance(x, (str, type(None)))]
    assert [cli.fmt(x) for x in numbers] == [_reference_cell(x) for x in numbers]
    assert cli._csv([[np.True_, np.False_, True]], ["a", "b", "c"]) == "a,b,c\n1,0,1\n"


def test_write_text_records_the_bytes_written(tmp_path):
    text = "a,b\r\n\u00e9,\u2202\n"
    entry = cli._write_text(tmp_path / "out.csv", text)
    data = (tmp_path / "out.csv").read_bytes()
    assert data == text.encode("utf-8")
    assert entry == {"name": "out.csv", "sha256": hashlib.sha256(data).hexdigest(),
                     "bytes": len(data)}


def test_curvature_scan_rows_match_per_plane_reference(tmp_path):
    cfg = cli.parse_config({"task": "curvature-scan", "preset": "product_mixed",
                            "numerics": {"n_points": 3, "n_planes": 7, "seed": 2}})
    cli.dispatch(cfg, out_override=tmp_path)
    s = geometry.curvature_sign_scan(cfg.scenario, 3, 7, 2, include_field_planes=True).samples
    rows = [[*s.q[i], *s.X[i], *s.Y[i], s.K[i], s.Khat_tensor[i], s.Khat[i], s.margin[i]]
            for i in range(len(s.Khat))]
    header = (tmp_path / "curvature_scan.csv").read_text().splitlines()[0].split(",")
    assert len(rows) == 24
    assert (tmp_path / "curvature_scan.csv").read_text() == _reference_csv(rows, header)


BILLIARD = {"periods": [1.0, 1.0],
            "scatterers": [{"center": [0.25, 0.25], "radius": 0.36},
                           {"center": [0.75, 0.75], "radius": 0.2}],
            "field_magnitude": 0.5}
# two scatterers on an axis along E: a table orbit-stability runs on
TWO_DISK = {"periods": [1.0, 1.0],
            "scatterers": [{"center": [0.25, 0.5], "radius": 0.1},
                           {"center": [0.75, 0.5], "radius": 0.1}],
            "field_magnitude": 0.5}


@pytest.mark.parametrize("doc, key", [
    ({"task": "orbit-stability", "preset": "sinai_thermostat"}, "preset"),
    ({"task": "orbit-stability", "billiard": BILLIARD}, "billiard"),
    ({"task": "orbit-stability", "billiard": dict(TWO_DISK, field_angle=0.5)}, "billiard"),
], ids=["sinai_preset", "diagonal_table", "field_off_axis"])
def test_orbit_stability_refuses_a_table_without_a_bouncing_axis(tmp_path, capsys,
                                                                 monkeypatch, doc, key):
    assert _errors(doc) == [f"{key}: task orbit-stability cannot run on it: "
                            "scatterer axis not parallel to E"]
    monkeypatch.setattr(cli, "dispatch", lambda *a, **k: pytest.fail("dispatched"))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["orbit-stability", "--config", str(cfg_path)]) == 2
    assert f"  - {key}: task orbit-stability cannot run on it" in capsys.readouterr().err
    for ok in ({"task": "orbit-stability", "preset": "two_disk_orbit"},
               {"task": "orbit-stability", "billiard": TWO_DISK}):
        assert cli.parse_config(ok).table is not None


@pytest.mark.parametrize("billiard, initial, key", [
    (dict(BILLIARD, scatterers=[]), {}, "billiard.scatterers"),
    (dict(BILLIARD, periods=[1, 0]), {}, "billiard.periods"),
    (BILLIARD, {"q": [0.5, 0.95], "v": [0, 0]}, "initial.v"),
    (BILLIARD, {"q": [0.5, 0.95, 0.1]}, "initial.q"),
    (BILLIARD, {"q": [0.25, 0.3]}, "initial.q"),
], ids=["empty_scatterers", "zero_period", "zero_velocity", "q_of_length_3",
        "q_inside_scatterer"])
def test_main_rejects_bad_billiard_config(tmp_path, capsys, billiard, initial, key):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"task": "billiard", "billiard": billiard,
                                    "initial": initial, "numerics": {"n_collisions": 5}}))
    rc = cli.main(["billiard", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_table_is_checked_against_initial_q_after_an_earlier_error():
    # a bad numerics value must not hide the initial.q check against the scatterers
    doc = {"task": "billiard",
           "billiard": {"scatterers": [{"center": [0.25, 0.25], "radius": 0.36}]},
           "initial": {"q": [0.25, 0.3]}, "numerics": {"n_collisions": -1}}
    with pytest.raises(ConfigError) as err:
        cli.parse_config(doc)
    msgs = "\n".join(err.value.errors)
    assert "numerics.n_collisions" in msgs
    assert "initial.q" in msgs and "inside a scatterer" in msgs


@pytest.mark.parametrize("given", ["q", "v"])
def test_a_lone_initial_q_or_v_is_used_and_the_other_drawn_from_the_seed(tmp_path, given):
    part = {"q": [0.3, 0.4], "v": [0.0, 2.0]}[given]
    starts = {}
    for name, initial in (("drawn", {}), ("given", {given: part})):
        cfg = cli.parse_config({"task": "simulate", "preset": "example_1_2", "initial": initial,
                                "numerics": {"T": 0.002, "dt": 1e-3, "seed": 4}})
        cli.dispatch(cfg, out_override=tmp_path / name)
        row = (tmp_path / name / "trajectory.csv").read_text().splitlines()[1].split(",")
        starts[name] = [float(x) for x in row[1:5]]
    q, v = starts["given"][:2], starts["given"][2:]
    if given == "q":
        assert q == [0.3, 0.4]
        assert math.hypot(*v) == pytest.approx(1.0, abs=1e-15)
    else:
        assert v == [0.0, 1.0]
        assert q == starts["drawn"][:2]


def test_main_rejects_an_initial_q_outside_the_chart(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"task": "simulate", "preset": "hyperbolic_geodesic",
                                    "initial": {"q": [2.5, 0.0], "v": [1.0, 0.0]},
                                    "numerics": {"T": 0.01, "dt": 0.001}}))
    rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "initial.q: chart degenerate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_rejects_output_formats():
    with pytest.raises(ConfigError) as err:
        cli.parse_config(dict(MINIMAL, output={"directory": "out", "formats": ["csv"]}))
    assert err.value.errors == ["output: unknown key 'formats'"]


SCIPY_FREE_TASKS = """
import sys, tempfile
from pathlib import Path
import weylflow, weylflow.cli, weylflow.acceptance
from weylflow import cli
docs = [
    {"task": "simulate", "preset": "example_1_2", "numerics": {"T": 0.02, "dt": 1e-3}},
    {"task": "lyapunov", "preset": "torus3_constant",
     "numerics": {"T": 0.1, "dt": 1e-2, "renorm_every": 2}},
    {"task": "curvature-scan", "preset": "hyperbolic_potential",
     "numerics": {"n_points": 2, "n_planes": 4}},
    {"task": "billiard", "preset": "sinai_thermostat", "numerics": {"n_collisions": 5}},
]
with tempfile.TemporaryDirectory() as out:
    for i, doc in enumerate(docs):
        cli.dispatch(cli.parse_config(doc), Path(out) / str(i))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_and_four_tasks_load_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_TASKS], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert proc.stdout.strip() == "[]"


def test_main_rejects_burn_in_past_T(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"task": "lyapunov", "preset": "example_1_2",
                                    "numerics": {"T": 0.1, "dt": 0.001, "burn_in": 0.2}}))
    rc = cli.main(["lyapunov", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerics.burn_in" in err and "numerics.T" in err
    assert not (tmp_path / "out").exists()


def test_parse_rejects_a_burn_in_that_rounds_up_to_T():
    # burn_in = 0.05 is 5 steps, rounded up to the QR event at step 10 = the last step
    doc = {"task": "lyapunov", "preset": "example_1_2",
           "numerics": {"T": 0.1, "dt": 0.01, "renorm_every": 10, "burn_in": 0.05}}
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(doc)
    assert any(e.startswith("numerics.burn_in:") for e in exc.value.errors)
    doc["numerics"]["renorm_every"] = 5
    cli.parse_config(doc)


def test_parse_rejects_non_finite_numbers():
    # Python's json module reads NaN and Infinity
    doc = {"task": "billiard", "numerics": {"n_collisions": float("inf")},
           "billiard": dict(BILLIARD, scatterers=[{"center": [0.5, float("nan")],
                                                   "radius": 0.2}])}
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps(doc))
    msgs = "\n".join(err.value.errors)
    assert "numerics.n_collisions" in msgs
    assert "billiard.scatterers[0].center" in msgs


def _gradient_on_flat(potential):
    return {"metric": {"family": "flat_torus", "periods": [1.0, 1.0]},
            "field": {"type": "gradient_of_potential", "potential": potential}}


@pytest.mark.parametrize("scenario, key", [
    (_gradient_on_flat({"dim": 2, "terms": [{"k": [1, 0], "cos": "x"}]}),
     "scenario.field.potential.terms[0].cos"),
    (_gradient_on_flat({"dim": 2, "terms": [{"k": [1, 0], "cos": [1]}]}),
     "scenario.field.potential.terms[0].cos"),
    (_gradient_on_flat({"dim": 2, "terms": [{"k": [1.5, 0], "cos": 0.1}]}),
     "scenario.field.potential.terms[0].k"),
    (_gradient_on_flat({"dim": 2, "terms": [{"k": [1, 0], "cos": 0.1}], "periods": [1, 0]}),
     "scenario.field.potential.periods"),
    ({"metric": {"family": "flat_torus", "periods": [1, 0]}}, "scenario.metric.periods"),
    ({"metric": {"family": "conformal_torus", "periods": [0, 1],
                 "sigma": {"dim": 2, "terms": [{"k": [1, 0], "cos": 0.1}]}}},
     "scenario.metric.periods"),
    ({"metric": {"family": "flat_torus", "periods": [1, -2]}}, "scenario.metric.periods"),
    (_gradient_on_flat({"dim": 3, "terms": []}), "scenario.field.potential.dim"),
    ({"metric": {"family": "flat_torus"},
      "field": {"type": "sol_left_invariant", "coefficients": [0, 0, 1]}},
     "scenario.field.type"),
    ({"metric": {"family": "conformal_torus",
                 "sigma": {"dim": 2, "terms": [{"k": [0, 0], "cos": 1000}]}}},
     "metric not finite"),
    ({"metric": {"family": "constant_curvature_chart", "curvature": -1, "dim": 9}},
     "scenario.metric.dim"),
], ids=["cos_string", "cos_list", "k_fractional", "fourier_zero_period",
        "flat_zero_period", "conformal_zero_period", "flat_negative_period",
        "potential_dim_mismatch", "sol_field_off_sol", "metric_overflow", "dim_too_large"])
def test_main_rejects_bad_fourier_and_torus_data(tmp_path, capsys, scenario, key):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"task": "simulate", "scenario": scenario,
                                    "numerics": {"T": 0.01, "dt": 0.001}}))
    rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["[" * 100000, "1" * 5000],
                         ids=["nested_too_deeply", "integer_too_long"])
def test_parse_rejects_unreadable_documents(text):
    with pytest.raises(ConfigError):
        cli.parse_config(text)


def test_runtime_failure_writes_manifest_and_exits_1(tmp_path, capsys, monkeypatch):
    def broken(cfg, outdir):
        raise RuntimeError("runner broke")

    monkeypatch.setitem(cli.TASKS, "simulate", cli.TASKS["simulate"]._replace(run=broken))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "RuntimeError" in err and "runner broke" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == {"class": "RuntimeError", "message": "runner broke"}
    with pytest.raises(RuntimeError):
        cli.dispatch(cli.parse_config(MINIMAL), out_override=tmp_path / "again")
    assert (tmp_path / "again" / "manifest.json").exists()


def test_verify_streams_one_line_per_criterion(tmp_path, capsys, monkeypatch):
    from weylflow import acceptance

    def fake(number, passed):
        return lambda ctx: acceptance.CriterionResult(number, f"fake_{number}", passed,
                                                      f"detail {number}", {"x": 1.0})

    monkeypatch.setattr(acceptance, "CRITERIA", [fake(1, True), fake(2, False)])
    monkeypatch.setattr(acceptance, "criterion_12_roundtrips", lambda ctx: 0.0)
    out = tmp_path / "out"
    assert cli.main(["verify", "--out", str(out)]) == 1
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("criterion")]
    pattern = r"criterion +(\d+) (PASS|FAIL) +\d+\.\d\d s"
    parsed = [re.fullmatch(pattern, ln).groups() for ln in lines]
    assert parsed == [("1", "PASS"), ("2", "FAIL"), ("12", "PASS")] * 2
    rows = json.loads((out / "results.json").read_text())
    assert [sorted(r) for r in rows] == [["criterion", "detail", "measured.x", "name",
                                          "passed"]] * 2 + [
        ["criterion", "detail", "measured.reruns_identical", "measured.roundtrip_worst",
         "name", "passed"]]
    for name in ("results.json", "criteria.csv"):
        assert not re.search(r"\d\.\d\d s", (out / name).read_text())


# -- each task accepts exactly the keys it reads --------------------------------

# task: (the top-level keys it reads besides "task", the numerics keys it reads)
READS = {
    "simulate": ({"preset", "scenario", "initial", "numerics", "output"}, {"dt", "T", "seed"}),
    "lyapunov": ({"preset", "scenario", "initial", "numerics", "output"},
                 {"dt", "T", "renorm_every", "seed", "burn_in"}),
    "curvature-scan": ({"preset", "scenario", "numerics", "output"},
                       {"seed", "n_points", "n_planes"}),
    "billiard": ({"preset", "billiard", "initial", "numerics", "output"},
                 {"seed", "n_collisions"}),
    "orbit-stability": ({"preset", "billiard", "output"}, set()),
    "verify": ({"output"}, set()),
}
TOP_VALUES = {"preset": "example_1_2", "scenario": MINIMAL["scenario"], "billiard": BILLIARD,
              "initial": {"q": [0.5, 0.95]}, "numerics": {}, "output": {"directory": "out"}}


def _base(task):
    """A valid config of the task: its preset, if it runs on a space, and nothing else."""
    top = READS[task][0]
    preset = ("example_1_2" if "scenario" in top
              else "two_disk_orbit" if task == "orbit-stability" else "sinai_thermostat")
    return {"task": task, **({"preset": preset} if "preset" in top else {})}


def _errors(doc):
    with pytest.raises(ConfigError) as err:
        cli.parse_config(doc)
    return err.value.errors


@pytest.mark.parametrize("task", cli.TASKS)
def test_each_task_accepts_exactly_the_keys_it_reads(task):
    top, numerics = READS[task]
    base = _base(task)
    cli.parse_config(base)
    for key, value in TOP_VALUES.items():
        if (task, key) == ("orbit-stability", "billiard"):
            value = TWO_DISK
        doc = dict(base, **{key: value})
        if key not in top:
            assert _errors(doc) == [f"{key}: task {task} does not read it"]
        elif key != "preset":
            if key in ("scenario", "billiard"):
                del doc["preset"]      # a space object replaces the preset
            cli.parse_config(doc)
    for key, value in _NUMERICS.items():
        doc = dict(base, numerics={key: value})
        if key in numerics:
            assert cli.parse_config(doc).numerics[key] == value
        else:
            where = "numerics." + key if "numerics" in top else "numerics"
            assert _errors(doc) == [f"{where}: task {task} does not read it"]
    assert set(cli.parse_config(base).numerics) == numerics


@pytest.mark.parametrize("doc, unread", [
    ({"task": "simulate", "preset": "torus3_constant", "billiard": BILLIARD,
      "initial": {"q": [0.5, 0.95], "v": [1, 0]}}, ["billiard"]),
    ({"task": "orbit-stability", "preset": "two_disk_orbit", "initial": {"q": [0.5, 0.95]},
      "numerics": {"T": 3.0}}, ["initial", "numerics"]),
    ({"task": "curvature-scan", "preset": "sol_scan", "initial": {"q": [0.1, 0.2, 0.3]},
      "numerics": {"n_collisions": 5}}, ["initial", "numerics.n_collisions"]),
    ({"task": "verify", "preset": "example_1_2", "initial": {"q": [0.1, 0.2]},
      "numerics": {"T": 1.0}}, ["preset", "initial", "numerics"]),
    ({"task": "billiard", "preset": "sinai_thermostat",
      "numerics": {"T": 0.0005, "dt": 0.001, "n_collisions": 5}}, ["numerics.T", "numerics.dt"]),
], ids=["geometry_task_with_a_table", "orbit_stability_with_initial",
        "curvature_scan_with_initial", "verify_with_preset", "billiard_with_T"])
def test_main_rejects_keys_the_task_does_not_read(tmp_path, capsys, monkeypatch, doc, unread):
    monkeypatch.setattr(cli, "dispatch", lambda *a, **k: pytest.fail("dispatched"))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(doc))
    rc = cli.main([doc["task"], "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    for key in unread:
        assert f"  - {key}: task {doc['task']} does not read it" in lines
    assert not any("must be >= numerics.dt" in ln for ln in lines)
    assert not (tmp_path / "out").exists()


def test_parse_rejects_a_field_next_to_a_product_metric():
    flat1 = {"metric": {"family": "flat_torus", "periods": [1.0]}}
    doc = {"task": "simulate", "numerics": {"T": 0.01},
           "scenario": {"metric": {"family": "product", "factors": [flat1, flat1]},
                        "field": {"type": "constant", "components": [5.0, 0.0]}}}
    errors = _errors(doc)
    assert [e.split(":")[0] for e in errors] == ["scenario.field"]
    del doc["scenario"]["field"]
    assert cli.parse_config(doc).scenario.dim == 2


def test_every_readme_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) >= 2
    for block in blocks:
        cli.parse_config(block)


# -- the parser raises ConfigError and nothing else -----------------------------

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from weylflow import presets  # noqa: E402

_FOURIER = {"dim": 2, "terms": [{"k": [1, 0], "cos": 0.2, "sin": 0.1}], "periods": [1.0, 1.0]}
_NUMERICS = {"T": 1.0, "dt": 0.01, "renorm_every": 10, "seed": 3, "burn_in": 0.0,
             "n_points": 2, "n_planes": 2, "n_collisions": 5}


def _numerics(task):
    """The values of _NUMERICS that the task reads."""
    return {k: v for k, v in _NUMERICS.items() if k in cli.TASKS[task].numerics}


PRESET_CONFIGS = (
    [{"task": "lyapunov", "preset": name, "numerics": _numerics("lyapunov"),
      "output": {"directory": "out"}}
     for name in sorted(presets.GEOMETRY_PRESETS)]
    + [{"task": "billiard", "preset": name, "initial": {"q": [0.5, 0.95], "v": [1, 0]},
        "numerics": _numerics("billiard")} for name in sorted(presets.BILLIARD_PRESETS)]
    + [{"task": "simulate", "initial": {"q": [0.1, 0.2], "v": [0.6, 0.8]},
        "numerics": _numerics("simulate"), "scenario": doc} for doc in (
        MINIMAL["scenario"],
        {"metric": {"family": "constant_curvature_chart", "curvature": -1.0, "dim": 2},
         "field": {"type": "gradient_of_potential", "potential": _FOURIER}},
        {"metric": {"family": "conformal_torus", "sigma": _FOURIER, "periods": [1.0, 2.0]},
         "field": {"type": "fourier", "components": [_FOURIER, _FOURIER]}},
        {"metric": {"family": "product", "factors": [
            {"metric": {"family": "flat_torus", "periods": [1.0]},
             "field": {"type": "zero"}},
            {"metric": {"family": "flat_torus", "periods": [1.0]},
             "field": {"type": "closed_one_form", "covector": [0.3]}}]}},
    )]
    + [{"task": "simulate", "initial": {"q": [0.1, 0.2, 0.3]}, "scenario": {
        "metric": {"family": "sol_group"},
        "field": {"type": "sol_left_invariant", "coefficients": [0.0, 0.0, 1.0]}}},
       {"task": "orbit-stability", "billiard": TWO_DISK}]
)

_leaf = (st.none() | st.booleans() | st.integers() | st.floats()
         | st.text(max_size=6) | st.sampled_from(["flat_torus", "product", "zero", "csv"]))
_json = st.recursive(_leaf, lambda kids: st.lists(kids, max_size=4)
                     | st.dictionaries(st.text(max_size=6), kids, max_size=4),
                     max_leaves=16)
FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def _parse_only_config_error(doc):
    try:
        cli.parse_config(doc)
    except ConfigError:
        pass


def _slots(node):
    """Every (container, key) in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def _mutated_preset(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(PRESET_CONFIGS))))
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(list(_slots(doc))))
        action = draw(st.sampled_from(["replace", "replace", "delete", "insert"]))
        if action == "replace":
            node[key] = draw(_json)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.text(max_size=6))] = draw(_json)
        else:
            node.insert(key, draw(_json))
        if not doc:
            break
    return doc


@FUZZ
@given(doc=_json)
def test_parse_config_raises_only_config_error_on_arbitrary_documents(doc):
    _parse_only_config_error(doc)
    _parse_only_config_error(json.dumps(doc))


@FUZZ
@given(doc=_mutated_preset())
def test_parse_config_raises_only_config_error_on_mutated_presets(doc):
    _parse_only_config_error(doc)
