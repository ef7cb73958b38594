import json

import numpy as np
import pytest

from weylflow import cli
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


BILLIARD = {"periods": [1.0, 1.0],
            "scatterers": [{"center": [0.25, 0.25], "radius": 0.36},
                           {"center": [0.75, 0.75], "radius": 0.2}],
            "field_magnitude": 0.5}


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


def test_main_rejects_burn_in_past_T(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"task": "lyapunov", "preset": "example_1_2",
                                    "numerics": {"T": 0.1, "dt": 0.001, "burn_in": 0.2}}))
    rc = cli.main(["lyapunov", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerics.burn_in" in err and "numerics.T" in err
    assert not (tmp_path / "out").exists()


def test_parse_rejects_non_finite_numbers():
    # Python's json module reads NaN and Infinity
    doc = {"task": "billiard", "numerics": {"T": float("inf")},
           "billiard": dict(BILLIARD, scatterers=[{"center": [0.5, float("nan")],
                                                   "radius": 0.2}])}
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps(doc))
    msgs = "\n".join(err.value.errors)
    assert "numerics.T" in msgs
    assert "billiard.scatterers[0].center" in msgs
