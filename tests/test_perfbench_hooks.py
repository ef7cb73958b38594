"""The package names that the benchmark in perfbench/ wraps or reads.

perfbench/spans.py wraps each of its TARGETS by ``owner.__dict__[attr]``, so a
method deleted or moved from the package breaks every traced run with a
KeyError; perfbench/workloads.py reads a few more names directly.  These tests
keep both in step with the package.
"""
import importlib
from pathlib import Path

import numpy as np
import pytest

from weylflow import billiards, presets, tangent
from weylflow.errors import DegenerateMetricError
from weylflow.metrics import MetricFamily
from weylflow.scenario import constant_curvature_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_tracer_wraps_every_target_and_restores_the_originals(spans):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in spans.TARGETS if attr not in owner.__dict__]
    assert not missing
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans.TARGETS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for owner, attr, fn in originals:
            assert owner.__dict__[attr] is not fn, attr
    finally:
        tracer.uninstall()
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn, attr


def test_names_the_workloads_read_exist():
    sc = constant_curvature_scenario(-1.0, 2)
    sc.metric_family.check_point(np.array([0.1, 0.2]))
    with pytest.raises(DegenerateMetricError):
        sc.metric_family.check_point(np.array([2.0, 0.0]))
    assert "check_point" in MetricFamily.__dict__

    table = presets.sinai_thermostat()
    flight = billiards.ThermostatFlight(np.array([0.1, 0.2]), np.array([0.6, 0.8]), table.a)
    t = np.array([0.0, 0.1])
    assert flight.vel(t).shape == flight.pos(t).shape == (2, 2)
    # workloads.py turns aligned flight positions to world coordinates by @ _rot
    aligned = flight.pos(t)
    world = np.array([table.from_aligned(p) for p in aligned])
    assert np.abs(aligned @ table._rot - world).max() < 1e-14

    tv = tangent.TangentVector(0.0, np.ones(1), np.zeros(1))
    assert tv.xi0 == 0.0


def test_every_benchmark_config_parses(monkeypatch, tmp_path):
    """build_ops parses each task config with cli.parse_config, so a config that
    the parser rejects raises ConfigError here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert sorted(workloads.BUILDERS) == ["curvature_census", "flow_curved", "flow_light",
                                          "lorentz_gas"]
    for workload in workloads.BUILDERS:
        assert workloads.build_ops(workload, 0, tmp_path / workload)
