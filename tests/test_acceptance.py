"""Acceptance suite: one test per criterion, each printing its pass/fail line.

The full criteria pass runs once in a session fixture; the final criterion
reruns the suite and requires byte-identical serialized results, then writes
both passes through the CLI emitters and compares the files.
"""
import json

import numpy as np
import pytest

from weylflow import acceptance, cli

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="session")
def first_pass():
    return acceptance.run_pass()


def _check(results, criterion):
    res = next(r for r in results if r.criterion == criterion)
    print(f"criterion {criterion:2d} [{'PASS' if res.passed else 'FAIL'}] "
          f"{res.name}: {res.detail}")
    assert res.passed, res.detail
    return res


def test_criterion_01_example_curve(first_pass):
    res = _check(first_pass, 1)
    assert res.measured["max_error"] < 1e-6


def test_criterion_02_attractor_alignment(first_pass):
    res = _check(first_pass, 2)
    assert res.measured["angle_forward"] < 1e-4
    assert res.measured["angle_reversed"] < 1e-4


def test_criterion_03_curvature_consistency(first_pass):
    res = _check(first_pass, 3)
    assert res.measured["route_gap"] < 1e-6
    assert res.measured["compatibility"] < 1e-8


def test_criterion_04_torus_curvature_signs(first_pass):
    res = _check(first_pass, 4)
    assert res.measured["eplane_max"] < 1e-9
    assert res.measured["count_positive"] == 0


def test_criterion_05_geodesic_exponents(first_pass):
    res = _check(first_pass, 5)
    exps = np.array(res.measured["exponents"])
    assert np.abs(exps - np.array([1.0, -1.0])).max() < 0.02


def test_criterion_06_pairing(first_pass):
    res = _check(first_pass, 6)
    assert res.measured["trace_worst"] < 0.02
    assert res.measured["pair_gap"] < 0.02
    assert res.measured["sbar_gap"] < 0.02


def test_criterion_07_isoenergetic_reduction(first_pass):
    res = _check(first_pass, 7)
    assert res.measured["reduction_gap"] < 1e-6
    assert res.measured["maupertuis_gap"] < 1e-6


def test_criterion_08_transformed_hamiltonian(first_pass):
    res = _check(first_pass, 8)
    assert res.measured["H_drift"] < 1e-8
    assert res.measured["hamilton_residual"] < 1e-5


def test_criterion_09_jform_identity(first_pass):
    res = _check(first_pass, 9)
    assert res.measured["worst_relative_residual"] < 1e-5
    assert res.measured["crossing_failures"] == 0
    assert res.measured["crossings"] > 0


def test_criterion_10_billiard_block(first_pass):
    res = _check(first_pass, 10)
    assert res.measured["flight_oracle"] < 1e-8
    assert res.measured["lambda1"] > 0
    assert res.measured["exp_residual"] < 1e-9


def test_criterion_11_two_disk_orbit(first_pass):
    res = _check(first_pass, 11)
    assert res.measured["trace_gap"] < 1e-8
    assert res.measured["first_elliptic_re"] is not None
    assert res.measured["first_elliptic_re"] > 1.0
    assert res.measured["unit_circle_gap"] < 1e-8


def test_criterion_12_reversibility_and_determinism(first_pass, tmp_path):
    res = _check(first_pass, 12)
    assert res.measured["roundtrip_worst"] < 1e-6

    second_pass = acceptance.run_pass()
    assert acceptance.serialize_results(first_pass) == \
        acceptance.serialize_results(second_pass), "repeated runs differ"

    # the emitted files must be byte-identical as well
    for name, results in (("a", first_pass), ("b", second_pass)):
        outdir = tmp_path / name
        outdir.mkdir()
        rows = [[r.criterion, r.name, "PASS" if r.passed else "FAIL",
                 '"' + r.detail.replace('"', "'") + '"'] for r in results]
        (outdir / "criteria.csv").write_text(
            cli._csv(rows, ["criterion", "name", "passed", "detail"]))
        (outdir / "results.json").write_text(
            cli._json_text([r.as_row() for r in results]))
    assert (tmp_path / "a" / "criteria.csv").read_bytes() == \
        (tmp_path / "b" / "criteria.csv").read_bytes()
    assert (tmp_path / "a" / "results.json").read_bytes() == \
        (tmp_path / "b" / "results.json").read_bytes()
    print("criterion 12 determinism: repeated passes byte-identical")
