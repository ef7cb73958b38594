"""Command line: scenario configuration, task dispatch, deterministic output.

Usage:  weylflow <task> --config <path> [--out <dir>]
        weylflow verify [--out <dir>]

Tasks: simulate, lyapunov, curvature-scan, billiard, orbit-stability, verify.
Configs are strict JSON: unknown keys are rejected and every validation error
is reported, not just the first.  Outputs are CSV/JSON with fixed float
formatting (17 significant digits) so identical configs produce byte-identical
files; the manifest records a digest of everything written.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, acceptance, billiards, flows, geometry, presets, tangent
from .errors import ConfigError, WeylflowError
from .fields import (
    ClosedOneFormField,
    ConstantField,
    FourierComponentsField,
    FourierField,
    GradientField,
    SolLeftInvariantField,
    ZeroField,
)
from .metrics import ConformalTorus, ConstantCurvatureChart, FlatTorus, SolGroup
from .scenario import WeylScenario, product_scenario

TASKS = ("simulate", "lyapunov", "curvature-scan", "billiard",
         "orbit-stability", "verify")

MAX_DIM = 8   # largest manifold dimension a config may ask for (arrays grow as n^4)

# numerics key: (default, rule), the rule in _number's keywords; checked in this order
NUMERICS = {
    "dt": (1e-3, {"positive": True}),
    "T": (100.0, {"positive": True}),
    "renorm_every": (10, {"positive": True, "integer": True}),
    "seed": (0, {"integer": True, "nonnegative": True}),
    "n_collisions": (1000, {"positive": True, "integer": True}),
    "n_points": (100, {"positive": True, "integer": True}),
    "n_planes": (100, {"positive": True, "integer": True}),
    "burn_in": (0.0, {"nonnegative": True}),
}


@dataclass
class RunConfig:
    task: str
    preset: str
    scenario: object
    table: object
    initial: dict
    numerics: dict
    output: dict
    echo: dict


FLOAT_FORMAT = "%.17g"   # 17 significant digits: every float64 reads back exactly


def fmt(x):
    """Fixed 17-significant-digit float formatting for reproducible CSV."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return FLOAT_FORMAT % float(x)


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

def _check_keys(obj, allowed, path, errors):
    for key in obj:
        if key not in allowed:
            errors.append(f"{path}: unknown key {key!r}")


def _finite(x):
    """True for an int or float (not a bool) that converts to a finite float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _number(obj, key, path, errors, default=None, positive=False, integer=False,
            nonnegative=False):
    if key not in obj:
        return default
    val = obj[key]
    if not _finite(val):
        errors.append(f"{path}.{key}: expected a finite number, got {val!r}")
        return default
    if integer and not float(val).is_integer():
        errors.append(f"{path}.{key}: expected an integer, got {val!r}")
        return default
    if positive and val <= 0:
        errors.append(f"{path}.{key}: must be positive, got {val!r}")
        return default
    if nonnegative and val < 0:
        errors.append(f"{path}.{key}: must be >= 0, got {val!r}")
        return default
    return int(val) if integer else float(val)


def _vector(obj, key, path, errors, required=False):
    if key not in obj:
        if required:
            errors.append(f"{path}.{key}: missing")
        return None
    val = obj[key]
    if not isinstance(val, list) or not val or not all(_finite(x) for x in val):
        errors.append(f"{path}.{key}: expected a list of finite numbers")
        return None
    return [float(x) for x in val]


def _dimension(obj, key, path, errors, default=None):
    """A manifold dimension: an integer in 1..MAX_DIM."""
    n = _number(obj, key, path, errors, default=default, positive=True, integer=True)
    if n is not None and n > MAX_DIM:
        errors.append(f"{path}.{key}: at most {MAX_DIM}, got {n}")
        return None
    return n


def _periods(obj, path, errors, dim=None):
    """Optional torus periods: positive numbers, dim of them when dim is given."""
    periods = _vector(obj, "periods", path, errors)
    if periods is None:
        return None
    if ((dim is not None and len(periods) != dim) or len(periods) > MAX_DIM
            or min(periods) <= 0):
        want = dim if dim is not None else f"1 to {MAX_DIM}"
        errors.append(f"{path}.periods: expected {want} positive numbers, got {periods!r}")
        return None
    return periods


def _parse_fourier(doc, path, errors, dim=None):
    """Fourier series object; dim, when given, is the dimension it must have."""
    if not isinstance(doc, dict):
        errors.append(f"{path}: expected an object")
        return None
    n_errors = len(errors)
    _check_keys(doc, {"dim", "terms", "periods"}, path, errors)
    fdim = _dimension(doc, "dim", path, errors)
    if fdim is None:
        if "dim" not in doc:
            errors.append(f"{path}.dim: missing")
        return None
    if dim is not None and fdim != dim:
        errors.append(f"{path}.dim: expected {dim}, got {fdim}")
        return None
    terms = []
    term_docs = doc.get("terms", [])
    if not isinstance(term_docs, list):
        errors.append(f"{path}.terms: expected a list of term objects")
        term_docs = []
    for i, term in enumerate(term_docs):
        tpath = f"{path}.terms[{i}]"
        if not isinstance(term, dict):
            errors.append(f"{tpath}: expected an object")
            continue
        _check_keys(term, {"k", "cos", "sin"}, tpath, errors)
        k = _vector(term, "k", tpath, errors, required=True)
        if k is None or len(k) != fdim or not all(x.is_integer() for x in k):
            errors.append(f"{tpath}.k: expected {fdim} integers")
            continue
        terms.append((tuple(int(x) for x in k),
                      _number(term, "cos", tpath, errors, default=0.0),
                      _number(term, "sin", tpath, errors, default=0.0)))
    periods = _periods(doc, path, errors, fdim)
    if len(errors) > n_errors:
        return None
    return FourierField(fdim, terms, periods=periods)


def _parse_field(doc, dim, path, errors):
    if doc is None:
        return ZeroField(dim)
    if not isinstance(doc, dict):
        errors.append(f"{path}: expected an object")
        return None
    exclusive = {"components", "potential", "covector", "coefficients"}
    present = sorted(exclusive & set(doc))
    if len(present) > 1:
        errors.append(f"{path}: mutually exclusive field data {present}; give exactly one")
        return None
    ftype = doc.get("type")
    if ftype == "zero":
        _check_keys(doc, {"type"}, path, errors)
        return ZeroField(dim)
    if ftype == "constant":
        _check_keys(doc, {"type", "components"}, path, errors)
        comp = _vector(doc, "components", path, errors, required=True)
        if comp is not None and len(comp) != dim:
            errors.append(f"{path}.components: expected length {dim}")
            return None
        return None if comp is None else ConstantField(comp)
    if ftype == "gradient_of_potential":
        _check_keys(doc, {"type", "potential"}, path, errors)
        if "potential" not in doc:
            errors.append(f"{path}.potential: missing")
            return None
        U = _parse_fourier(doc["potential"], f"{path}.potential", errors, dim)
        return None if U is None else GradientField(U)
    if ftype == "fourier":
        _check_keys(doc, {"type", "components"}, path, errors)
        comps = doc.get("components")
        if not isinstance(comps, list) or len(comps) != dim:
            errors.append(f"{path}.components: expected {dim} fourier objects")
            return None
        fields = [_parse_fourier(c, f"{path}.components[{i}]", errors, dim)
                  for i, c in enumerate(comps)]
        if any(f is None for f in fields):
            return None
        return FourierComponentsField(fields)
    if ftype == "closed_one_form":
        _check_keys(doc, {"type", "covector"}, path, errors)
        cov = _vector(doc, "covector", path, errors, required=True)
        if cov is not None and len(cov) != dim:
            errors.append(f"{path}.covector: expected length {dim}")
            return None
        return None if cov is None else ClosedOneFormField(cov)
    if ftype == "sol_left_invariant":
        _check_keys(doc, {"type", "coefficients"}, path, errors)
        c = _vector(doc, "coefficients", path, errors, required=True)
        if c is not None and len(c) != 3:
            errors.append(f"{path}.coefficients: expected length 3")
            return None
        if dim != 3:
            errors.append(f"{path}.type: sol_left_invariant needs a 3-dimensional metric")
            return None
        return None if c is None else SolLeftInvariantField(*c)
    errors.append(f"{path}.type: unknown field type {ftype!r}")
    return None


def _parse_scenario(doc, path, errors):
    if not isinstance(doc, dict):
        errors.append(f"{path}: expected an object")
        return None
    _check_keys(doc, {"metric", "field"}, path, errors)
    metric_doc = doc.get("metric")
    if not isinstance(metric_doc, dict):
        errors.append(f"{path}.metric: missing or not an object")
        return None
    family = metric_doc.get("family")
    mpath = f"{path}.metric"
    fam = None
    if family == "flat_torus":
        _check_keys(metric_doc, {"family", "periods"}, mpath, errors)
        periods = _periods(metric_doc, mpath, errors)
        if periods is not None or "periods" not in metric_doc:
            fam = FlatTorus(periods or [1.0, 1.0])
    elif family == "constant_curvature_chart":
        _check_keys(metric_doc, {"family", "curvature", "dim"}, mpath, errors)
        K = _number(metric_doc, "curvature", mpath, errors)
        n = _dimension(metric_doc, "dim", mpath, errors, default=2)
        if K is None and "curvature" not in metric_doc:
            errors.append(f"{mpath}.curvature: missing")
        elif K is not None and n is not None:
            fam = ConstantCurvatureChart(K, n)
    elif family == "sol_group":
        _check_keys(metric_doc, {"family"}, mpath, errors)
        fam = SolGroup()
    elif family == "conformal_torus":
        _check_keys(metric_doc, {"family", "sigma", "periods"}, mpath, errors)
        if "sigma" not in metric_doc:
            errors.append(f"{mpath}.sigma: missing")
        else:
            sigma = _parse_fourier(metric_doc["sigma"], f"{mpath}.sigma", errors)
            periods = None if sigma is None else _periods(metric_doc, mpath, errors, sigma.dim)
            if sigma is not None and (periods is not None or "periods" not in metric_doc):
                fam = ConformalTorus(sigma, periods)
    elif family == "product":
        _check_keys(metric_doc, {"family", "factors"}, mpath, errors)
        factors = metric_doc.get("factors")
        if not isinstance(factors, list) or len(factors) != 2:
            errors.append(f"{mpath}.factors: expected two scenario objects")
        else:
            s1 = _parse_scenario(factors[0], f"{mpath}.factors[0]", errors)
            s2 = _parse_scenario(factors[1], f"{mpath}.factors[1]", errors)
            if s1 is not None and s2 is not None:
                if s1.dim + s2.dim > MAX_DIM:
                    errors.append(f"{mpath}.factors: at most {MAX_DIM} dimensions in all,"
                                  f" got {s1.dim + s2.dim}")
                    return None
                return product_scenario(s1, s2)
        return None
    else:
        errors.append(f"{mpath}.family: unknown metric family {family!r}")
    if fam is None:
        return None
    field = _parse_field(doc.get("field"), fam.dim, f"{path}.field", errors)
    if field is None and doc.get("field") is not None:
        return None
    try:
        return WeylScenario(fam, field)
    except WeylflowError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _parse_table(doc, path, errors):
    if not isinstance(doc, dict):
        errors.append(f"{path}: expected an object")
        return None
    _check_keys(doc, {"periods", "scatterers", "field_magnitude", "field_angle"},
                path, errors)
    periods = _vector(doc, "periods", path, errors) or [1.0, 1.0]
    if len(periods) != 2 or min(periods) <= 0:
        errors.append(f"{path}.periods: expected two positive numbers, got {periods!r}")
    mag = _number(doc, "field_magnitude", path, errors, nonnegative=True, default=0.0)
    angle = _number(doc, "field_angle", path, errors, default=0.0)
    scats = []
    scat_docs = doc.get("scatterers")
    if not isinstance(scat_docs, list) or not scat_docs:
        errors.append(f"{path}.scatterers: expected a non-empty list of scatterers")
        scat_docs = []
    for i, s in enumerate(scat_docs):
        spath = f"{path}.scatterers[{i}]"
        if not isinstance(s, dict):
            errors.append(f"{spath}: expected an object")
            continue
        _check_keys(s, {"center", "radius"}, spath, errors)
        center = _vector(s, "center", spath, errors, required=True)
        if center is not None and len(center) != 2:
            errors.append(f"{spath}.center: expected 2 numbers, got {len(center)}")
            center = None
        radius = _number(s, "radius", spath, errors, positive=True)
        if radius is None and "radius" not in s:
            errors.append(f"{spath}.radius: missing")
        if center is not None and radius is not None:
            scats.append((center, radius))
    if errors:
        return None
    try:
        return billiards.BilliardTable(periods, scats, mag, angle)
    except WeylflowError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _check_initial(initial, scenario, table, errors):
    """Initial q and v: the dimension of the space, v nonzero, q outside the scatterers."""
    dim = 2 if table is not None else scenario.dim
    q, v = initial.get("q"), initial.get("v")
    if q is not None and len(q) != dim:
        errors.append(f"initial.q: expected {dim} numbers, got {len(q)}")
        q = None
    if v is not None and len(v) != dim:
        errors.append(f"initial.v: expected {dim} numbers, got {len(v)}")
    elif v is not None and not any(v):
        errors.append("initial.v: must be nonzero")
    if table is not None and q is not None and not table.outside(np.asarray(q), tol=1e-12):
        errors.append(f"initial.q: {q} lies inside a scatterer")


def parse_config(document):
    """Validate a JSON config document (text or dict); returns a RunConfig.

    Raises ConfigError carrying the full list of validation errors, and no
    other exception.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
        except (ValueError, RecursionError) as exc:
            raise ConfigError([f"unreadable document: {exc}"])
    else:
        doc = document
    try:
        return _parse_document(doc)
    except RecursionError:
        raise ConfigError(["document nested too deeply"]) from None


def _parse_document(doc):
    errors = []
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected a JSON object"])
    _check_keys(doc, {"task", "preset", "scenario", "billiard", "initial",
                      "numerics", "output"}, "top level", errors)

    task = doc.get("task")
    if task not in TASKS:
        errors.append(f"task: expected one of {TASKS}, got {task!r}")

    ndoc = doc.get("numerics", {})
    if not isinstance(ndoc, dict):
        errors.append("numerics: expected an object")
        ndoc = {}
    _check_keys(ndoc, NUMERICS, "numerics", errors)
    numerics = {key: _number(ndoc, key, "numerics", errors, default=default, **rule)
                for key, (default, rule) in NUMERICS.items()}
    if numerics["T"] < numerics["dt"]:
        errors.append(f"numerics.T: must be >= numerics.dt, got T={numerics['T']!r}"
                      f" and dt={numerics['dt']!r}")
    if numerics["burn_in"] >= numerics["T"]:
        errors.append(f"numerics.burn_in: must be < numerics.T, got burn_in="
                      f"{numerics['burn_in']!r} and T={numerics['T']!r}")
    elif numerics["T"] >= numerics["dt"] and math.isfinite(numerics["T"] / numerics["dt"]):
        # the burn-in ends at a renormalization event; one must come before the last step
        burn = tangent.burn_steps(numerics["burn_in"], numerics["dt"], numerics["renorm_every"])
        n_steps = flows.step_count(numerics["T"], numerics["dt"])
        if burn >= n_steps:
            errors.append(f"numerics.burn_in: rounds up to step {burn} (a renormalization event"
                          f" every numerics.renorm_every={numerics['renorm_every']} steps),"
                          f" leaving none of the {n_steps} steps of numerics.T to average over")

    output = {"directory": ".", "formats": ["csv", "json"]}
    odoc = doc.get("output", {})
    if not isinstance(odoc, dict):
        errors.append("output: expected an object")
        odoc = {}
    _check_keys(odoc, {"directory", "formats"}, "output", errors)
    if "directory" in odoc:
        if not isinstance(odoc["directory"], str):
            errors.append("output.directory: expected a string")
        else:
            output["directory"] = odoc["directory"]
    if "formats" in odoc:
        if (not isinstance(odoc["formats"], list)
                or not all(f in ("csv", "json") for f in odoc["formats"])):
            errors.append("output.formats: expected a sublist of ['csv', 'json']")
        else:
            output["formats"] = list(odoc["formats"])

    preset = doc.get("preset")
    scenario = None
    table = None
    if preset is not None and "scenario" in doc:
        errors.append("preset and scenario are mutually exclusive")
    if preset is not None:
        if not isinstance(preset, str):
            errors.append(f"preset: expected a preset name, got {preset!r}")
        elif preset in presets.GEOMETRY_PRESETS:
            scenario = presets.scenario_preset(preset)
        elif preset in presets.BILLIARD_PRESETS:
            table = presets.billiard_preset(preset)
        else:
            errors.append(f"preset: unknown preset {preset!r}")
    if "scenario" in doc:
        scenario = _parse_scenario(doc["scenario"], "scenario", errors)
    if "billiard" in doc:
        table = _parse_table(doc["billiard"], "billiard", errors)

    initial = {}
    idoc = doc.get("initial", {})
    if not isinstance(idoc, dict):
        errors.append("initial: expected an object")
        idoc = {}
    _check_keys(idoc, {"q", "v"}, "initial", errors)
    if "q" in idoc:
        initial["q"] = _vector(idoc, "q", "initial", errors, required=True)
    if "v" in idoc:
        initial["v"] = _vector(idoc, "v", "initial", errors, required=True)
    if scenario is not None or table is not None:
        _check_initial(initial, scenario, table, errors)

    if task in ("simulate", "lyapunov", "curvature-scan") and scenario is None and not errors:
        errors.append(f"{task}: needs a scenario or a geometry preset")
    if task in ("billiard", "orbit-stability") and table is None and not errors:
        errors.append(f"{task}: needs a billiard table or billiard preset")

    if errors:
        raise ConfigError(errors)
    return RunConfig(task=task, preset=preset, scenario=scenario, table=table,
                     initial=initial, numerics=numerics, output=output, echo=doc)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_text(path, text):
    data = text.encode("utf-8")
    path.write_bytes(data)
    return {"name": path.name, "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data)}


def _cell_format(cls):
    """The % conversion of one CSV cell type: fmt's rule for numbers, str otherwise."""
    if issubclass(cls, (int, np.integer)):      # bool too: "%d" % True == "1"
        return "%d"
    if issubclass(cls, (float, np.floating)):
        return FLOAT_FORMAT
    return "%s"


@functools.cache
def _row_format(types):
    """One % format string for a whole row, from its tuple of cell types."""
    return ",".join(map(_cell_format, types))


def _csv(rows, header):
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        lines.append(_row_format(tuple(map(type, row))) % row)
    return "\n".join(lines) + "\n"


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2,
                      default=acceptance._json_default) + "\n"


def _initial_state(cfg):
    sc = cfg.scenario
    if "q" in cfg.initial and "v" in cfg.initial:
        q = np.asarray(cfg.initial["q"], dtype=float)
        v = np.asarray(cfg.initial["v"], dtype=float)
        v = v / sc.norm(q, v)
        return flows.PhaseState(q, v)
    q, v = presets.default_initial_state(sc, seed=cfg.numerics["seed"])
    return flows.PhaseState(q, v)


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------

def _task_simulate(cfg, outdir):
    state = _initial_state(cfg)
    traj = flows.integrate(cfg.scenario, state, T=cfg.numerics["T"],
                           dt=cfg.numerics["dt"])
    n = cfg.scenario.dim
    header = (["t"] + [f"q{i}" for i in range(n)] + [f"v{i}" for i in range(n)]
              + ["speed_residual", "energy_residual", "int_phi"])
    rows = np.column_stack([traj.times, traj.q, traj.v, traj.speed_residual,
                            traj.energy_residual, traj.int_phi]).tolist()
    files = [_write_text(outdir / "trajectory.csv", _csv(rows, header))]
    summary = {
        "samples": len(traj.times),
        "final_q": traj.q[-1].tolist(),
        "final_v": traj.v[-1].tolist(),
        "max_speed_residual": float(np.abs(traj.speed_residual).max()),
        "int_phi_final": float(traj.int_phi[-1]),
    }
    return files, summary


def _task_lyapunov(cfg, outdir):
    state = _initial_state(cfg)
    rep = tangent.lyapunov_spectrum(cfg.scenario, state, T=cfg.numerics["T"],
                                    dt=cfg.numerics["dt"],
                                    renorm_every=cfg.numerics["renorm_every"],
                                    burn_in=cfg.numerics["burn_in"])
    k = len(rep.exponents)
    lines = [f"# weylflow lyapunov run: T={fmt(rep.T)} dt={fmt(rep.dt)} "
             f"renorm_every={rep.renorm_every} seed={cfg.numerics['seed']} "
             f"finite_time={'yes' if rep.finite_time else 'no'}"]
    header = ["t"] + [f"lambda{i + 1}" for i in range(k)] + ["sbar_running", "jsep_margin"]
    rows = [
        [rep.window_times[i], *rep.window_exponents[i], rep.window_sbar[i],
         rep.window_jsep[i]]
        for i in range(len(rep.window_times))
    ]
    csv_text = lines[0] + "\n" + _csv(rows, header)
    report = {
        "exponents": rep.exponents.tolist(),
        "sbar": rep.sbar,
        "pairing_residual": rep.pairing_residual,
        "trace_residual": rep.trace_residual,
        "mean_jsep_margin": rep.mean_jsep_margin,
        "volume_growth": rep.volume_growth,
        "volume_decay": rep.volume_decay,
        "T": rep.T, "dt": rep.dt, "renorm_every": rep.renorm_every,
        "seed": cfg.numerics["seed"], "finite_time": rep.finite_time,
    }
    files = [_write_text(outdir / "lyapunov.csv", csv_text),
             _write_text(outdir / "lyapunov.json", _json_text(report))]
    return files, report


def _task_curvature_scan(cfg, outdir):
    census = geometry.curvature_sign_scan(
        cfg.scenario, n_points=cfg.numerics["n_points"],
        n_planes=cfg.numerics["n_planes"], seed=cfg.numerics["seed"],
        include_field_planes=True)
    n = cfg.scenario.dim
    header = ([f"q{i}" for i in range(n)] + [f"X{i}" for i in range(n)]
              + [f"Y{i}" for i in range(n)]
              + ["K", "Khat_tensor", "Khat_formula", "margin"])
    s = census.samples
    rows = np.column_stack([s.q, s.X, s.Y, s.K, s.Khat_tensor, s.Khat, s.margin]).tolist()
    summary = {
        "min": census.min, "max": census.max,
        "count_negative": census.count_negative,
        "count_zero": census.count_zero,
        "count_positive": census.count_positive,
        "samples": len(rows),
    }
    files = [_write_text(outdir / "curvature_scan.csv", _csv(rows, header)),
             _write_text(outdir / "census.json", _json_text(summary))]
    return files, summary


def _task_billiard(cfg, outdir):
    rng = np.random.default_rng(np.random.Philox(cfg.numerics["seed"]))
    table = cfg.table
    if "q" in cfg.initial:
        q0 = np.asarray(cfg.initial["q"], dtype=float)
    else:
        while True:
            q0 = rng.uniform(0, table.periods)
            if table.outside(q0, tol=1e-9):
                break
    if "v" in cfg.initial:
        v0 = np.asarray(cfg.initial["v"], dtype=float)
    else:
        th = rng.uniform(0, 2 * np.pi)
        v0 = np.array([np.cos(th), np.sin(th)])
    run = billiards.run_billiard(table, q0, v0, cfg.numerics["n_collisions"],
                                 with_tangent=True)
    header = ["index", "t", "scatterer", "impact_x", "impact_y",
              "angle_in", "angle_out"]
    events = run.events
    p = table.wrap(np.array([ev.point for ev in events]))
    v_in = np.array([ev.v_in for ev in events])
    v_out = np.array([ev.v_out for ev in events])
    rows = zip(range(len(events)), run.collision_times.tolist(),
               [ev.scatterer for ev in events], p[:, 0].tolist(), p[:, 1].tolist(),
               np.arctan2(v_in[:, 1], v_in[:, 0]).tolist(),
               np.arctan2(v_out[:, 1], v_out[:, 0]).tolist())
    conv = billiards.weyl_convexity(table)
    summary = {
        "collisions": len(run.events),
        "total_time": run.total_time,
        "lambda1": run.lambda1,
        "grazing_count": run.grazing_count,
        "open_flights": run.open_count,
        "convexity_margin": conv.margin,
        "horizon_finite": table.horizon_finite,
    }
    files = [_write_text(outdir / "collisions.csv", _csv(rows, header)),
             _write_text(outdir / "billiard.json", _json_text(summary))]
    return files, summary


def _task_orbit_stability(cfg, outdir):
    table = cfg.table
    st = billiards.periodic_orbit_stability(table)
    report = {
        "trace": st.trace,
        "eigenvalues_real": [float(np.real(e)) for e in st.eigenvalues],
        "eigenvalues_imag": [float(np.imag(e)) for e in st.eigenvalues],
        "classification": st.classification,
        "period": st.period,
        "re_product": st.re_product,
    }
    radius = min(s.radius for s in table.scatterers)
    gap = st.period / 2.0
    rows = []
    for re_val in np.linspace(0.0, 2.0, 21):
        tb = presets.two_disk_orbit(re_val, radius=radius, gap=gap)
        s = billiards.periodic_orbit_stability(tb)
        lam1 = float(np.log(np.abs(s.eigenvalues)).max() / s.period)
        rows.append([re_val, lam1, 1 if s.classification == "elliptic" else 0])
    header = ["parameter", "lambda1", "elliptic_flag"]
    files = [_write_text(outdir / "orbit.json", _json_text(report)),
             _write_text(outdir / "orbit_sweep.csv", _csv(rows, header))]
    return files, report


def _task_verify(cfg, outdir):
    results = acceptance.run_all(
        progress=lambda line: print(line, file=sys.stderr, flush=True))
    header = ["criterion", "name", "passed", "detail"]
    rows = [[r.criterion, r.name, "PASS" if r.passed else "FAIL",
             '"' + r.detail.replace('"', "'") + '"'] for r in results]
    report = [r.as_row() for r in results]
    files = [_write_text(outdir / "criteria.csv", _csv(rows, header)),
             _write_text(outdir / "results.json", _json_text(report))]
    summary = {
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
        "criteria": {str(r.criterion): ("PASS" if r.passed else "FAIL")
                     for r in results},
    }
    for r in results:
        print(f"criterion {r.criterion:2d} [{'PASS' if r.passed else 'FAIL'}] "
              f"{r.name}: {r.detail}")
    return files, summary


RUNNERS = {
    "simulate": _task_simulate,
    "lyapunov": _task_lyapunov,
    "curvature-scan": _task_curvature_scan,
    "billiard": _task_billiard,
    "orbit-stability": _task_orbit_stability,
    "verify": _task_verify,
}


def dispatch(cfg, out_override=None):
    """Run the configured task, write outputs and the manifest; returns the
    manifest dict.  A failure of any kind is serialized into the manifest
    (error class and message) before it is re-raised."""
    outdir = Path(out_override or cfg.output["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    manifest = {
        "artifact_version": __version__,
        "task": cfg.task,
        "config": cfg.echo,
    }
    try:
        files, summary = RUNNERS[cfg.task](cfg, outdir)
    except Exception as exc:
        manifest["error"] = {"class": type(exc).__name__, "message": str(exc)}
        manifest["wall_time_s"] = time.perf_counter() - start
        (outdir / "manifest.json").write_text(_json_text(manifest), encoding="utf-8")
        raise
    manifest["files"] = files
    manifest["summary"] = summary
    manifest["wall_time_s"] = time.perf_counter() - start
    (outdir / "manifest.json").write_text(_json_text(manifest), encoding="utf-8")
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="weylflow",
        description="Thermostatted flows, Weyl curvature diagnostics and the "
                    "thermostatted Lorentz gas.")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--out", help="output directory (overrides config)")
    args = parser.parse_args(argv)

    if args.config is None:
        if args.task != "verify":
            print(f"error: task {args.task} requires --config", file=sys.stderr)
            return 2
        doc = {"task": "verify"}
    else:
        try:
            doc = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2

    try:
        cfg = parse_config(doc)
    except ConfigError as exc:
        print("configuration invalid:", file=sys.stderr)
        for err in exc.errors:
            print(f"  - {err}", file=sys.stderr)
        return 2
    if args.task != cfg.task:
        print(f"error: config task {cfg.task!r} does not match command {args.task!r}",
              file=sys.stderr)
        return 2

    try:
        manifest = dispatch(cfg, out_override=args.out)
    except Exception as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    if cfg.task == "verify" and manifest["summary"]["failed"] > 0:
        print(f"{manifest['summary']['failed']} criterion(s) FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
