"""Command line: scenario configuration, task dispatch, deterministic output.

Usage:  weylflow <task> --config <path> [--out <dir>]
        weylflow verify [--out <dir>]

Tasks: simulate, lyapunov, curvature-scan, billiard, orbit-stability, verify.
Configs are strict JSON: unknown keys and keys the task does not read are
rejected; every validation error is reported.  Outputs are CSV/JSON with fixed
float formatting (17 significant digits) so identical configs produce
byte-identical files; the manifest records a digest of everything written.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from collections import namedtuple
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


# a task: its runner run(cfg, outdir) -> (files, summary), the top-level key of the
# space it runs on (or None), whether it reads "initial", the numerics keys it reads,
# and a check(space) that raises a WeylflowError where the task cannot run (or None)
Task = namedtuple("Task", "run space initial numerics check", defaults=(None,))


@dataclass
class RunConfig:
    task: str
    scenario: object
    table: object
    initial: dict
    numerics: dict   # the numerics keys the task reads
    output: str      # the output directory
    echo: dict


FLOAT_FORMAT = "%.17g"   # 17 significant digits: every float64 reads back exactly


def fmt(x):
    """One number as one CSV cell formats it (_cell_format)."""
    return _cell_format(type(x)) % (x,)


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

# the rule of a manifold dimension, in _number's keywords
DIM = {"positive": True, "integer": True, "maximum": MAX_DIM}

# metric family: the keys it reads besides "family"
METRIC_KEYS = {
    "flat_torus": {"periods"},
    "constant_curvature_chart": {"curvature", "dim"},
    "sol_group": set(),
    "conformal_torus": {"sigma", "periods"},
    "product": {"factors"},
}

# field type whose data is one vector: its key, its builder and the metric
# dimension it needs (None: any)
VECTOR_FIELDS = {
    "constant": ("components", ConstantField, None),
    "closed_one_form": ("covector", ClosedOneFormField, None),
    "sol_left_invariant": ("coefficients", lambda c: SolLeftInvariantField(*c), 3),
}

# field type: the keys it reads besides "type"
FIELD_KEYS = {"zero": set(), "gradient_of_potential": {"potential"}, "fourier": {"components"},
              **{ftype: {key} for ftype, (key, _, _) in VECTOR_FIELDS.items()}}

_ABSENT = object()   # the value of a key that an object does not hold


def _path(path, key):
    """Key path of member key (a name, or an index into a list) of the value at path."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _lookup(doc, key, path, errors, required):
    """doc[key]; _ABSENT when doc does not hold key, which is an error when required."""
    if isinstance(key, int) or key in doc:
        return doc[key]
    if required:
        errors.append(f"{_path(path, key)}: missing")
    return _ABSENT


def _kind(doc, key, tag, kinds):
    """doc[key][tag] when it names one of kinds, else None."""
    raw = doc.get(key)
    kind = raw.get(tag) if isinstance(raw, dict) else None
    return kind if isinstance(kind, str) and kind in kinds else None


def _object(doc, key, path, errors, allowed, required=False):
    """doc[key] as an object that holds only the allowed keys.

    An absent optional object reads as {}.  An absent required object, and a
    value that is not an object, are errors and read as None.
    """
    val = _lookup(doc, key, path, errors, required)
    if val is _ABSENT:
        return None if required else {}
    where = _path(path, key)
    if not isinstance(val, dict):
        errors.append(f"{where}: expected an object")
        return None
    errors.extend(f"{where}: unknown key {k!r}" for k in val if k not in allowed)
    return val


def _finite(x):
    """True for an int or float (not a bool) that converts to a finite float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _number(doc, key, path, errors, default=None, required=False, positive=False,
            integer=False, nonnegative=False, maximum=None):
    """doc[key] as a finite number that keeps the rules; default when absent or bad."""
    val = _lookup(doc, key, path, errors, required)
    if val is _ABSENT:
        return default
    where = _path(path, key)
    if not _finite(val):
        errors.append(f"{where}: expected a finite number, got {val!r}")
        return default
    if integer and not float(val).is_integer():
        errors.append(f"{where}: expected an integer, got {val!r}")
        return default
    if positive and val <= 0:
        errors.append(f"{where}: must be positive, got {val!r}")
        return default
    if nonnegative and val < 0:
        errors.append(f"{where}: must be >= 0, got {val!r}")
        return default
    if maximum is not None and val > maximum:
        errors.append(f"{where}: at most {maximum}, got {val!r}")
        return default
    return int(val) if integer else float(val)


def _vector(doc, key, path, errors, required=False, length=None):
    """doc[key] as a non-empty list of finite numbers, length of them when
    length is given; None when absent or bad."""
    val = _lookup(doc, key, path, errors, required)
    if val is _ABSENT:
        return None
    if (not isinstance(val, list) or not val or not all(_finite(x) for x in val)
            or length not in (None, len(val))):
        size = "" if length is None else f"{length} "
        errors.append(f"{_path(path, key)}: expected a list of {size}finite numbers")
        return None
    return [float(x) for x in val]


def _periods(doc, path, errors, dim=None):
    """Optional torus periods: positive numbers, dim of them when dim is given."""
    periods = _vector(doc, "periods", path, errors, length=dim)
    if periods is not None and (len(periods) > MAX_DIM or min(periods) <= 0):
        errors.append(f"{path}.periods: expected at most {MAX_DIM} positive numbers,"
                      f" got {periods!r}")
        return None
    return periods


def _parse_fourier(parent, key, path, errors, dim=None):
    """Fourier series object; dim, when given, is the dimension it must have."""
    n_errors = len(errors)
    doc = _object(parent, key, path, errors, {"dim", "terms", "periods"}, required=True)
    if doc is None:
        return None
    path = _path(path, key)
    fdim = _number(doc, "dim", path, errors, required=True, **DIM)
    if fdim is None:
        return None
    if dim is not None and fdim != dim:
        errors.append(f"{path}.dim: expected {dim}, got {fdim}")
        return None
    term_docs = doc.get("terms", [])
    if not isinstance(term_docs, list):
        errors.append(f"{path}.terms: expected a list of term objects")
        term_docs = []
    terms = []
    for i in range(len(term_docs)):
        term = _object(term_docs, i, f"{path}.terms", errors, {"k", "cos", "sin"})
        if term is None:
            continue
        tpath = f"{path}.terms[{i}]"
        k = _vector(term, "k", tpath, errors, required=True, length=fdim)
        if k is not None and not all(x.is_integer() for x in k):
            errors.append(f"{tpath}.k: expected {fdim} integers")
        elif k is not None:
            terms.append((tuple(int(x) for x in k),
                          _number(term, "cos", tpath, errors, default=0.0),
                          _number(term, "sin", tpath, errors, default=0.0)))
    periods = _periods(doc, path, errors, fdim)
    if len(errors) > n_errors:
        return None
    return FourierField(fdim, terms, periods=periods)


def _parse_field(scenario, path, dim, errors):
    """The scenario's field; an absent or null field is the zero field."""
    if scenario.get("field") is None:
        return ZeroField(dim)
    ftype = _kind(scenario, "field", "type", FIELD_KEYS)
    doc = _object(scenario, "field", path, errors, {"type", *FIELD_KEYS.get(ftype, ())})
    if doc is None:
        return None
    path = f"{path}.field"
    present = sorted(set().union(*FIELD_KEYS.values()) & set(doc))
    if len(present) > 1:
        errors.append(f"{path}: mutually exclusive field data {present}; give exactly one")
        return None
    if ftype is None:
        errors.append(f"{path}.type: unknown field type {doc.get('type')!r}")
        return None
    if ftype == "zero":
        return ZeroField(dim)
    if ftype == "gradient_of_potential":
        U = _parse_fourier(doc, "potential", path, errors, dim)
        return None if U is None else GradientField(U)
    if ftype == "fourier":
        comps = doc.get("components")
        if not isinstance(comps, list) or len(comps) != dim:
            errors.append(f"{path}.components: expected {dim} fourier objects")
            return None
        fields = [_parse_fourier(comps, i, f"{path}.components", errors, dim)
                  for i in range(dim)]
        return None if any(f is None for f in fields) else FourierComponentsField(fields)
    key, build, need = VECTOR_FIELDS[ftype]
    if need not in (None, dim):
        errors.append(f"{path}.type: {ftype} needs a {need}-dimensional metric")
        return None
    data = _vector(doc, key, path, errors, required=True, length=dim)
    return None if data is None else build(data)


def _parse_scenario(parent, key, path, errors):
    """The scenario object parent[key]: a metric and an optional field."""
    doc = _object(parent, key, path, errors, {"metric", "field"}, required=True)
    if doc is None:
        return None
    path = _path(path, key)
    family = _kind(doc, "metric", "family", METRIC_KEYS)
    metric = _object(doc, "metric", path, errors, {"family", *METRIC_KEYS.get(family, ())},
                     required=True)
    if metric is None:
        return None
    mpath = f"{path}.metric"
    n_errors = len(errors)
    if family == "flat_torus":
        fam = FlatTorus(_periods(metric, mpath, errors) or [1.0, 1.0])
    elif family == "constant_curvature_chart":
        K = _number(metric, "curvature", mpath, errors, required=True)
        n = _number(metric, "dim", mpath, errors, default=2, **DIM)
        fam = None if K is None else ConstantCurvatureChart(K, n)
    elif family == "sol_group":
        fam = SolGroup()
    elif family == "conformal_torus":
        sigma = _parse_fourier(metric, "sigma", mpath, errors)
        fam = None if sigma is None else ConformalTorus(
            sigma, _periods(metric, mpath, errors, sigma.dim))
    elif family == "product":
        if "field" in doc:
            errors.append(f"{path}.field: a product scenario takes its fields from its factors")
        factors = metric.get("factors")
        if not isinstance(factors, list) or len(factors) != 2:
            errors.append(f"{mpath}.factors: expected two scenario objects")
            return None
        s1, s2 = [_parse_scenario(factors, i, f"{mpath}.factors", errors) for i in (0, 1)]
        if s1 is None or s2 is None:
            return None
        if s1.dim + s2.dim > MAX_DIM:
            errors.append(f"{mpath}.factors: at most {MAX_DIM} dimensions in all,"
                          f" got {s1.dim + s2.dim}")
            return None
        return product_scenario(s1, s2)
    else:
        errors.append(f"{mpath}.family: unknown metric family {metric.get('family')!r}")
        return None
    if len(errors) > n_errors:
        return None
    field = _parse_field(doc, path, fam.dim, errors)
    if field is None:
        return None
    try:
        return WeylScenario(fam, field)
    except WeylflowError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _parse_table(parent, key, path, errors):
    """The billiard table object parent[key]."""
    table = _object(parent, key, path, errors,
                    {"periods", "scatterers", "field_magnitude", "field_angle"}, required=True)
    if table is None:
        return None
    path = _path(path, key)
    n_errors = len(errors)
    periods = _periods(table, path, errors, 2) or [1.0, 1.0]
    mag = _number(table, "field_magnitude", path, errors, default=0.0, nonnegative=True)
    angle = _number(table, "field_angle", path, errors, default=0.0)
    scat_docs = table.get("scatterers")
    if not isinstance(scat_docs, list) or not scat_docs:
        errors.append(f"{path}.scatterers: expected a non-empty list of scatterers")
        scat_docs = []
    scats = []
    for i in range(len(scat_docs)):
        s = _object(scat_docs, i, f"{path}.scatterers", errors, {"center", "radius"})
        if s is not None:
            spath = f"{path}.scatterers[{i}]"
            scats.append((_vector(s, "center", spath, errors, required=True, length=2),
                          _number(s, "radius", spath, errors, required=True, positive=True)))
    if len(errors) > n_errors:
        return None
    try:
        return billiards.BilliardTable(periods, scats, mag, angle)
    except WeylflowError as exc:
        errors.append(f"{path}: {exc}")
        return None


# space key: (its presets, the parser of its object)
SPACES = {"scenario": (presets.GEOMETRY_PRESETS, _parse_scenario),
          "billiard": (presets.BILLIARD_PRESETS, _parse_table)}


def _parse_initial(doc, space, errors):
    """Optional initial q and v in the space (a scenario, a table, or None): v
    nonzero with a float64 v.v that is a finite normal number (the runs divide
    v by its length), q inside the metric's chart and outside the scatterers."""
    idoc = _object(doc, "initial", "", errors, {"q", "v"}) or {}
    table = isinstance(space, billiards.BilliardTable)
    dim = 2 if table else None if space is None else space.dim
    initial = {key: _vector(idoc, key, "initial", errors, length=dim)
               for key in ("q", "v") if key in idoc}
    q, v = initial.get("q"), initial.get("v")
    if v is not None and not sys.float_info.min <= sum(x * x for x in v) < math.inf:
        errors.append(f"initial.v: must be nonzero, with v.v a finite normal float64: {v}")
    if q is None or space is None:
        return initial
    if table:
        if not space.outside(np.asarray(q), tol=1e-12):
            errors.append(f"initial.q: {q} lies inside a scatterer")
    else:
        try:
            space.metric_family.check_point(np.asarray(q))
        except WeylflowError as exc:
            errors.append(f"initial.q: {exc}")
    return initial


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
    known = {"task", "preset", "scenario", "billiard", "initial", "numerics", "output"}
    # the whole document is the one member of a root object
    doc = _object({"top level": doc}, "top level", "", errors, known)
    if doc is None:
        raise ConfigError(errors)

    task = doc.get("task")
    spec = TASKS.get(task) if isinstance(task, str) else None
    if spec is None:
        errors.append(f"task: expected one of {tuple(TASKS)}, got {task!r}")
        # without a task, check only numerics (every key), initial and output
        spec, read = Task(None, None, False, tuple(NUMERICS)), known
    else:
        read = {"task", "output", *((spec.space, "preset") if spec.space else ()),
                "initial" if spec.initial else None, "numerics" if spec.numerics else None}
    errors.extend(f"{k}: task {task} does not read it" for k in doc if k in known - read)
    body = {k: v for k, v in doc.items() if k in read}

    ndoc = _object(body, "numerics", "", errors, NUMERICS) or {}
    errors.extend(f"numerics.{k}: task {task} does not read it"
                  for k in ndoc if k in NUMERICS and k not in spec.numerics)
    numerics = {key: _number(ndoc, key, "numerics", errors, default=default, **rule)
                for key, (default, rule) in NUMERICS.items() if key in spec.numerics}
    T, dt, burn_in = map(numerics.get, ("T", "dt", "burn_in"))
    if T is not None and T < dt:
        errors.append(f"numerics.T: must be >= numerics.dt, got T={T!r} and dt={dt!r}")
    if burn_in is not None and burn_in >= T:
        errors.append(f"numerics.burn_in: must be < numerics.T, got burn_in={burn_in!r} and T={T!r}")
    elif burn_in is not None and T >= dt and math.isfinite(T / dt):
        # the burn-in ends at a renormalization event, and one more must come by the last
        # step: the J-separation margins are read at the events after the burn-in
        every = numerics["renorm_every"]
        burn = tangent.burn_steps(burn_in, dt, every)
        n_steps = flows.step_count(T, dt)
        if burn + every > n_steps:
            errors.append(f"numerics.burn_in: rounds up to step {burn} (a renormalization event"
                          f" every numerics.renorm_every={every} steps), leaving no event"
                          f" after it among the {n_steps} steps of numerics.T" if burn_in > 0
                          else f"numerics.renorm_every: must be at most the {n_steps} steps of"
                          f" numerics.T, got renorm_every={every}")

    directory = (_object(body, "output", "", errors, {"directory"}) or {}).get("directory", ".")
    if not isinstance(directory, str):
        errors.append("output.directory: expected a string")

    space = None
    if spec.space is not None:
        space_presets, parse_space = SPACES[spec.space]
        preset = body.get("preset")
        if preset is not None and spec.space in body:
            errors.append(f"preset and {spec.space} are mutually exclusive")
        if spec.space in body:
            space = parse_space(body, spec.space, "", errors)
        elif preset is None:
            errors.append(f"task: {task} needs a {spec.space} or a preset")
        elif isinstance(preset, str) and preset in space_presets:
            space = space_presets[preset]()
        else:
            errors.append(f"preset: expected a {spec.space} preset, got {preset!r}")
    if space is not None and spec.check is not None:
        try:
            spec.check(space)
        except WeylflowError as exc:
            errors.append(f"{spec.space if spec.space in body else 'preset'}: "
                          f"task {task} cannot run on it: {exc}")
    initial = _parse_initial(body, space, errors)

    if errors:
        raise ConfigError(errors)
    return RunConfig(task=task, scenario=space if spec.space == "scenario" else None,
                     table=space if spec.space == "billiard" else None, initial=initial,
                     numerics=numerics, output=directory, echo=doc)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_text(path, text):
    data = text.encode("utf-8")
    path.write_bytes(data)
    return {"name": path.name, "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data)}


def _cell_format(cls):
    """The % conversion of one CSV cell type: bools and integers as integers
    ("%d" % True == "1"), floats to 17 significant digits, str otherwise."""
    if issubclass(cls, (int, np.integer, np.bool_)):
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


def _start(cfg, draw_q, draw_v):
    """Initial q and v: each the one the config gives, or else drawn by
    draw_q or draw_v from one generator seeded by numerics.seed, q first."""
    rng = np.random.default_rng(np.random.Philox(cfg.numerics["seed"]))
    q = np.asarray(cfg.initial["q"], dtype=float) if "q" in cfg.initial else draw_q(rng)
    v = np.asarray(cfg.initial["v"], dtype=float) if "v" in cfg.initial else draw_v(rng)
    return q, v


def _initial_state(cfg):
    """The start on the unit tangent bundle: v is normalised at the q used."""
    sc = cfg.scenario
    q, v = _start(cfg, sc.sample_point, lambda rng: rng.standard_normal(sc.dim))
    return flows.PhaseState(q, v / sc.norm(q, v))


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
    rows = [[t, *lam, sbar, jsep] for t, lam, sbar, jsep in zip(
        rep.window_times, rep.window_exponents, rep.window_sbar, rep.window_jsep)]
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
    table = cfg.table
    q0, v0 = _start(cfg, functools.partial(billiards.draw_q, table), billiards.draw_v)
    run = billiards.run_billiard(table, q0, v0, cfg.numerics["n_collisions"])
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
        s = billiards.periodic_orbit_stability(presets.two_disk_orbit(re_val, radius, gap))
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


TASKS = {
    "simulate": Task(_task_simulate, "scenario", True, ("dt", "T", "seed")),
    "lyapunov": Task(_task_lyapunov, "scenario", True,
                     ("dt", "T", "renorm_every", "seed", "burn_in")),
    "curvature-scan": Task(_task_curvature_scan, "scenario", False,
                           ("seed", "n_points", "n_planes")),
    "billiard": Task(_task_billiard, "billiard", True, ("seed", "n_collisions")),
    "orbit-stability": Task(_task_orbit_stability, "billiard", False, (), billiards.bouncing_axis),
    "verify": Task(_task_verify, None, False, ()),
}


def dispatch(cfg, out_override=None):
    """Run the configured task, write outputs and the manifest; returns the
    manifest dict.  A failure of any kind is serialized into the manifest
    (error class and message) before it is re-raised."""
    outdir = Path(out_override or cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    manifest = {
        "artifact_version": __version__,
        "task": cfg.task,
        "config": cfg.echo,
    }
    try:
        manifest["files"], manifest["summary"] = TASKS[cfg.task].run(cfg, outdir)
    except BaseException as exc:
        manifest["error"] = {"class": type(exc).__name__, "message": str(exc)}
        raise
    finally:
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

    if args.config is None and args.task != "verify":
        print(f"error: task {args.task} requires --config", file=sys.stderr)
        return 2
    try:
        doc = ({"task": "verify"} if args.config is None
               else Path(args.config).read_text(encoding="utf-8"))
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
