"""The four benchmark workloads: seeded inputs, operations and their checks.

An operation is one CLI task (a config parsed by ``cli.parse_config`` and run
by ``cli.dispatch``) or one public library call.  ``build_ops`` does all of
the set-up: it generates the inputs from the seed, builds the scenarios and
tables and parses the configs.  Each operation returns an ``Outcome``: a
digest of its outputs (compared across rounds), the work it did (RK4 steps,
curvature planes, collisions, bytes written) and the data its check reads.
Checks compare against closed forms or properties the method must have,
never against stored output, and are never timed.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from weylflow import billiards, cli, flows, presets, tangent
from weylflow.fields import ConstantField, FourierField
from weylflow.flows import IsoenergeticSpec, PhaseState, involution
from weylflow.scenario import WeylScenario
from weylflow.metrics import FlatTorus

# Presets whose Weyl tensor is rebuilt on every kernel call.
CURVED_PRESETS = ("conformal_gradient", "hyperbolic_potential", "product_mixed",
                  "flat2_gradient", "sol_scan", "product_constant")
# Presets whose curvature is cached or in closed form.
LIGHT_LYAPUNOV_PRESETS = ("torus3_constant", "example_1_2", "hyperbolic_geodesic")
# Non-homogeneous presets for the curvature census.
CENSUS_PRESETS = ("conformal_gradient", "hyperbolic_potential", "product_mixed",
                  "flat2_gradient", "sol_scan")

CURVED_T, CURVED_DT = 0.2, 2e-3
LIGHT_SIM_T, LIGHT_DT = 2.0, 1e-3
LIGHT_TRIP_T = 1.0
LIGHT_LYAP_T, LIGHT_LYAP_DT = 1.0, 2e-3
CENSUS_POINTS, CENSUS_PLANES = 4, 100
N_COLLISIONS = 300
BILLIARD_STARTS = 2         # billiard tasks per table, each from its own start
J0 = -0.02                  # initial J-form value: J crosses 0 early in each run
DENSE_STEP = 1e-3           # time step of the dense flight sampling

# Finite-horizon table with r|E| = 0.9 on the larger scatterer, the field
# rotated off the lattice axes.
EXPLICIT_TABLE = {
    "periods": [1.0, 1.0],
    "scatterers": [{"center": [0.25, 0.25], "radius": 0.38},
                   {"center": [0.75, 0.75], "radius": 0.19}],
    "field_magnitude": 0.9 / 0.38,
    "field_angle": 0.7,
}


@dataclass
class Outcome:
    digest: str
    work: dict
    data: object = None


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], list]


@dataclass
class Work:
    """Work of one round, summed over its operations."""

    rk4_steps: int = 0
    planes: int = 0
    collisions: int = 0
    retries: int = 0
    bytes: int = 0

    def add(self, work):
        for key, value in work.items():
            setattr(self, key, getattr(self, key) + value)


def _rng(seed, k):
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


def _hash_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _unit_state(sc, rng):
    """Point inside the chart and a unit-speed direction there."""
    q = sc.sample_point(rng)
    sc.metric_family.check_point(q)
    v = rng.standard_normal(sc.dim)
    return q, v / sc.norm(q, v)


def _task_op(name, doc, outdir, work_fn, check_fn):
    """Parse the config as the CLI would read it and dispatch it on each run."""
    cfg = cli.parse_config(json.dumps(doc))
    outdir = Path(outdir)

    def run():
        manifest = cli.dispatch(cfg, out_override=outdir)
        files = manifest["files"]
        digest = hashlib.sha256(
            "".join(f"{f['name']}:{f['sha256']};" for f in files).encode()).hexdigest()
        work = work_fn(manifest["summary"])
        work["bytes"] = sum(f["bytes"] for f in files)
        return Outcome(digest, work, (cfg, outdir, manifest))

    return Op(name, run, check_fn)


# ---------------------------------------------------------------------------
# checks shared by the flow workloads
# ---------------------------------------------------------------------------

def _check_trace_identity(outcome):
    """Sum of the exponents equals (n - 1) * sbar to 0.02."""
    cfg, outdir, _ = outcome.data
    rep = json.loads((outdir / "lyapunov.json").read_text())
    n = cfg.scenario.dim
    gap = abs(sum(rep["exponents"]) - (n - 1) * rep["sbar"])
    if not gap <= 0.02:
        return [f"trace identity off by {gap:.3e}"]
    return []


def _lyapunov_op(name, preset, seed, k, T, dt, outdir):
    sc = presets.scenario_preset(preset)
    q, v = _unit_state(sc, _rng(seed, k))
    doc = {"task": "lyapunov", "preset": preset,
           "initial": {"q": q.tolist(), "v": v.tolist()},
           "numerics": {"T": T, "dt": dt, "renorm_every": 10, "seed": seed}}
    steps = int(round(T / dt))
    return _task_op(name, doc, outdir, lambda s: {"rk4_steps": steps},
                    _check_trace_identity)


def _jform_residual(run):
    """Relative gap between a five-point dJ/dt and chi^2 - phi(v) J - <R xi, xi>."""
    J = run.jform
    dt = run.times[1] - run.times[0]
    rhs = np.einsum("ij,ij->i", run.chi, run.chi) - run.phi_v * J - run.curv_quad
    dJ = (-J[4:] + 8 * J[3:-1] - 8 * J[1:-3] + J[:-4]) / (12 * dt)
    scale = max(np.abs(rhs).max(), np.abs(dJ).max(), 1e-30)
    return float(np.abs(dJ - rhs[2:-2]).max() / scale), rhs


def _jform_op(name, preset, seed, k):
    sc = presets.scenario_preset(preset)
    rng = _rng(seed, k)
    q, v = _unit_state(sc, rng)
    nm1 = sc.dim - 1
    xi = rng.standard_normal(nm1)
    xi *= rng.uniform(0.5, 1.5) / np.linalg.norm(xi)
    chi = 0.3 * rng.standard_normal(nm1)
    chi -= ((xi @ chi - J0) / (xi @ xi)) * xi          # so that <xi, chi> = J0
    tv = tangent.TangentVector(0.0, xi, chi)
    state = PhaseState(q, v)

    def run():
        r = tangent.linearized_run(sc, state, tv, T=CURVED_T, dt=CURVED_DT)
        return Outcome(_hash_arrays(r.xi, r.chi, r.xi0, r.jform),
                       {"rk4_steps": len(r.times) - 1}, r)

    def check(outcome):
        r = outcome.data
        fails = []
        rel, rhs = _jform_residual(r)
        if not rel <= 1e-5:
            fails.append(f"J-form derivative identity off by {rel:.3e} of scale")
        if preset == "hyperbolic_potential":
            J = r.jform
            flips = np.nonzero(np.sign(J[:-1]) * np.sign(J[1:]) < 0)[0]
            if len(flips) == 0:
                fails.append("no J = 0 crossing to test")
            for i in flips:
                w = J[i] / (J[i] - J[i + 1])
                if not (J[i + 1] > J[i] and rhs[i] + w * (rhs[i + 1] - rhs[i]) > 0):
                    fails.append(f"dJ/dt <= 0 at the J = 0 crossing near t={r.times[i]:.4f}")
        return fails

    return Op(name, run, check)


# ---------------------------------------------------------------------------
# flow_curved
# ---------------------------------------------------------------------------

def _flow_curved(seed, out):
    ops = []
    for k, preset in enumerate(CURVED_PRESETS):
        ops.append(_lyapunov_op(f"lyapunov:{preset}", preset, seed, k,
                                CURVED_T, CURVED_DT, out / f"lyapunov_{preset}"))
        ops.append(_jform_op(f"jform:{preset}", preset, seed, 100 + k))
    return ops


# ---------------------------------------------------------------------------
# flow_light
# ---------------------------------------------------------------------------

def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_unit_speed(data, n):
    v = data[:, 1 + n:1 + 2 * n]
    drift = float(np.abs(np.sqrt((v * v).sum(axis=1)) - 1.0).max())
    if not drift <= 1e-12:
        return [f"isokinetic speed drifts from 1 by {drift:.3e}"]
    return []


def _check_example_curve(outcome):
    """Closed form of the example 1.2 curves: with E = (1, 0) the velocity
    angle obeys theta = theta0 - (y - y0) and x - x0 = ln(sin theta0 / sin theta),
    a translate of x = -ln cos y."""
    _, outdir, _ = outcome.data
    data = _read_csv(outdir / "trajectory.csv")
    x, y, vx, vy = data[:, 1], data[:, 2], data[:, 3], data[:, 4]
    th0 = math.atan2(vy[0], vx[0])
    s = np.sin(th0 - (y - y[0]))
    mask = np.abs(s) >= 0.35
    err = float(np.abs(x[mask] - x[0] - np.log(math.sin(th0) / s[mask])).max())
    fails = _check_unit_speed(data, 2)
    if not err <= 1e-6:
        fails.append(f"example 1.2 curve leaves its closed form by {err:.3e}")
    return fails


def _simulate_op(name, preset, q, v, outdir, check):
    doc = {"task": "simulate", "preset": preset,
           "initial": {"q": list(map(float, q)), "v": list(map(float, v))},
           "numerics": {"T": LIGHT_SIM_T, "dt": LIGHT_DT}}
    return _task_op(name, doc, outdir,
                    lambda s: {"rk4_steps": s["samples"] - 1}, check)


def _roundtrip_op(name, sc, q0, v0, kind, spec=None, check_v=True):
    """Forward run, involution, backward run: the start state must return."""
    st0 = PhaseState(q0, v0)

    def run():
        f = flows.integrate(sc, st0, T=LIGHT_TRIP_T, dt=LIGHT_DT, kind=kind, spec=spec)
        b = flows.integrate(sc, involution(f.state(-1)), T=LIGHT_TRIP_T, dt=LIGHT_DT,
                            kind=kind, spec=spec)
        steps = len(f.times) + len(b.times) - 2
        return Outcome(_hash_arrays(f.q, f.v, b.q, b.v, f.energy_residual),
                       {"rk4_steps": steps}, (f, b))

    def check(outcome):
        f, b = outcome.data
        fails = []
        gap = float(np.abs(b.q[-1] - q0).max())
        if check_v:
            gap = max(gap, float(np.abs(b.v[-1] + v0).max()))
        if not gap <= 1e-6:
            fails.append(f"{kind} involution round trip off by {gap:.3e}")
        if kind == "isoenergetic":
            e = max(float(np.abs(f.energy_residual).max()),
                    float(np.abs(b.energy_residual).max()))
            if not e <= 1e-9:
                fails.append(f"isoenergetic energy residual {e:.3e} > 1e-9")
        return fails

    return Op(name, run, check)


def _flow_light(seed, out):
    ops = []
    rng = _rng(seed, 200)
    # example 1.2 start away from the lines along +-E, where the closed form degenerates
    th0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, math.pi - 0.4)
    q12 = rng.uniform(0.0, 1.0, 2)
    v12 = np.array([math.cos(th0), math.sin(th0)])
    ops.append(_simulate_op("simulate:example_1_2", "example_1_2", q12, v12,
                            out / "simulate_example_1_2", _check_example_curve))
    sc3 = presets.torus3_constant()
    q3, v3 = _unit_state(sc3, _rng(seed, 201))
    ops.append(_simulate_op("simulate:torus3_constant", "torus3_constant", q3, v3,
                            out / "simulate_torus3_constant",
                            lambda o: _check_unit_speed(_read_csv(o.data[1] / "trajectory.csv"), 3)))

    sc12 = presets.example_1_2()
    qa, va = _unit_state(sc12, _rng(seed, 202))
    ops.append(_roundtrip_op("roundtrip:isokinetic", sc12, qa, va, "isokinetic"))
    qw, vw = _unit_state(sc12, _rng(seed, 203))
    ops.append(_roundtrip_op("roundtrip:weyl_geodesic", sc12, qw, vw, "weyl_geodesic",
                             check_v=False))

    flat = WeylScenario(FlatTorus((1.0, 1.0)), None, name="flat2")
    W = FourierField(2, [((1, 0), 0.2, 0.0)])
    spec = IsoenergeticSpec(potential=W, field=ConstantField([0.3, 0.2]), h=1.0)
    r = _rng(seed, 204)
    qe = r.uniform(0.0, 1.0, 2)
    th = r.uniform(0.0, 2 * math.pi)
    ve = math.sqrt(2.0 * (spec.h - W.value(qe))) * np.array([math.cos(th), math.sin(th)])
    ops.append(_roundtrip_op("roundtrip:isoenergetic", flat, qe, ve, "isoenergetic", spec))

    for k, preset in enumerate(LIGHT_LYAPUNOV_PRESETS):
        ops.append(_lyapunov_op(f"lyapunov:{preset}", preset, seed, 300 + k,
                                LIGHT_LYAP_T, LIGHT_LYAP_DT, out / f"lyapunov_{preset}"))
    return ops


# ---------------------------------------------------------------------------
# curvature_census
# ---------------------------------------------------------------------------

def _check_census(outcome):
    """Tensor and formula routes agree to 1e-6; census counts add up."""
    _, outdir, manifest = outcome.data
    summary = json.loads((outdir / "census.json").read_text())
    data = _read_csv(outdir / "curvature_scan.csv")
    gap = float(np.abs(data[:, -3] - data[:, -2]).max())
    fails = []
    if not gap <= 1e-6:
        fails.append(f"curvature routes differ by {gap:.3e}")
    counted = summary["count_negative"] + summary["count_zero"] + summary["count_positive"]
    if not counted == summary["samples"] == len(data):
        fails.append(f"census counts {counted} vs {summary['samples']} samples, "
                     f"{len(data)} rows")
    return fails


def _curvature_census(seed, out):
    ops = []
    for preset in CENSUS_PRESETS:
        doc = {"task": "curvature-scan", "preset": preset,
               "numerics": {"n_points": CENSUS_POINTS, "n_planes": CENSUS_PLANES,
                            "seed": seed}}
        ops.append(_task_op(f"curvature-scan:{preset}", doc, out / f"census_{preset}",
                            lambda s: {"planes": s["samples"]}, _check_census))
    return ops


# ---------------------------------------------------------------------------
# lorentz_gas
# ---------------------------------------------------------------------------

def _billiard_start(table, rng):
    """Point outside every scatterer image (by 1e-3) and a unit velocity."""
    while True:
        q = rng.uniform(0.0, 1.0, 2) * table.periods
        if all(_image_distance(table, q[None], s)[0] > s.radius + 1e-3
               for s in table.scatterers):
            break
    th = rng.uniform(0.0, 2 * math.pi)
    return q, np.array([math.cos(th), math.sin(th)])


def _image_offset(table, p, s):
    """Offset of points p from the nearest image of scatterer s's centre."""
    d = p - s.center
    return d - table.periods * np.round(d / table.periods)


def _image_distance(table, p, s):
    return np.hypot(*_image_offset(table, p, s).T)


def _check_billiard(q0, v0):
    def check(outcome):
        cfg, outdir, manifest = outcome.data
        table = cfg.table
        summary = json.loads((outdir / "billiard.json").read_text())
        data = _read_csv(outdir / "collisions.csv")
        fails = []
        if not summary["lambda1"] > 0:
            fails.append(f"lambda1 = {summary['lambda1']} is not positive")
        if len(data) != cfg.numerics["n_collisions"]:
            fails.append(f"{len(data)} collisions recorded")
        t, idx = data[:, 1], data[:, 2].astype(int)
        p = data[:, 3:5]
        a_in, a_out = data[:, 5], data[:, 6]
        v_in = np.stack([np.cos(a_in), np.sin(a_in)], axis=1)
        v_out = np.stack([np.cos(a_out), np.sin(a_out)], axis=1)
        starts_q = np.vstack([q0, p[:-1]])
        starts_v = np.vstack([v0, v_out[:-1]])
        tof = np.diff(np.concatenate([[0.0], t]))
        on_circle = spec = arrive = speed = 0.0
        for i in range(len(data)):
            s = table.scatterers[idx[i]]
            off = _image_offset(table, p[i], s)
            on_circle = max(on_circle, abs(math.hypot(*off) - s.radius))
            N = off / math.hypot(*off)
            mirror = v_in[i] - 2.0 * (v_in[i] @ N) * N
            spec = max(spec, float(np.abs(mirror - v_out[i]).max()))
            # the closed-form flight from the previous impact must arrive here
            fl = billiards.ThermostatFlight(table.to_aligned(starts_q[i]),
                                            table.to_aligned(starts_v[i]), table.a)
            end = table.from_aligned(fl.pos(np.array([tof[i]]))[0])
            vel = table.from_aligned(fl.vel(np.array([tof[i]]))[0])
            gap = end - p[i]
            gap -= table.periods * np.round(gap / table.periods)
            arrive = max(arrive, float(np.abs(gap).max()),
                         float(np.abs(vel - v_in[i]).max()))
            speed = max(speed, abs(math.hypot(*vel) - 1.0),
                        abs(math.hypot(*mirror) - 1.0))
        if not on_circle <= 1e-9:
            fails.append(f"impact point off its circle image by {on_circle:.3e}")
        if not spec <= 1e-9:
            fails.append(f"outgoing velocity off the specular image by {spec:.3e}")
        if not speed <= 1e-12:
            fails.append(f"speed off 1 by {speed:.3e}")
        if not arrive <= 1e-7:
            fails.append(f"closed-form flight misses the recorded impact by {arrive:.3e}")
        # dense sampling of every flight: no scatterer entered before impact
        for i in range(len(data)):
            fl = billiards.ThermostatFlight(table.to_aligned(starts_q[i]),
                                            table.to_aligned(starts_v[i]), table.a)
            ts = np.linspace(0.0, tof[i], max(2, int(math.ceil(tof[i] / DENSE_STEP)) + 1))
            pts = fl.pos(ts[:-1]) @ table._rot
            for j, s in enumerate(table.scatterers):
                depth = s.radius - _image_distance(table, pts, s)
                if depth.max() > 1e-9:
                    fails.append(f"flight {i} enters scatterer {j} by {depth.max():.3e} "
                                 "before its reported impact")
        return fails

    return check


def _lorentz_gas(seed, out):
    ops = []
    tables = (("sinai_thermostat", {"preset": "sinai_thermostat"}),
              ("explicit", {"billiard": EXPLICIT_TABLE}))
    for t, (label, source) in enumerate(tables):
        table = (presets.sinai_thermostat() if "preset" in source
                 else billiards.BilliardTable(
                     EXPLICIT_TABLE["periods"],
                     [(s["center"], s["radius"]) for s in EXPLICIT_TABLE["scatterers"]],
                     EXPLICIT_TABLE["field_magnitude"], EXPLICIT_TABLE["field_angle"]))
        for j in range(BILLIARD_STARTS):
            k = BILLIARD_STARTS * t + j
            q0, v0 = _billiard_start(table, _rng(seed, 400 + k))
            doc = {"task": "billiard", **source,
                   "initial": {"q": q0.tolist(), "v": v0.tolist()},
                   "numerics": {"n_collisions": N_COLLISIONS, "seed": seed}}
            ops.append(_task_op(f"billiard:{label}:{j}", doc, out / f"billiard_{label}_{j}",
                                lambda s: {"collisions": s["collisions"],
                                           "retries": s["grazing_count"] + s["open_flights"]},
                                _check_billiard(q0, v0)))
    return ops


BUILDERS = {
    "flow_curved": _flow_curved,
    "flow_light": _flow_light,
    "curvature_census": _curvature_census,
    "lorentz_gas": _lorentz_gas,
}


def build_ops(workload, seed, outroot):
    """Generate the workload's inputs, build scenarios and tables, parse configs."""
    return BUILDERS[workload](seed, Path(outroot))
