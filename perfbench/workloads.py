"""Seeded workloads of the gyrosurf benchmark.

Each workload is a list of items built from the seed.  One pass over the
list is a round: a closed loop with a single caller, each item starting when
the previous one has ended.  An item is one call into gyrosurf's public API
(one `integrate`, one `cli.main`, one oracle) and a correctness check on its
output; only the call is timed, the check runs after it.

* ensemble_builtin: `integrators.integrate` over the five models on the
  analytic charts, sparse sampling.  Nearly all time is the built-in
  jet -> rhs -> RK4 step path.
* cli_custom_dense: `cli.main(["run", ...])` on scenario files with custom
  expression charts and expression potentials, sample_every=1, CSV and JSON
  output.  Dominated by the finite-difference fallback of custom charts,
  the monitor pass and config parsing and writing.
* oracles: `cli.main(["verify", "all"])` plus independent oracle calls
  (holonomy loops, Gauss-Bonnet patches, discrete Euler-Lagrange residuals,
  trajectory comparison).  Uses geometry at many independent quadrature
  points instead of along one trajectory.

Tolerances are the acceptance tolerances of tests/test_acceptance.py and
gyrosurf.suites; drifts are relative to max(1, |value at t=0|).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gyrosurf import charts, cli, config, dynamics, geometry, integrators, \
    models, potentials, verify
from gyrosurf.integrators import IntegratorSettings, integrate

TWO_PI = 2.0 * math.pi
DRIFT_TOL = 1e-8


@dataclass
class Verdict:
    """What the check of one item found: work done and the first failure."""

    steps: int = 0
    checks: int = 0
    failure: str | None = None


@dataclass
class Item:
    name: str
    layer: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]


def drift(track) -> float:
    track = np.asarray(track, dtype=float)
    return float(np.max(np.abs(track - track[0])) / max(1.0, abs(track[0])))


def steps_taken(traj, settings: IntegratorSettings) -> int:
    if not traj.truncated:
        return settings.n_steps
    # integrate records "step k: ..." for the step that left the domain
    return int(traj.truncation_reason.split(":")[0].split()[1]) - 1


# -- ensemble_builtin ----------------------------------------------------------

ENSEMBLE_SETTINGS = IntegratorSettings(dt=1e-3, n_steps=500, sample_every=100)


def _ensemble_chart(kind: str, rng):
    """A built-in chart and a sampler of initial points that stay inside it."""
    if kind == "sphere":
        chart = charts.sphere(rng.uniform(0.8, 1.5))
        def point(): return [rng.uniform(1.2, 1.95), rng.uniform(0.0, TWO_PI)]
    elif kind == "torus":
        chart = charts.torus(2.0, rng.uniform(0.3, 0.8))
        def point(): return list(rng.uniform(0.0, TWO_PI, 2))
    elif kind == "cylinder":
        chart = charts.cylinder(rng.uniform(0.5, 1.5))
        def point(): return [rng.uniform(-1.0, 1.0), rng.uniform(0.0, TWO_PI)]
    else:
        chart = charts.saddle(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
        def point(): return list(rng.uniform(-1.0, 1.0, 2))
    return chart, point


def velocity(rng) -> list[float]:
    return [rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.0)]


def _trajectory_check(settings, momentum: Callable | None = None):
    """Gate on truncation, energy drift and, for spinning models, the drift
    of the conserved axial momentum."""

    def check(traj) -> Verdict:
        verdict = Verdict(steps=steps_taken(traj, settings), checks=1)
        if traj.truncated:
            verdict.failure = f"truncated: {traj.truncation_reason}"
            return verdict
        verdict.checks += 1
        worst = drift(traj.monitors["E"])
        if not worst <= DRIFT_TOL:
            verdict.failure = f"energy drift {worst:.3e} > {DRIFT_TOL:g}"
            return verdict
        if momentum is not None:
            verdict.checks += 1
            worst = drift(momentum(traj))
            if not worst <= DRIFT_TOL:
                verdict.failure = (f"axial momentum drift {worst:.3e} > "
                                   f"{DRIFT_TOL:g}")
        return verdict

    return check


def _integrate_item(name: str, model, y0, momentum=None) -> Item:
    return Item(
        name=name, layer="integrators.integrate",
        call=lambda: integrate(model, y0, ENSEMBLE_SETTINGS),
        check=_trajectory_check(ENSEMBLE_SETTINGS, momentum),
    )


def build_ensemble_builtin(seed: int, outdir: str) -> list[Item]:
    """16 scenarios: geodesic and magnetic on all four analytic charts, the
    two disk models on the three orthogonal ones, and two tops."""
    rng = np.random.default_rng(seed)
    items = []
    for kind in ("sphere", "torus", "cylinder", "saddle"):
        chart, point = _ensemble_chart(kind, rng)
        m = rng.uniform(0.5, 2.0)
        items.append(_integrate_item(
            f"geodesic/{kind}", models.GeodesicModel(chart, m, None),
            np.array(point() + velocity(rng))))
        items.append(_integrate_item(
            f"magnetic/{kind}",
            models.MagneticModel(chart, m, rng.uniform(-2.0, 2.0)),
            np.array(point() + velocity(rng))))
        if not chart.orthogonal:
            continue  # both disk models need an orthogonal chart
        items.append(_integrate_item(
            f"reduced_disk/{kind}",
            models.ReducedDiskModel(chart, m, rng.uniform(0.005, 0.02),
                                    rng.uniform(-2.0, 2.0)),
            np.array(point() + velocity(rng))))
        disk = dynamics.DiskParams(m=m, I_a=rng.uniform(0.01, 0.03),
                                   I_d=rng.uniform(0.005, 0.015), R_disk=0.2)
        full = models.FullDiskModel(chart, disk)
        x, v = point(), velocity(rng)
        theta_dot = rng.uniform(50.0, 100.0) - float(
            geometry.geometry_jet(chart, x).f @ v)
        items.append(_integrate_item(
            f"full_disk/{kind}", full,
            full.pack(dynamics.FullState(x=x, v=v, theta=0.0,
                                         theta_dot=theta_dot)),
            momentum=lambda t, I_a=disk.I_a: I_a * t.monitors["omega_a"]))
    for k in range(2):
        top = dynamics.TopParams(M=1.0, ell=rng.uniform(0.4, 0.6),
                                 I1=rng.uniform(1.5, 2.5),
                                 I3=rng.uniform(0.8, 1.2), g=9.8)
        model = models.TopModel(top)
        x = [rng.uniform(0.8, 1.2), rng.uniform(0.0, TWO_PI)]
        v = [0.0, rng.uniform(0.2, 0.5)]
        theta_dot = rng.uniform(20.0, 40.0) - v[1] * math.cos(x[0])
        items.append(_integrate_item(
            f"top/{k}", model,
            model.pack(dynamics.FullState(x=x, v=v, theta=0.0,
                                          theta_dot=theta_dot)),
            momentum=lambda t, I3=top.I3: I3 * t.monitors["omega_a"]))
    return items


# -- cli_custom_dense ----------------------------------------------------------


def _hyperbolic_surface(rng) -> dict:
    """Metric-only chart a11 = 1, a22 = s exp(2 x1): K = -1, no embedding."""
    return {"kind": "custom", "a11": "1",
            "a22": f"{rng.uniform(0.5, 2.0)!r} * exp(2 * x1)",
            "x1_range": [-3.0, 1.0], "x2_range": [-4.0, 4.0]}


def _sphere_surface(R: float) -> dict:
    """Round sphere written as expressions, with its embedding."""
    return {"kind": "custom", "a11": f"{R * R!r}",
            "a22": f"{R * R!r} * sin(x1)^2",
            "x1_range": [0.3, math.pi - 0.3], "x2_range": [0.0, TWO_PI],
            "periodic_x2": True,
            "embedding": [f"{R!r} * sin(x1) * cos(x2)",
                          f"{R!r} * sin(x1) * sin(x2)", f"{R!r} * cos(x1)"]}


# (model, surface, steps): at the seed commit the magnetic runs take about
# 0.1 s and the reduced-disk runs about 0.2 s, so the tail percentile falls
# inside the slow group instead of on the edge of one flat distribution
CLI_RUNS = (
    ("magnetic", "hyperbolic", 60),
    ("magnetic", "sphere", 30),
    ("reduced_disk", "sphere", 24),
)


def _cli_scenarios(seed: int, outdir: str) -> list[tuple[str, dict]]:
    rng = np.random.default_rng(seed)
    scenarios = []
    for model, surface, n_steps in CLI_RUNS:
        for fmt in ("csv", "json"):
            if surface == "hyperbolic":
                block = _hyperbolic_surface(rng)
                x = [rng.uniform(-1.5, 0.0), rng.uniform(-1.0, 1.0)]
                potential = f"{rng.uniform(0.2, 1.0)!r} * exp(x1)"
            else:
                block = _sphere_surface(rng.uniform(0.8, 1.5))
                x = [rng.uniform(1.2, 1.9), rng.uniform(0.0, TWO_PI)]
                potential = f"{rng.uniform(0.2, 1.0)!r} * cos(x1)"
            params = {"m": rng.uniform(0.5, 2.0), "L": rng.uniform(-2.0, 2.0)}
            if model == "reduced_disk":
                params["I_d"] = rng.uniform(0.005, 0.02)
            name = f"{model}-{surface}-{fmt}"
            scenarios.append((name, {
                "surface": block, "model": model, "params": params,
                "initial": {"x": x, "v": velocity(rng)},
                "potential": {"kind": "expression", "text": potential},
                "integrator": {"dt": 1e-3, "n_steps": n_steps,
                               "sample_every": 1},
                "output": {"format": fmt,
                           "path": os.path.join(outdir, f"{name}.{fmt}")},
            }))
    return scenarios


def _read_output(path: str, fmt: str) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        if fmt == "json":
            doc = json.load(fh)
            return doc["columns"], np.array(doc["rows"], dtype=float)
        lines = [ln for ln in fh.read().splitlines()
                 if ln and not ln.startswith("#")]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float)


def _reference_table(path: str, fields: list[str]) -> np.ndarray:
    """The same scenario integrated in memory, laid out like the file."""
    cfg = config.load_scenario(path)
    model = config.build_model(cfg)
    traj = integrate(model, config.build_initial(cfg, model),
                     config.build_settings(cfg))
    cols = []
    for name in fields:
        if name == "t":
            cols.append(traj.times)
        elif name in traj.columns:
            cols.append(traj.column(name))
        else:
            cols.append(traj.monitors[name])
    return np.column_stack(cols)


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_run_item(name: str, path: str, scenario: dict) -> Item:
    out = scenario["output"]
    n_steps = scenario["integrator"]["n_steps"]
    reference = []  # filled on the first check, outside the timed call

    def check(result) -> Verdict:
        code, _, err = result
        verdict = Verdict(checks=1)
        if code != 0:
            verdict.failure = f"exit {code}: {err.strip()}"
            return verdict
        verdict.steps = n_steps
        verdict.checks += 2
        header, table = _read_output(out["path"], out["format"])
        if not reference:
            reference.append(_reference_table(path, header))
        want = reference[0]
        if table.shape != want.shape or not np.array_equal(
                np.isnan(table), np.isnan(want)):
            verdict.failure = "output does not match the in-memory run"
            return verdict
        gap = np.nan_to_num(np.abs(table - want))
        if np.any(gap > 1e-12 * np.maximum(1.0, np.nan_to_num(np.abs(want)))):
            verdict.failure = (f"output differs from the in-memory run by "
                               f"{float(gap.max()):.3e}")
            return verdict
        worst = drift(table[:, header.index("E")])
        if not worst <= DRIFT_TOL:
            verdict.failure = f"energy drift {worst:.3e} > {DRIFT_TOL:g}"
        return verdict

    def call():
        # ext4 flushes a truncated file's old data when it is rewritten
        # (about 50 ms a file on a virtual disk), which would time the disk
        with contextlib.suppress(FileNotFoundError):
            os.unlink(out["path"])
        return _run_cli(["run", path])

    return Item(name, "cli.main", call, check)


def build_cli_custom_dense(seed: int, outdir: str) -> list[Item]:
    """Six scenario files: magnetic runs on a metric-only hyperbolic chart
    and on an embedded expression sphere, reduced-disk runs on the latter,
    each written once as CSV and once as JSON."""
    items = []
    for name, scenario in _cli_scenarios(seed, outdir):
        # parse and build once here, so set-up covers the configs and charts
        config.build_model(config.parse_scenario(scenario))
        path = os.path.join(outdir, f"{name}.scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        items.append(_cli_run_item(name, path, scenario))
    return items


# -- oracles -------------------------------------------------------------------


@contextlib.contextmanager
def count_integrator_steps(counter: list[int]):
    """Count the steps of every `integrate` call made through a gyrosurf
    module while the block runs (the verify suites integrate internally)."""
    real = integrators.integrate
    owners = [mod for name, mod in list(sys.modules.items())
              if name.startswith("gyrosurf") and mod is not None
              and getattr(mod, "integrate", None) is real]

    def counting(model, y0, settings):
        traj = real(model, y0, settings)
        counter[0] += steps_taken(traj, settings)
        return traj

    for mod in owners:
        mod.integrate = counting
    try:
        yield
    finally:
        for mod in owners:
            mod.integrate = real


def _verify_all_item() -> Item:
    steps = [0]

    def call():
        steps[0] = 0
        with count_integrator_steps(steps):
            return _run_cli(["verify", "all"])

    def check(result) -> Verdict:
        code, out, err = result
        lines = [ln.split(",") for ln in out.splitlines() if ln]
        verdict = Verdict(steps=steps[0], checks=max(1, len(lines)))
        failing = [ln[0] for ln in lines if len(ln) < 2 or ln[1] != "pass"]
        if code != 0 or failing or not lines:
            verdict.failure = (f"verify all exit {code}, failing: "
                               f"{', '.join(failing) or err.strip()}")
        return verdict

    return Item("verify_all", "cli.main", call, check)


def _tolerance_check(measure: Callable[[object], float], tol: float):
    def check(result) -> Verdict:
        value = measure(result)
        verdict = Verdict(checks=1)
        if not value <= tol:
            verdict.failure = f"mismatch {value:.3e} > {tol:g}"
        return verdict
    return check


def _holonomy_item(name, chart, loop, expected_transport=None) -> Item:
    def measure(res):
        worst = res.mismatch
        if expected_transport is not None:
            worst = max(worst, abs(verify.wrap_angle(
                res.transport - expected_transport)))
        return worst
    # rectangle tolerance from the geometry suite, latitude from criterion 11
    tol = 1e-6 if isinstance(loop, verify.LatitudeLoop) else 1e-8
    return Item(name, "verify.holonomy_loop",
                lambda: verify.holonomy_loop(chart, loop),
                _tolerance_check(measure, tol))


def _patch_item(name, chart, corner, K_of) -> Item:
    eps = 0.01
    centre = (corner[0] + 0.5 * eps, corner[1] + 0.5 * eps)
    return Item(name, "geometry.gauss_bonnet_patch_K",
                lambda: geometry.gauss_bonnet_patch_K(chart, corner, eps, eps),
                _tolerance_check(lambda k: abs(k - K_of(centre)), 1e-3))


def hyperbolic_chart(rng):
    return charts.custom("1", f"{rng.uniform(0.5, 2.0)!r} * exp(2 * x1)",
                         domain=charts.Domain((-3.0, 1.0), (-4.0, 4.0)))


def build_oracles(seed: int, outdir: str) -> list[Item]:
    """verify all, then 30 oracle calls: 4 rectangle and 2 latitude holonomy
    loops on built-in charts, 1 rectangle on the hyperbolic chart, 16
    built-in and 2 hyperbolic Gauss-Bonnet patches, 2 Euler-Lagrange
    residuals and 3 trajectory comparisons on runs integrated here."""
    rng = np.random.default_rng(seed)
    R = rng.uniform(0.8, 1.5)
    sph = charts.sphere(R)
    R0, r = 2.0, rng.uniform(0.3, 0.8)
    tor = charts.torus(R0, r)
    hyp = hyperbolic_chart(rng)

    def torus_K(x):
        return math.cos(x[0]) / (r * (R0 + r * math.cos(x[0])))

    items = [_verify_all_item()]
    for k in range(2):
        for chart, kind, lo, hi in ((sph, "sphere", 0.4, 2.4),
                                    (tor, "torus", 0.0, TWO_PI)):
            corner = (rng.uniform(lo, hi), rng.uniform(0.0, TWO_PI))
            loop = verify.RectangleLoop(corner, rng.uniform(0.05, 0.3),
                                        rng.uniform(0.05, 0.3))
            items.append(_holonomy_item(f"holonomy_rect/{kind}/{k}", chart,
                                        loop))
    for k in range(2):
        x1 = rng.uniform(0.4, math.pi - 0.4)
        # the cap above colatitude x1 carries total curvature 2 pi (1 - cos x1)
        items.append(_holonomy_item(
            f"holonomy_latitude/{k}", sph, verify.LatitudeLoop(x1),
            expected_transport=TWO_PI * (1.0 - math.cos(x1))))
    items.append(_holonomy_item(
        "holonomy_rect/hyperbolic", hyp,
        verify.RectangleLoop((rng.uniform(-2.5, -0.5), rng.uniform(-3.0, 2.0)),
                             rng.uniform(0.2, 0.8), rng.uniform(0.2, 1.0))))
    for k in range(8):
        items.append(_patch_item(
            f"patch_K/sphere/{k}", sph,
            (rng.uniform(0.4, 2.7), rng.uniform(0.0, TWO_PI)),
            lambda x: 1.0 / (R * R)))
        items.append(_patch_item(
            f"patch_K/torus/{k}", tor, tuple(rng.uniform(0.0, TWO_PI, 2)),
            torus_K))
    for k in range(2):
        items.append(_patch_item(
            f"patch_K/hyperbolic/{k}", hyp,
            (rng.uniform(-2.5, 0.5), rng.uniform(-3.0, 3.0)),
            lambda x: -1.0))
    items += _residual_items(rng, sph, tor)
    items += _comparison_items(rng, R)
    return items


def _residual_items(rng, sph, tor) -> list[Item]:
    """Discrete Euler-Lagrange residuals of short fine-step runs (tolerance
    from the dynamics suite)."""
    short = IntegratorSettings(dt=1e-4, n_steps=200)
    disk = dynamics.DiskParams(m=1.0, I_a=rng.uniform(0.01, 0.03),
                               I_d=rng.uniform(0.005, 0.015), R_disk=0.2)
    full = models.FullDiskModel(sph, disk)
    x, v = [rng.uniform(1.3, 1.8), rng.uniform(0.0, TWO_PI)], velocity(rng)
    y_full = full.pack(dynamics.FullState(
        x=x, v=v, theta=0.0,
        theta_dot=rng.uniform(50.0, 100.0)
        - float(geometry.geometry_jet(sph, x).f @ v)))
    mag = models.MagneticModel(tor, 1.0, rng.uniform(-2.0, 2.0))
    y_mag = np.array(list(rng.uniform(0.0, TWO_PI, 2)) + velocity(rng))
    items = []
    for name, model, y0 in (("el_residual/full_disk", full, y_full),
                            ("el_residual/magnetic", mag, y_mag)):
        traj = integrate(model, y0, short)
        items.append(Item(
            name, "verify.el_residual_oracle",
            lambda model=model, traj=traj: verify.el_residual_oracle(model,
                                                                     traj),
            _tolerance_check(lambda rep: rep.max_abs, 1e-6)))
    return items


def _comparison_items(rng, R) -> list[Item]:
    """Pairs of runs the theory says coincide (tolerances from criteria 5
    and 6 and the dynamics suite)."""
    settings = IntegratorSettings(dt=1e-3, n_steps=300, sample_every=10)
    pairs = []

    top = dynamics.TopParams(M=1.0, ell=rng.uniform(0.4, 0.6),
                             I1=rng.uniform(1.5, 2.5),
                             I3=rng.uniform(0.8, 1.2), g=9.8)
    eq = dynamics.top_to_sphere(top)
    x, v = [rng.uniform(0.8, 1.2), 0.0], [0.0, rng.uniform(0.2, 0.5)]
    omega_a = rng.uniform(20.0, 40.0)
    top_model = models.TopModel(top)
    twin = models.MagneticModel(eq.chart(), eq.m, eq.charge(omega_a),
                                potentials.axis_cosine(eq.m * top.g * eq.R))
    pairs.append((
        "compare/top_vs_sphere", "chart_distance", twin.chart, 1e-6,
        (top_model, top_model.pack(dynamics.FullState(
            x=x, v=v, theta=0.0, theta_dot=omega_a - v[1] * math.cos(x[0])))),
        (twin, np.array(x + v))))

    sph = charts.sphere(R)
    disk = dynamics.DiskParams(m=1.0, I_a=rng.uniform(0.01, 0.03),
                               I_d=rng.uniform(0.005, 0.015), R_disk=0.2)
    omega_a = rng.uniform(50.0, 100.0)
    full = models.FullDiskModel(sph, disk)
    x, v = [rng.uniform(1.3, 1.8), rng.uniform(0.0, TWO_PI)], velocity(rng)
    theta_dot = omega_a - float(geometry.geometry_jet(sph, x).f @ v)
    pairs.append((
        "compare/full_vs_reduced", "coordinate_sup", sph, 1e-10,
        (full, full.pack(dynamics.FullState(x=x, v=v, theta=0.0,
                                            theta_dot=theta_dot))),
        (models.ReducedDiskModel(sph, 1.0, disk.I_d, disk.I_a * omega_a),
         np.array(x + v))))

    cyl = charts.cylinder(rng.uniform(0.5, 1.5), half_length=20.0)
    y0 = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.0, TWO_PI)]
                  + velocity(rng))
    pairs.append((
        "compare/charged_vs_free_cylinder", "coordinate_sup", cyl, 1e-8,
        (models.MagneticModel(cyl, 1.0, rng.uniform(-2.0, 2.0)), y0),
        (models.GeodesicModel(cyl, 1.0, None), y0)))

    items = []
    for name, metric, chart, tol, (model_a, y_a), (model_b, y_b) in pairs:
        traj_a = integrate(model_a, y_a, settings)
        traj_b = integrate(model_b, y_b, settings)
        items.append(Item(
            name, "verify.compare_trajectories",
            lambda a=traj_a, b=traj_b, metric=metric, chart=chart:
                verify.compare_trajectories(a, b, metric, chart=chart),
            _tolerance_check(lambda rep: rep.max_abs, tol)))
    return items


WORKLOADS = {
    "ensemble_builtin": build_ensemble_builtin,
    "cli_custom_dense": build_cli_custom_dense,
    "oracles": build_oracles,
}
