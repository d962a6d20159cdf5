"""Named check batteries behind the `verify` subcommand.

Each check returns a CheckResult; the report format is one line per check,
`name,status,max_abs,rms,tolerance`.  Suites are trimmed-down versions of
the acceptance tests: same oracles, shorter runs, so `verify all` stays
interactive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import charts, dynamics, models, potentials, verify
from .geometry import gauss_bonnet_patch_K, geometry_jet, rotate90
from .integrators import IntegratorSettings, integrate

SUITE_NAMES = ("geometry", "dynamics", "top", "all")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_abs: float
    rms: float
    tolerance: float

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def line(self) -> str:
        return "%s,%s,%.6e,%.6e,%.6e" % (
            self.name, self.status, self.max_abs, self.rms, self.tolerance
        )


def _result(name: str, values, tolerance: float) -> CheckResult:
    values = np.asarray(values, dtype=float)
    report = verify._make_report(values, np.arange(len(values)), tolerance)
    return _from_report(name, report, tolerance)


def _from_report(name: str, report: verify.ResidualReport,
                 tolerance: float) -> CheckResult:
    return CheckResult(name, report.max_abs <= tolerance,
                       report.max_abs, report.rms, tolerance)


# -- geometry ------------------------------------------------------------------


def _torus_K(R0: float, r: float, x1: float) -> float:
    return math.cos(x1) / (r * (R0 + r * math.cos(x1)))


def geometry_checks() -> list[CheckResult]:
    rng = np.random.default_rng(20260817)
    out = []

    sph1, sph2 = charts.sphere(1.0), charts.sphere(2.0)
    errs = []
    for _ in range(20):
        x = (rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.0, 2 * math.pi))
        errs.append(geometry_jet(sph1, x).K - 1.0)
        errs.append(geometry_jet(sph2, x).K - 0.25)
    out.append(_result("sphere_curvature", errs, 1e-10))

    tor = charts.torus(2.0, 0.5)
    errs = []
    for _ in range(20):
        x = rng.uniform(0.0, 2 * math.pi, 2)
        errs.append(geometry_jet(tor, x).K - _torus_K(2.0, 0.5, x[0]))
    out.append(_result("torus_curvature", errs, 1e-10))

    flat_errs = []
    for ch in (charts.plane(), charts.cylinder(0.7)):
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, 2)
            flat_errs.append(geometry_jet(ch, x).K)
    out.append(_result("flat_surfaces", flat_errs, 1e-12))

    kappa = 1.3
    sad = charts.saddle(kappa)
    errs = []
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 2)
        want = -(kappa**2) / (1.0 + kappa**2 * (x[0]**2 + x[1]**2)) ** 2
        errs.append(geometry_jet(sad, x).K - want)
    out.append(_result("saddle_curvature", errs, 1e-10))

    # structure identity: FD curl of the frame covector vs K * sqrt(det g)
    errs = []
    h = 1e-4
    for ch, lo, hi in ((sph1, 0.3, math.pi - 0.3), (tor, 0.0, 2 * math.pi)):
        for _ in range(50):
            x = np.array([rng.uniform(lo, hi), rng.uniform(0.0, 2 * math.pi)])
            def f_at(p):
                return geometry_jet(ch, p, enforce_domain=False).f
            d2f1 = (f_at(x + [0, h])[0] - f_at(x - [0, h])[0]) / (2 * h)
            d1f2 = (f_at(x + [h, 0])[1] - f_at(x - [h, 0])[1]) / (2 * h)
            jet = geometry_jet(ch, x)
            errs.append((d2f1 - d1f2) - jet.sqrt_det_g * jet.K)
    out.append(_result("lemma2_identity", errs, 1e-6))

    # rectangle-loop estimate against analytic K
    errs = [
        gauss_bonnet_patch_K(sph1, (math.pi / 2, 0.0), 0.01, 0.01) - 1.0,
        gauss_bonnet_patch_K(tor, (1.0, 1.0), 0.01, 0.01)
        - _torus_K(2.0, 0.5, 1.0 + 0.005),
    ]
    out.append(_result("patch_curvature", errs, 1e-3))

    errs = []
    for _ in range(30):
        x = (rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.0, 2 * math.pi))
        jet = geometry_jet(sph1, x)
        v = rng.uniform(-2.0, 2.0, 2)
        w = rotate90(jet, v)
        errs.append(float(v @ jet.g @ w))
        errs.append(float(w @ jet.g @ w) - float(v @ jet.g @ v))
    out.append(_result("rotate90_orthogonal_isometry", errs, 1e-12))

    worst = 0.0
    for _ in range(1000):
        A = rng.uniform(-10.0, 10.0, (2, 2))
        H = 0.5 * (A + A.T)
        scale = max(float(np.abs(H).max()) ** 2, 1e-30)
        worst = max(worst, verify.hjh_identity(H) / scale)
    out.append(_result("hjh_identity", [worst], 1e-12))

    res = verify.holonomy_loop(
        sph1, verify.RectangleLoop((math.pi / 2 - 0.05, -0.05), 0.1, 0.1)
    )
    out.append(_result("holonomy_rectangle", [res.mismatch], 1e-8))

    res = verify.holonomy_loop(sph1, verify.LatitudeLoop(math.pi / 3))
    out.append(_result(
        "holonomy_latitude",
        [res.mismatch, verify.wrap_angle(res.transport) - math.pi],
        1e-6,
    ))

    errs = []
    for _ in range(20):
        x = rng.uniform(0.0, 2 * math.pi, 2)
        jet = geometry_jet(tor, x)
        errs.append(float(np.linalg.det(jet.S)) - jet.K)
    out.append(_result("shape_operator_det", errs, 1e-10))

    return out


# -- dynamics ------------------------------------------------------------------


def _drift(values: np.ndarray) -> float:
    ref = abs(float(values[0]))
    return float(np.max(np.abs(values - values[0]))) / max(ref, 1e-300)


def dynamics_checks() -> list[CheckResult]:
    out = []
    ch = charts.sphere(1.0)
    settings = IntegratorSettings(dt=1e-3, n_steps=2000, sample_every=10)

    mag = models.MagneticModel(ch, 1.0, 2.0)
    y0 = mag.pack(dynamics.ReducedState([math.pi / 2, 0.0], [0.0, 1.0]))
    traj = integrate(mag, y0, settings)
    out.append(_result("magnetic_energy_drift",
                       [_drift(traj.monitors["E"])], 1e-10))
    out.append(_result("magnetic_speed_drift",
                       [_drift(traj.monitors["speed"])], 1e-10))

    # geodesic curvature along the run must equal L K / (m |v|)
    errs = []
    for i in range(traj.n_samples):
        want = 2.0 * traj.monitors["K"][i] / (1.0 * traj.monitors["speed"][i])
        errs.append(traj.monitors["k_geo"][i] - want)
    out.append(_result("curvature_force_law", errs, 1e-8))

    # the mass-matrix path at I_d = 0 against the model's Christoffel path
    def zero_inertia_gap(model, y):
        dx, dv = dynamics.reduced_disk_rhs(model.chart, model.m, 0.0, model.L,
                                           None, model.unpack(y))
        return np.concatenate([dx, dv]) - model.rhs(y)

    rng = np.random.default_rng(7)
    errs = []
    mag_t = models.MagneticModel(charts.torus(2.0, 0.5), 1.0, 1.0)
    for _ in range(50):
        x = [rng.uniform(0.5, math.pi - 0.5), rng.uniform(0.0, 2 * math.pi)]
        v = rng.uniform(-1.0, 1.0, 2)
        errs.append(zero_inertia_gap(mag, np.concatenate([x, v])))
        y2 = np.concatenate([rng.uniform(0.0, 2 * math.pi, 2), v])
        errs.append(zero_inertia_gap(mag_t, y2))
    out.append(_result("reduced_zero_inertia_matches_magnetic", errs, 1e-10))

    disk = dynamics.DiskParams(m=1.0, I_a=0.02, I_d=0.01, R_disk=0.2)
    full = models.FullDiskModel(ch, disk)
    jet0 = geometry_jet(ch, [math.pi / 2, 0.0])
    y0f = full.pack(dynamics.FullState(
        x=[math.pi / 2, 0.0], v=[0.0, 1.0], theta=0.0,
        theta_dot=100.0 - float(jet0.f @ [0.0, 1.0]),
    ))
    traj_f = integrate(full, y0f, settings)
    out.append(_result("full_energy_drift",
                       [_drift(traj_f.monitors["E"])], 1e-8))
    out.append(_result("full_axial_momentum_drift",
                       [_drift(traj_f.monitors["omega_a"] * disk.I_a)], 1e-8))

    red_d = models.ReducedDiskModel(ch, 1.0, disk.I_d, disk.I_a * 100.0)
    y0r = red_d.pack(dynamics.ReducedState([math.pi / 2, 0.0], [0.0, 1.0]))
    traj_r = integrate(red_d, y0r, settings)
    rep = verify.compare_trajectories(traj_f, traj_r, "coordinate_sup",
                                      chart=ch)
    out.append(_from_report("full_matches_reduced", rep, 1e-10))

    short = integrate(full, y0f, IntegratorSettings(dt=1e-4, n_steps=200))
    rep = verify.el_residual_oracle(full, short)
    out.append(_from_report("el_residual_full_disk", rep, 1e-6))

    return out


# -- top -----------------------------------------------------------------------


def steady_precession_rate(top: dynamics.TopParams, x1: float,
                           omega_a: float) -> float:
    """Slow root of I1 W^2 cos(x1) - I3 omega_a W + M g ell = 0.

    With A = I1 cos(x1), B = I3 omega_a and C = M g ell the root is
    W = 2 C / (B + sqrt(B^2 - 4 A C)), which stays exact as A -> 0 and also
    holds for a top below the horizontal (A < 0).
    """
    A = top.I1 * math.cos(x1)
    B = top.I3 * omega_a
    C = top.M * top.g * top.ell
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        raise ValueError("no real precession rate: spin too slow")
    return 2.0 * C / (B + math.sqrt(disc))


def top_checks() -> list[CheckResult]:
    out = []
    top = dynamics.TopParams(M=1.0, ell=0.5, I1=2.0, I3=1.0, g=9.8)
    eq = dynamics.top_to_sphere(top)
    out.append(_result("top_sphere_parameters",
                       [eq.R - 4.0, eq.m - 0.125], 0.0))

    tm = models.TopModel(top)
    omega_a0 = 30.0
    x0, v0 = [math.pi / 3, 0.0], [0.0, 0.3]
    y0t = tm.pack(dynamics.FullState(
        x=x0, v=v0, theta=0.0, theta_dot=omega_a0 - v0[1] * math.cos(x0[0])
    ))
    settings = IntegratorSettings(dt=1e-3, n_steps=2000, sample_every=10)
    traj_t = integrate(tm, y0t, settings)
    out.append(_result("top_energy_drift",
                       [_drift(traj_t.monitors["E"])], 1e-8))
    out.append(_result("top_axial_momentum_drift",
                       [_drift(traj_t.monitors["omega_a"] * top.I3)], 1e-8))

    ch = eq.chart()
    mag = models.MagneticModel(ch, eq.m, eq.charge(omega_a0),
                               potentials.axis_cosine(eq.m * top.g * eq.R))
    y0m = mag.pack(dynamics.ReducedState(x0, v0))
    traj_m = integrate(mag, y0m, settings)
    rep = verify.compare_trajectories(traj_t, traj_m, "chart_distance",
                                      chart=ch)
    out.append(_from_report("top_matches_sphere_magnetic", rep, 1e-6))

    Omega = steady_precession_rate(top, math.pi / 3, omega_a0)
    y0s = tm.pack(dynamics.FullState(
        x=[math.pi / 3, 0.0], v=[0.0, Omega], theta=0.0,
        theta_dot=omega_a0 - Omega * math.cos(math.pi / 3),
    ))
    traj_s = integrate(tm, y0s, settings)
    out.append(_result("steady_precession_holds_tilt",
                       traj_s.column("x1") - math.pi / 3, 1e-8))

    return out


def all_checks() -> list[CheckResult]:
    return geometry_checks() + dynamics_checks() + top_checks()


def run_suite(name: str) -> list[CheckResult]:
    if name == "geometry":
        return geometry_checks()
    if name == "dynamics":
        return dynamics_checks()
    if name == "top":
        return top_checks()
    if name == "all":
        return all_checks()
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
