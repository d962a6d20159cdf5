"""The checks of the paper's two claims, and the `verify` suites that run
them.

A shared check takes its settings and scenario data as arguments, so the
`verify` suites and the acceptance gate (`tests/test_acceptance.py`) run the
same code: the suites are the acceptance checks at short settings, so that
`verify all` stays interactive.  The drift of a conserved track q is
max|q - q0| / max(1, |q0|) (`drift`), relative for large values and
absolute near zero.

Each suite check returns a CheckResult; the report format is one line per
check, `name,status,max_abs,rms,tolerance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import charts, dynamics, models, verify
from .geometry import gauss_bonnet_patch_K, geometry_jet, rotate90
from .integrators import IntegratorSettings, integrate


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


# -- shared checks -------------------------------------------------------------


def drift(track) -> float:
    """max|q - q0| / max(1, |q0|) over a conserved track q; NaN if any
    sample is NaN, so that a broken run cannot pass."""
    track = np.asarray(track, dtype=float)
    return float(np.max(np.abs(track - track[0])) / max(1.0, abs(track[0])))


def frame_curl_residuals(chart, points, h: float = 1e-4,
                         jet=geometry_jet) -> np.ndarray:
    """Central-difference curl of the frame covector f minus K sqrt(det g),
    one entry per point: the paper's identity d2 f1 - d1 f2 = K sqrt(det g).

    `jet(chart, x, enforce_domain=...)` makes the jets; a wrapped `jet`
    plants a defect for a mutation check.
    """
    def f_at(x):
        return jet(chart, x, enforce_domain=False).f

    out = []
    for x in np.asarray(points, dtype=float):
        d2f1 = (f_at(x + [0, h])[0] - f_at(x - [0, h])[0]) / (2 * h)
        d1f2 = (f_at(x + [h, 0])[1] - f_at(x - [h, 0])[1]) / (2 * h)
        center = jet(chart, x)
        out.append(d2f1 - d1f2 - center.sqrt_det_g * center.K)
    return np.array(out)


def zero_inertia_gap(chart, m: float, L: float,
                     state: dynamics.ReducedState) -> np.ndarray:
    """(dx, dv) of the mass-matrix law `reduced_disk_rhs` at I_d = 0 minus
    those of the Christoffel law `magnetic_geodesic_rhs`."""
    dx_r, dv_r = dynamics.reduced_disk_rhs(chart, m, 0.0, L, None, state)
    dx_m, dv_m = dynamics.magnetic_geodesic_rhs(chart, m, L, None, state)
    return np.concatenate([dx_r - dx_m, dv_r - dv_m])


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


def steady_precession_tilt_error(top: dynamics.TopParams, x1: float,
                                 omega_a: float,
                                 settings: IntegratorSettings) -> np.ndarray:
    """Tilt minus x1 along a top started at tilt x1 with the slow
    steady-precession rate; it stays zero up to the integration error."""
    model = models.TopModel(top)
    rate = steady_precession_rate(top, x1, omega_a)
    y0 = model.start([x1, 0.0], [0.0, rate], omega_a)
    return integrate(model, y0, settings).column("x1") - x1


def top_vs_sphere(top: dynamics.TopParams, x, v, omega_a: float,
                  settings: IntegratorSettings):
    """Run the top and its sphere twin from (x, v) at axial spin omega_a.

    Returns the top's trajectory and the chart distance between the two.
    """
    model = models.TopModel(top)
    twin = model.sphere_twin(omega_a)
    traj_top = integrate(model, model.start(x, v, omega_a), settings)
    traj_twin = integrate(twin, twin.pack(dynamics.ReducedState(x, v)),
                          settings)
    return traj_top, verify.compare_trajectories(
        traj_top, traj_twin, "chart_distance", chart=twin.chart)


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

    errs = []
    for ch, lo, hi in ((sph1, 0.3, math.pi - 0.3), (tor, 0.0, 2 * math.pi)):
        pts = [[rng.uniform(lo, hi), rng.uniform(0.0, 2 * math.pi)]
               for _ in range(50)]
        errs.extend(frame_curl_residuals(ch, pts))
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


def dynamics_checks() -> list[CheckResult]:
    out = []
    ch = charts.sphere(1.0)
    settings = IntegratorSettings(dt=1e-3, n_steps=2000, sample_every=10)

    mag = models.MagneticModel(ch, 1.0, 2.0)
    y0 = mag.pack(dynamics.ReducedState([math.pi / 2, 0.0], [0.0, 1.0]))
    traj = integrate(mag, y0, settings)
    # E0 = 0.5, so this bound is 1e-10 relative to E0
    out.append(_result("magnetic_energy_drift",
                       [drift(traj.monitors["E"])], 5e-11))
    out.append(_result("magnetic_speed_drift",
                       [drift(traj.monitors["speed"])], 1e-10))

    # geodesic curvature along the run must equal L K / (m |v|)
    errs = []
    for i in range(traj.n_samples):
        want = 2.0 * traj.monitors["K"][i] / (1.0 * traj.monitors["speed"][i])
        errs.append(traj.monitors["k_geo"][i] - want)
    out.append(_result("curvature_force_law", errs, 1e-8))

    rng = np.random.default_rng(7)
    errs = []
    tor = charts.torus(2.0, 0.5)
    for _ in range(50):
        x = [rng.uniform(0.5, math.pi - 0.5), rng.uniform(0.0, 2 * math.pi)]
        v = rng.uniform(-1.0, 1.0, 2)
        errs.append(zero_inertia_gap(ch, 1.0, 2.0,
                                     dynamics.ReducedState(x, v)))
        x_t = rng.uniform(0.0, 2 * math.pi, 2)
        errs.append(zero_inertia_gap(tor, 1.0, 1.0,
                                     dynamics.ReducedState(x_t, v)))
    out.append(_result("reduced_zero_inertia_matches_magnetic", errs, 1e-10))

    disk = dynamics.DiskParams(m=1.0, I_a=0.02, I_d=0.01, R_disk=0.2)
    full = models.FullDiskModel(ch, disk)
    y0f = full.start([math.pi / 2, 0.0], [0.0, 1.0], 100.0)
    traj_f = integrate(full, y0f, settings)
    out.append(_result("full_energy_drift",
                       [drift(traj_f.monitors["E"])], 1e-8))
    out.append(_result("full_axial_momentum_drift",
                       [drift(traj_f.monitors["omega_a"] * disk.I_a)], 1e-8))

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


def top_checks() -> list[CheckResult]:
    out = []
    top = dynamics.TopParams(M=1.0, ell=0.5, I1=2.0, I3=1.0, g=9.8)
    eq = dynamics.top_to_sphere(top)
    out.append(_result("top_sphere_parameters",
                       [eq.R - 4.0, eq.m - 0.125], 0.0))

    settings = IntegratorSettings(dt=1e-3, n_steps=2000, sample_every=10)
    traj_t, rep = top_vs_sphere(top, [math.pi / 3, 0.0], [0.0, 0.3], 30.0,
                                settings)
    out.append(_result("top_energy_drift",
                       [drift(traj_t.monitors["E"])], 1e-8))
    out.append(_result("top_axial_momentum_drift",
                       [drift(traj_t.monitors["omega_a"] * top.I3)], 1e-8))
    out.append(_from_report("top_matches_sphere_magnetic", rep, 1e-6))
    out.append(_result(
        "steady_precession_holds_tilt",
        steady_precession_tilt_error(top, math.pi / 3, 30.0, settings), 1e-8))

    return out


SUITES = {"geometry": geometry_checks, "dynamics": dynamics_checks,
          "top": top_checks}
SUITE_NAMES = (*SUITES, "all")


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    chosen = SUITES.values() if name == "all" else [SUITES[name]]
    return [result for checks in chosen for result in checks()]
