import math

import numpy as np
import pytest

from gyrosurf import charts, models, suites, verify
from gyrosurf.errors import (
    DomainError,
    GridMismatchError,
    InsufficientSamplesError,
    NonOrthogonalChartError,
    NonSymmetricError,
    OpenLoopError,
)
from gyrosurf.integrators import IntegratorSettings, integrate

TWO_PI = 2 * math.pi


def test_wrap_angle():
    assert verify.wrap_angle(0.0) == 0.0
    assert verify.wrap_angle(math.pi) == math.pi
    assert verify.wrap_angle(-math.pi) == math.pi
    assert verify.wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert verify.wrap_angle(TWO_PI + 0.25) == pytest.approx(0.25)
    assert verify.wrap_angle(-0.1) == pytest.approx(-0.1)


def test_drift_is_relative_to_max_of_one_and_start():
    # below |q0| = 1 the drift is absolute, above it relative
    assert suites.drift([0.5, 0.75, 0.375]) == 0.25
    assert suites.drift([-4.0, -3.0, -5.0]) == 0.25
    assert suites.drift(np.full(5, 0.5)) == 0.0
    # a NaN anywhere in the track must not read as a pass
    for track in ([1.0, math.nan, 1.0], [math.nan, 1.0, 1.0]):
        value = suites.drift(track)
        assert math.isnan(value)
        assert not suites._result("drift", [value], 1.0).passed


def test_hjh_identity_random():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        A = rng.standard_normal((2, 2)) * 10 ** rng.uniform(-3, 3)
        H = A + A.T
        scale = max(1.0, np.max(np.abs(H)) ** 2)
        worst = max(worst, verify.hjh_identity(H) / scale)
    assert worst < 1e-12


def test_hjh_identity_trivial_cases():
    assert verify.hjh_identity(np.eye(2)) == 0.0
    assert verify.hjh_identity(np.zeros((2, 2))) == 0.0
    assert verify.hjh_identity(np.diag([2.0, 3.0])) == 0.0


def test_hjh_identity_rejects_bad_input():
    with pytest.raises(NonSymmetricError):
        verify.hjh_identity(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(NonSymmetricError):
        verify.hjh_identity(np.eye(3))


def test_rectangle_holonomy_matches_area_on_sphere():
    chart = charts.sphere(1.0)
    res = verify.holonomy_loop(
        chart, verify.RectangleLoop(corner=(0.7, 0.3), eps=0.5, delta=0.8))
    assert res.mismatch < 1e-10
    # closed form: enclosed area of the band strip
    want = 0.8 * (math.cos(0.7) - math.cos(1.2))
    assert res.area == pytest.approx(want, abs=1e-12)
    assert res.transport == pytest.approx(want, abs=1e-10)


def test_rectangle_holonomy_flat_is_zero():
    res = verify.holonomy_loop(
        charts.plane(), verify.RectangleLoop(corner=(-1.0, -1.0), eps=2.0,
                                             delta=2.0))
    assert abs(res.transport) < 1e-14
    assert abs(res.area) < 1e-14


def test_latitude_holonomy_unit_sphere():
    res = verify.holonomy_loop(charts.sphere(1.0),
                               verify.LatitudeLoop(math.pi / 3))
    assert res.transport == pytest.approx(-math.pi, abs=1e-12)
    assert res.area == pytest.approx(math.pi, abs=1e-12)
    assert res.mismatch < 1e-10


def test_latitude_holonomy_scales_with_cap():
    # transport is -2 pi cos(x1) regardless of sphere radius
    for x1 in (0.4, 1.0, 2.2):
        res = verify.holonomy_loop(charts.sphere(2.0), verify.LatitudeLoop(x1))
        assert res.transport == pytest.approx(-TWO_PI * math.cos(x1),
                                              abs=1e-10)
        assert res.mismatch < 1e-9


def test_holonomy_loop_rejections():
    sph = charts.sphere(1.0)
    with pytest.raises(OpenLoopError):
        verify.holonomy_loop(sph, verify.RectangleLoop((1.0, 1.0), 0.0, 0.1))
    with pytest.raises(DomainError):
        verify.holonomy_loop(sph, verify.RectangleLoop((3.0, 0.1), 0.5, 0.5))
    with pytest.raises(OpenLoopError):
        # no periodic x2 to ride around
        verify.holonomy_loop(charts.plane(), verify.LatitudeLoop(0.5))
    with pytest.raises(OpenLoopError):
        # a torus latitude does not bound a cap
        verify.holonomy_loop(charts.torus(2.0, 0.5),
                             verify.LatitudeLoop(1.0))
    with pytest.raises(NonOrthogonalChartError):
        verify.holonomy_loop(charts.saddle(1.0),
                             verify.RectangleLoop((0.0, 0.0), 0.1, 0.1))
    with pytest.raises(OpenLoopError):
        verify.holonomy_loop(sph, "pentagon")


def run_magnetic(dt, n_steps, sample_every=1):
    model = models.MagneticModel(charts.sphere(1.0), 1.0, 2.0)
    y0 = np.array([math.pi / 2, 0.0, 0.2, 1.0])
    traj = integrate(model, y0, IntegratorSettings(dt=dt, n_steps=n_steps,
                                                   sample_every=sample_every))
    return model, traj


def test_el_residual_second_order_in_dt():
    errs = []
    grid = (4e-3, 2e-3, 1e-3)
    for dt in grid:
        model, traj = run_magnetic(dt, 50)
        errs.append(verify.el_residual_oracle(model, traj).max_abs)
    slope = np.polyfit(np.log(grid), np.log(errs), 1)[0]
    assert slope > 1.9


def test_el_residual_flags_corrupted_sample():
    model, traj = run_magnetic(1e-3, 60)
    clean = verify.el_residual_oracle(model, traj).max_abs
    traj.states[30, 0] += 1e-3
    report = verify.el_residual_oracle(model, traj)
    assert report.max_abs > 100 * clean
    assert report.max_abs > 1e-2
    assert report.location == pytest.approx(traj.times[30], abs=2e-3)


def test_el_residual_exact_for_straight_line():
    # uniform motion on the plane satisfies the equations to roundoff
    model = models.GeodesicModel(charts.plane(extent=100.0), 1.0, None)
    times = np.linspace(0.0, 1.0, 21)
    states = np.zeros((21, 4))
    states[:, 0] = 3.0 * times
    states[:, 1] = -2.0 * times
    states[:, 2] = 3.0
    states[:, 3] = -2.0
    from gyrosurf.integrators import Trajectory
    traj = Trajectory(model="geodesic", columns=model.columns, times=times,
                      states=states)
    assert verify.el_residual_oracle(model, traj).max_abs < 1e-8


def test_el_residual_input_validation():
    model, traj = run_magnetic(1e-3, 3)
    with pytest.raises(InsufficientSamplesError):
        verify.el_residual_oracle(model, traj)
    model, traj = run_magnetic(1e-3, 20)
    traj.times = traj.times.copy()
    traj.times[7] += 3e-4
    with pytest.raises(GridMismatchError):
        verify.el_residual_oracle(model, traj)


def test_el_residual_respects_sampling_stride():
    # thinned output still has a uniform grid, oracle runs on the wider dt
    model, traj = run_magnetic(1e-3, 200, sample_every=10)
    assert verify.el_residual_oracle(model, traj).max_abs < 1e-2


def test_compare_identical_trajectories():
    _, a = run_magnetic(1e-3, 50)
    _, b = run_magnetic(1e-3, 50)
    rep = verify.compare_trajectories(a, b)
    assert rep.max_abs == 0.0
    assert rep.rms == 0.0


def test_compare_reports_deviation_and_location():
    _, a = run_magnetic(1e-3, 50)
    _, b = run_magnetic(1e-3, 50)
    b.states[20, 1] += 5e-4
    rep = verify.compare_trajectories(a, b, tolerance=1e-6)
    assert rep.max_abs == pytest.approx(5e-4)
    assert rep.location == pytest.approx(a.times[20])
    assert not rep.passed


def test_compare_wraps_periodic_axes():
    chart = charts.torus(2.0, 0.5)
    _, a = run_magnetic(1e-3, 10)
    b_states = a.states.copy()
    b_states[:, 1] += TWO_PI  # same points, shifted branch
    from gyrosurf.integrators import Trajectory
    b = Trajectory(model=a.model, columns=a.columns, times=a.times,
                   states=b_states)
    raw = verify.compare_trajectories(a, b)
    assert raw.max_abs == pytest.approx(TWO_PI)
    wrapped = verify.compare_trajectories(a, b, chart=chart)
    assert wrapped.max_abs < 1e-12


def test_compare_chart_distance_metric():
    chart = charts.sphere(1.0)
    _, a = run_magnetic(1e-3, 10)
    b_states = a.states.copy()
    b_states[:, 1] += 1e-3  # x2 offset scales by sin(x1) in the metric
    from gyrosurf.integrators import Trajectory
    b = Trajectory(model=a.model, columns=a.columns, times=a.times,
                   states=b_states)
    rep = verify.compare_trajectories(a, b, metric="chart_distance",
                                      chart=chart)
    x1 = a.column("x1")
    want = np.max(np.abs(math.sin(1.0) * 0.0 + np.sin(x1) * 1e-3))
    assert rep.max_abs == pytest.approx(want, rel=1e-6)
    with pytest.raises(ValueError):
        verify.compare_trajectories(a, b, metric="chart_distance")


def test_compare_rejects_mismatched_grids():
    _, a = run_magnetic(1e-3, 50)
    _, b = run_magnetic(1e-3, 40)
    with pytest.raises(GridMismatchError):
        verify.compare_trajectories(a, b)
    _, c = run_magnetic(2e-3, 25)
    with pytest.raises(GridMismatchError):
        verify.compare_trajectories(a, c)
