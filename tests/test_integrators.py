import math

import numpy as np
import pytest

from gyrosurf import charts, dynamics, models, potentials
from gyrosurf.errors import NonFiniteStateError, SpeedFloorError
from gyrosurf.integrators import (
    IntegratorSettings,
    Trajectory,
    geodesic_curvature_monitor,
    integrate,
)


def oscillator_error(scheme, dt):
    # harmonic motion along x2 of the plane: x'' = -x via potential x^2/2
    model = models.GeodesicModel(charts.plane(extent=50.0), 1.0,
                                 potentials.from_expression("x2^2 / 2"))
    n = round(1.0 / dt)
    traj = integrate(model, np.array([0.0, 1.0, 0.0, 0.0]),
                     IntegratorSettings(dt=dt, n_steps=n, sample_every=n,
                                        scheme=scheme))
    return abs(traj.column("x2")[-1] - math.cos(1.0))


@pytest.mark.parametrize("scheme,order", [("rk4", 4.0), ("midpoint", 2.0)])
def test_scheme_convergence_order(scheme, order):
    grid = (0.04, 0.02, 0.01)
    errs = [oscillator_error(scheme, dt) for dt in grid]
    slope = np.polyfit(np.log(grid), np.log(errs), 1)[0]
    assert slope > order - 0.15


def test_rerun_is_bit_identical():
    model = models.MagneticModel(charts.sphere(1.0), 1.0, 2.0)
    y0 = np.array([math.pi / 2, 0.0, 0.0, 1.0])
    settings = IntegratorSettings(dt=1e-3, n_steps=300, sample_every=3)
    a = integrate(model, y0, settings)
    b = integrate(model, y0, settings)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_truncation_on_domain_exit():
    # a meridian launch runs into the pole guard
    model = models.GeodesicModel(charts.sphere(1.0), 1.0, None)
    y0 = np.array([math.pi / 2, 0.0, -1.0, 0.0])
    traj = integrate(model, y0,
                     IntegratorSettings(dt=1e-2, n_steps=1000))
    assert traj.truncated
    assert traj.truncation_reason.startswith("step ")
    assert "x1" in traj.truncation_reason
    assert traj.n_samples < 1001
    # retained samples are all inside the domain
    assert np.all(traj.column("x1") > 0.0)


def test_monitor_tracks_present_and_aligned():
    model = models.MagneticModel(charts.sphere(1.0), 1.0, 0.5)
    y0 = np.array([math.pi / 2, 0.0, 0.0, 1.0])
    traj = integrate(model, y0,
                     IntegratorSettings(dt=1e-3, n_steps=100, sample_every=10))
    for name in ("E", "speed", "k_geo", "K"):
        assert name in traj.monitors
        assert traj.monitors[name].shape == traj.times.shape
        assert np.all(np.isfinite(traj.monitors[name]))
    assert traj.n_samples == 11
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.1)


def test_geodesic_curvature_monitor_against_embedding():
    # a latitude circle at x1 driven as a forced path: ride it with the
    # magnetic model whose charge enforces that exact circle, then check
    # k_geo against the embedding-space value cot(x1) on the unit sphere
    x1 = math.pi / 3
    chart = charts.sphere(1.0)
    speed = math.sin(x1)
    L = speed * math.cos(x1) / math.sin(x1)  # k_geo = L K / (m v) = cot(x1)
    model = models.MagneticModel(chart, 1.0, L)
    y0 = np.array([x1, 0.0, 0.0, 1.0])
    traj = integrate(model, y0,
                     IntegratorSettings(dt=1e-3, n_steps=2000, sample_every=100))
    assert np.max(np.abs(traj.column("x1") - x1)) < 1e-9
    assert np.max(np.abs(traj.monitors["k_geo"] - math.cos(x1) / speed)) < 1e-8


class _NaNRate(models.MagneticModel):
    def rhs(self, y):
        return np.full(4, np.nan)


def test_non_finite_state_aborts():
    model = _NaNRate(charts.sphere(1.0), 1.0, 2.0)
    with pytest.raises(NonFiniteStateError):
        integrate(model, np.array([math.pi / 2, 0.0, 0.0, 1.0]),
                  IntegratorSettings(dt=1e-3, n_steps=10))


def test_curvature_monitor_rejects_stalled_point():
    state = dynamics.ReducedState(x=[math.pi / 2, 0.0], v=[0.0, 0.0])
    with pytest.raises(SpeedFloorError):
        geodesic_curvature_monitor(charts.sphere(1.0), state, [0.0, 0.0])


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(dt=0.0, n_steps=10)
    with pytest.raises(ValueError):
        IntegratorSettings(dt=1e-3, n_steps=0)
    with pytest.raises(ValueError):
        IntegratorSettings(dt=1e-3, n_steps=10, sample_every=0)
    with pytest.raises(ValueError):
        IntegratorSettings(dt=1e-3, n_steps=10, scheme="euler")


def test_column_lookup():
    traj = Trajectory(model="geodesic", columns=("x1", "x2", "v1", "v2"),
                      times=np.zeros(1), states=np.arange(4.0)[None, :])
    assert traj.column("v1")[0] == 2.0
    with pytest.raises(ValueError):
        traj.column("theta")
