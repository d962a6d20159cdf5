import math

import numpy as np
import pytest

from gyrosurf import charts, dynamics, models, potentials
from gyrosurf.errors import DomainError, NonFiniteStateError, SpeedFloorError
from gyrosurf.geometry import geodesic_curvature_monitor, geometry_jet
from gyrosurf.integrators import IntegratorSettings, Trajectory, integrate


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
    k0 = geodesic_curvature_monitor(geometry_jet(chart, y0[:2]), y0[2:],
                                    model.rhs(y0)[2:])
    assert abs(k0 - math.cos(x1) / speed) < 1e-8


class _NaNRate(models.MagneticModel):
    def rhs(self, y):
        return np.full(4, np.nan)


def test_non_finite_state_aborts():
    model = _NaNRate(charts.sphere(1.0), 1.0, 2.0)
    with pytest.raises(NonFiniteStateError):
        integrate(model, np.array([math.pi / 2, 0.0, 0.0, 1.0]),
                  IntegratorSettings(dt=1e-3, n_steps=10))


def test_curvature_monitor_rejects_stalled_point():
    jet = geometry_jet(charts.sphere(1.0), [math.pi / 2, 0.0])
    with pytest.raises(SpeedFloorError):
        geodesic_curvature_monitor(jet, [0.0, 0.0], [0.0, 0.0])


def five_models():
    """One (model, y0) pair of each kind, on the unit sphere."""
    sphere = charts.sphere(1.0)
    disk = dynamics.DiskParams.uniform(m=1.0, R_disk=0.2)
    top = dynamics.TopParams(M=1.0, ell=0.5, I1=2.0, I3=1.0, g=9.8)
    surface_y0 = np.array([1.2, 0.3, 0.2, 0.3])
    spinning = dynamics.FullState(x=[1.2, 0.3], v=[0.2, 0.3], theta=0.0,
                                  theta_dot=5.0)
    full_disk = models.FullDiskModel(sphere, disk)
    top_model = models.TopModel(top)
    return [
        (models.GeodesicModel(sphere, 1.1,
                              potentials.from_expression("0.1 * cos(x1)")),
         surface_y0),
        (models.MagneticModel(sphere, 1.1, 1.5), surface_y0),
        (models.ReducedDiskModel(sphere, 1.1, 0.02, 1.5), surface_y0),
        (full_disk, full_disk.pack(spinning)),
        (top_model, top_model.pack(spinning)),
    ]


FIVE_MODELS = five_models()


@pytest.mark.parametrize("model,y0", FIVE_MODELS,
                         ids=[model.name for model, _ in FIVE_MODELS])
def test_monitors_share_energy_and_axial_spin(model, y0):
    traj = integrate(model, y0,
                     IntegratorSettings(dt=1e-3, n_steps=20, sample_every=1))
    for i, state in enumerate(traj.states):
        assert traj.monitors["E"][i] == model.energy(state)
        if model.n_pos == 3:
            assert traj.monitors["omega_a"][i] == model.omega_a(state)
        else:
            assert math.isnan(traj.monitors["omega_a"][i])


@pytest.mark.parametrize("model,y0", FIVE_MODELS,
                         ids=[model.name for model, _ in FIVE_MODELS])
def test_monitor_sample_builds_one_jet(model, y0, monkeypatch):
    # terms, the rhs and the monitor jet each read the metric once; the
    # top's terms and rhs read no chart
    chart = model.monitor_chart
    calls = []
    metric = chart.metric

    def counted(*args, **kwargs):
        calls.append(args)
        return metric(*args, **kwargs)

    monkeypatch.setattr(chart, "metric", counted)
    model.monitors(y0)
    assert len(calls) == (1 if model.name == "top" else 3)


# leaves the sphere's chart at its pole within a few steps: the point stored
# after step 8 is outside the domain, and step 9 fails on it
ESCAPING = (models.MagneticModel(charts.sphere(1.0), 1.0, 2.8770374735273156),
            [0.019158115821879033, 0.0, -2.8622397754227182,
             12.497884022113702])


def test_last_sample_outside_chart_truncates():
    model, y0 = ESCAPING
    reasons = []
    for sample_every in (7, 1):
        traj = integrate(model, y0, IntegratorSettings(
            dt=1e-3, n_steps=200, sample_every=sample_every))
        assert traj.truncated
        assert all(model.chart.domain.contains(s[:2]) for s in traj.states)
        assert len(traj.times) == len(traj.states) == len(traj.monitors["E"])
        reasons.append(traj.truncation_reason)
    assert reasons[0] == reasons[1]
    assert reasons[0].startswith("step 9: x1 = ")
    # the run ends on the step that left the chart
    traj = integrate(model, y0,
                     IntegratorSettings(dt=1e-3, n_steps=8, sample_every=1))
    assert traj.truncated
    assert traj.truncation_reason.startswith("step 8: x1 = ")
    assert traj.n_samples == 8


def test_initial_point_outside_chart_raises():
    model, _ = ESCAPING
    with pytest.raises(DomainError):
        integrate(model, [4.0, 0.0, 0.0, 1.0],
                  IntegratorSettings(dt=1e-3, n_steps=10))


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
