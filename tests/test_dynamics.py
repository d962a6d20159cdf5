import math

import numpy as np
import pytest

from gyrosurf import charts, dynamics, models, potentials
from gyrosurf.errors import (
    DomainError,
    NonOrthogonalChartError,
    SingularMassMatrixError,
)
from gyrosurf.geometry import geometry_jet
from gyrosurf.integrators import IntegratorSettings, integrate


def test_parallel_transport_rate_latitude():
    # riding a latitude of the unit sphere, the frame precesses at -cos(x1)
    jet = geometry_jet(charts.sphere(1.0), (math.pi / 3, 0.0))
    rate = dynamics.parallel_transport_rate(jet, [0.0, 1.0])
    assert rate == pytest.approx(-0.5, abs=1e-14)
    # along a meridian nothing turns
    assert dynamics.parallel_transport_rate(jet, [1.0, 0.0]) == 0.0


def test_axial_spin_definition():
    jet = geometry_jet(charts.sphere(1.0), (math.pi / 3, 0.0))
    state = dynamics.FullState(x=[math.pi / 3, 0.0], v=[0.2, 1.0],
                               theta=0.0, theta_dot=5.0)
    want = 5.0 + float(jet.f @ [0.2, 1.0])
    assert dynamics.axial_spin(jet, state) == pytest.approx(want)


def test_magnetic_force_does_no_work():
    rng = np.random.default_rng(21)
    chart = charts.torus(2.0, 0.5)
    for _ in range(50):
        x = rng.uniform(0, 2 * math.pi, 2)
        v = rng.uniform(-2, 2, 2)
        jet = geometry_jet(chart, x)
        force = dynamics.magnetic_force_covector(jet, 1.7, v)
        assert abs(float(force @ v)) < 1e-12


def test_plane_reduced_energy_is_kinetic():
    chart = charts.plane()
    state = dynamics.ReducedState(x=[0.0, 0.0], v=[3.0, 4.0])
    E = dynamics.reduced_disk_energy(chart, 2.0, 0.0, None, state)
    assert E == pytest.approx(25.0)


def test_disk_params_validation():
    with pytest.raises(ValueError):
        dynamics.DiskParams(m=-1.0, I_a=1.0, I_d=1.0, R_disk=0.1)
    disk = dynamics.DiskParams.uniform(2.0, 0.4)
    assert disk.I_a == pytest.approx(0.5 * 2.0 * 0.16)
    assert disk.I_d == pytest.approx(disk.I_a / 2)


def test_top_to_sphere_parameters_exact():
    top = dynamics.TopParams(M=1.0, ell=0.5, I1=2.0, I3=1.0, g=9.8)
    eq = dynamics.top_to_sphere(top)
    assert eq.R == 4.0
    assert eq.m == 0.125
    assert eq.charge(30.0) == 30.0
    # m R^2 = I1 and m g R = M g ell hold identically
    assert eq.m * eq.R**2 == top.I1
    assert eq.m * top.g * eq.R == pytest.approx(top.M * top.g * top.ell)


def test_reduced_zero_inertia_matches_magnetic_rhs():
    rng = np.random.default_rng(22)
    for chart, lo, hi in [
        (charts.sphere(1.0), 0.4, math.pi - 0.4),
        (charts.torus(2.0, 0.5), 0.0, 2 * math.pi),
    ]:
        for _ in range(100):
            state = dynamics.ReducedState(
                x=[rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi)],
                v=rng.uniform(-1.5, 1.5, 2),
            )
            dx_r, dv_r = dynamics.reduced_disk_rhs(chart, 1.3, 0.0, 0.8,
                                                   None, state)
            dx_m, dv_m = dynamics.magnetic_geodesic_rhs(chart, 1.3, 0.8,
                                                        None, state)
            assert np.max(np.abs(dv_r - dv_m)) < 1e-10
            assert np.max(np.abs(dx_r - dx_m)) == 0.0


def test_full_disk_matches_reduced_trajectory():
    # the exact reduction: eliminating theta at conserved axial momentum
    # reproduces the two-coordinate reduced model with L = I_a omega_a
    chart = charts.sphere(1.0)
    disk = dynamics.DiskParams(m=1.0, I_a=0.02, I_d=0.01, R_disk=0.2)
    omega_a0 = 100.0
    full = models.FullDiskModel(chart, disk)
    jet0 = geometry_jet(chart, [math.pi / 2, 0.0])
    y0f = full.pack(dynamics.FullState(
        x=[math.pi / 2, 0.0], v=[0.0, 1.0], theta=0.0,
        theta_dot=omega_a0 - float(jet0.f @ [0.0, 1.0]),
    ))
    red = models.ReducedDiskModel(chart, 1.0, disk.I_d, disk.I_a * omega_a0)
    y0r = red.pack(dynamics.ReducedState([math.pi / 2, 0.0], [0.0, 1.0]))
    settings = IntegratorSettings(dt=1e-3, n_steps=1000, sample_every=10)
    traj_f = integrate(full, y0f, settings)
    traj_r = integrate(red, y0r, settings)
    dev = np.max(np.abs(traj_f.states[:, [0, 1, 3, 4]] - traj_r.states))
    assert dev < 1e-10


def test_charge_sign_mirrors_deflection():
    chart = charts.sphere(1.0)
    y0 = np.array([math.pi / 2, 0.0, 0.0, 1.0])
    settings = IntegratorSettings(dt=1e-3, n_steps=500, sample_every=10)
    plus = integrate(models.MagneticModel(chart, 1.0, 2.0), y0, settings)
    minus = integrate(models.MagneticModel(chart, 1.0, -2.0), y0, settings)
    # equator is a mirror line: x1 reflects through pi/2, x2 matches
    assert np.max(np.abs(
        (plus.column("x1") - math.pi / 2) + (minus.column("x1") - math.pi / 2)
    )) < 1e-9
    assert np.max(np.abs(plus.column("x2") - minus.column("x2"))) < 1e-9
    assert np.max(np.abs(plus.monitors["k_geo"] + minus.monitors["k_geo"])) < 1e-9


def test_reduced_disk_on_nonorthogonal_chart():
    # at I_d = 0 the reduced disk is the magnetic model, which runs on any
    # chart; the diametral inertia term needs an orthogonal one
    chart = charts.saddle(1.0)
    y0 = np.array([0.1, 0.2, 0.5, 0.3])
    settings = IntegratorSettings(dt=1e-3, n_steps=200, sample_every=20)
    red = integrate(models.ReducedDiskModel(chart, 1.0, 0.0, 2.0), y0,
                    settings)
    mag = integrate(models.MagneticModel(chart, 1.0, 2.0), y0, settings)
    assert red.model == "reduced_disk"
    assert not red.truncated
    assert np.array_equal(red.states, mag.states)
    with pytest.raises(NonOrthogonalChartError):
        models.ReducedDiskModel(chart, 1.0, 0.01, 2.0).rhs(y0)


def test_inertia_correction_vanishes_linearly():
    # deviation between reduced(I_d) and reduced(0) should scale like I_d
    chart = charts.sphere(1.0)
    y0 = np.array([math.pi / 2, 0.0, 0.0, 1.0])
    settings = IntegratorSettings(dt=1e-3, n_steps=500, sample_every=10)
    base = integrate(models.ReducedDiskModel(chart, 1.0, 0.0, 2.0), y0,
                     settings)
    devs = []
    grid = (1e-2, 1e-3, 1e-4)
    for I_d in grid:
        traj = integrate(models.ReducedDiskModel(chart, 1.0, I_d, 2.0), y0,
                         settings)
        devs.append(np.max(np.abs(traj.states - base.states)))
    slope = np.polyfit(np.log(grid), np.log(devs), 1)[0]
    assert slope >= 0.9
    assert devs[-1] < devs[0]


def test_wobble_energy_bounded_by_shape_operator():
    # I_d w_d^2 <= I_d |S|^2 |v|_g^2 with |S| the largest principal curvature
    rng = np.random.default_rng(23)
    chart = charts.torus(2.0, 0.5)
    for _ in range(50):
        x = rng.uniform(0, 2 * math.pi, 2)
        v = rng.uniform(-2, 2, 2)
        jet = geometry_jet(chart, x)
        state = dynamics.ReducedState(x=x, v=v)
        I_d = 0.37
        extra = (
            dynamics.reduced_disk_energy(chart, 1.0, I_d, None, state)
            - dynamics.reduced_disk_energy(chart, 1.0, 0.0, None, state)
        )
        speed2 = float(v @ jet.g @ v)
        norm_S = max(abs(float(e)) for e in np.linalg.eigvals(jet.S))
        assert -1e-12 <= extra <= 0.5 * I_d * norm_S**2 * speed2 + 1e-12


def test_omega_d_forms_related_by_curvature():
    # on the unit sphere h = -g (inward normal), so h g^-1 h = g and the two
    # wobble terms are exact opposites; on the torus they decouple entirely
    state = dynamics.ReducedState(x=[1.0, 0.5], v=[0.3, -0.6])

    def wobble(chart, form):
        full = dynamics.reduced_disk_energy(chart, 1.0, 0.2, None, state, form)
        bare = dynamics.reduced_disk_energy(chart, 1.0, 0.0, None, state)
        return full - bare

    sph = charts.sphere(1.0)
    w3 = wobble(sph, "third_form")
    w2 = wobble(sph, "second_form")
    assert w3 > 0
    assert abs(w3 + w2) < 1e-12
    tor = charts.torus(2.0, 0.5)
    assert abs(wobble(tor, "third_form") - abs(wobble(tor, "second_form"))) > 1e-6


def test_top_rhs_conserves_momenta():
    top = dynamics.TopParams(M=1.0, ell=0.5, I1=2.0, I3=1.0, g=9.8)
    model = models.TopModel(top)
    y0 = model.pack(dynamics.FullState(
        x=[math.pi / 3, 0.0], v=[0.1, 0.4], theta=0.0,
        theta_dot=30.0 - 0.4 * math.cos(math.pi / 3),
    ))
    traj = integrate(model, y0, IntegratorSettings(dt=1e-3, n_steps=2000,
                                                   sample_every=20))
    p3 = []
    p2 = []
    for y in traj.states:
        state = model.unpack(y)
        a, b = dynamics.top_momenta(top, state)
        p3.append(a)
        p2.append(b)
    for track in (np.array(p3), np.array(p2)):
        assert np.max(np.abs(track - track[0])) / abs(track[0]) < 1e-9


def test_singular_mass_matrix_raises():
    zero = np.zeros((2, 2))
    with pytest.raises(SingularMassMatrixError):
        dynamics.quadratic_el_accel(zero, [zero, zero], np.zeros(2),
                                    np.zeros(2), [1.0, 0.0])


def test_top_rhs_rejects_tilt_near_pole():
    top = dynamics.TopParams(M=1.0, ell=0.5, I1=2.0, I3=1.0, g=9.8)
    state = dynamics.FullState(x=[1e-5, 0.0], v=[0.0, 0.1], theta=0.0,
                               theta_dot=30.0)
    with pytest.raises(DomainError):
        dynamics.top_rhs(top, state)


def test_potential_enters_geodesic_rhs():
    # uniform-gravity particle on the plane: a = -grad V / m
    chart = charts.plane()
    pot = potentials.from_expression("9.8 * x2")
    state = dynamics.ReducedState(x=[0.0, 0.0], v=[1.0, 0.0])
    _, dv = dynamics.magnetic_geodesic_rhs(chart, 2.0, 0.0, pot, state)
    assert dv[0] == pytest.approx(0.0, abs=1e-9)
    assert dv[1] == pytest.approx(-4.9, rel=1e-7)
