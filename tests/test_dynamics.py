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
from gyrosurf.suites import steady_precession_rate


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
    model = models.ReducedDiskModel(charts.plane(), 2.0, 0.0, 0.0)
    E = model.energy([0.0, 0.0, 3.0, 4.0])
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


def test_steady_precession_rate_is_the_slow_root():
    # x1 = 2 puts the top below the horizontal (cos x1 < 0): a root exists
    top = dynamics.TopParams(M=1.0, ell=0.5, I1=2.0, I3=1.0, g=9.8)
    for x1, omega_a in ((math.pi / 3, 30.0), (2.0, 30.0)):
        W = steady_precession_rate(top, x1, omega_a)
        residual = (top.I1 * W * W * math.cos(x1) - top.I3 * omega_a * W
                    + top.M * top.g * top.ell)
        assert 0.0 < W < 1.0
        assert abs(residual) < 1e-12
    with pytest.raises(ValueError):
        steady_precession_rate(top, 0.5, 1.0)


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
    I_d = 0.37
    wobbling = models.ReducedDiskModel(chart, 1.0, I_d, 0.0)
    flat = models.ReducedDiskModel(chart, 1.0, 0.0, 0.0)
    for _ in range(50):
        x = rng.uniform(0, 2 * math.pi, 2)
        v = rng.uniform(-2, 2, 2)
        jet = geometry_jet(chart, x)
        y = np.concatenate([x, v])
        extra = wobbling.energy(y) - flat.energy(y)
        speed2 = float(v @ jet.g @ v)
        norm_S = max(abs(float(e)) for e in np.linalg.eigvals(jet.S))
        assert -1e-12 <= extra <= 0.5 * I_d * norm_S**2 * speed2 + 1e-12


# Embedded orthogonal charts of every kind, each with a sampling box inside
# its domain.  The custom chart is a helicoid: K < 0, and unlike the
# surfaces of revolution its second fundamental form is off-diagonal.
DISK_CHARTS = {
    "sphere": (lambda: charts.sphere(1.3), ((0.3, math.pi - 0.3), (0.0, 6.0))),
    "torus": (lambda: charts.torus(2.0, 0.6), ((0.0, 6.0), (0.0, 6.0))),
    "cylinder": (lambda: charts.cylinder(0.7), ((-3.0, 3.0), (0.0, 6.0))),
    "custom": (lambda: charts.custom(
        "1", "x1^2 + 0.25",
        embedding=("x1 * cos(x2)", "x1 * sin(x2)", "0.5 * x2"),
        domain=charts.Domain((-2.0, 2.0), (-3.0, 3.0)),
    ), ((-1.8, 1.8), (-2.8, 2.8))),
}


def sample_point(rng, box):
    return np.array([rng.uniform(*box[0]), rng.uniform(*box[1])])


def rigid_frame(chart, q):
    """Body frame of a disk tangent at r(x1, x2), turned by theta = q[2]
    about the normal: columns (c e1 + s e2, -s e1 + c e2, n)."""
    r_k = chart.embedding_d1(q[:2])
    e1 = r_k[0] / np.linalg.norm(r_k[0])
    n = np.cross(r_k[0], r_k[1])
    n /= np.linalg.norm(n)
    e2 = np.cross(n, e1)
    c, s = math.cos(q[2]), math.sin(q[2])
    return np.column_stack([c * e1 + s * e2, -s * e1 + c * e2, n])


def rigid_kinetic_energy(chart, disk, q, qdot, h=1e-3):
    """m |rdot|^2 / 2 + omega . I omega / 2 of the rigid disk, with omega
    read off Rdot R^T and Rdot a 4th-order difference along q + t qdot."""
    def frame(t):
        return rigid_frame(chart, q + t * qdot)

    R = frame(0.0)
    Rdot = (frame(-2 * h) - 8 * frame(-h) + 8 * frame(h) - frame(2 * h)) / (12 * h)
    W = Rdot @ R.T
    body = R.T @ np.array([W[2, 1], W[0, 2], W[1, 0]])
    rdot = chart.embedding_d1(q[:2]).T @ qdot[:2]
    inertia = np.array([disk.I_d, disk.I_d, disk.I_a])
    return 0.5 * disk.m * float(rdot @ rdot) + 0.5 * float(body @ (inertia * body))


@pytest.mark.parametrize("kind", DISK_CHARTS)
def test_full_disk_lagrangian_is_rigid_body_energy(kind):
    # T_rigid reads only r_k: no jet, no shape operator
    make, box = DISK_CHARTS[kind]
    chart = make()
    disk = dynamics.DiskParams(m=1.1, I_a=0.3, I_d=0.17, R_disk=0.5)
    model = models.FullDiskModel(chart, disk)
    rng = np.random.default_rng(31)
    worst = {"third": 0.0, "second": 0.0, "flipped": 0.0}
    for _ in range(200):
        q = np.append(sample_point(rng, box), rng.uniform(0.0, 2 * math.pi))
        qdot = rng.uniform(-1.5, 1.5, 3)
        rigid = rigid_kinetic_energy(chart, disk, q, qdot)
        lag = model.lagrangian(q, qdot)
        # the same Lagrangian with B = h, and with the wobble sign flipped
        jet, v = geometry_jet(chart, q[:2]), qdot[:2]
        wobble = 0.5 * disk.I_d * float(v @ (jet.h @ jet.g_inv @ jet.h) @ v)
        second = lag - wobble + 0.5 * disk.I_d * float(v @ jet.h @ v)
        for name, value in (("third", lag), ("second", second),
                            ("flipped", lag - 2 * wobble)):
            worst[name] = max(worst[name], abs(value - rigid))
    assert worst["third"] < 1e-9
    assert worst["second"] > 1e-3
    assert worst["flipped"] > 1e-3


def test_sphere_wobble_form_is_metric_over_radius_squared():
    # h = -g / R on a sphere, so B = h g^-1 h = g / R^2
    R = 1.3
    jet = geometry_jet(charts.sphere(R), [1.0, 0.5])
    B = dynamics.disk_mass_matrix(jet, 0.0, 1.0)
    assert np.max(np.abs(B - jet.g / R**2)) < 1e-14


@pytest.mark.parametrize("kind", DISK_CHARTS)
def test_disk_mass_derivative_matches_difference(kind):
    make, box = DISK_CHARTS[kind]
    chart = make()
    m, I_d, h = 1.1, 0.17, 1e-3

    def mass(x):
        return dynamics.disk_mass_matrix(geometry_jet(chart, x), m, I_d)

    rng = np.random.default_rng(37)
    for _ in range(20):
        x = sample_point(rng, box)
        _, dmass = dynamics._disk_mass(chart, geometry_jet(chart, x), m, I_d)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (mass(x - 2 * e) - 8 * mass(x - e) + 8 * mass(x + e)
                  - mass(x + 2 * e)) / (12 * h)
            assert np.max(np.abs(dmass[k] - fd)) < 1e-9


@pytest.mark.parametrize("kind", DISK_CHARTS)
def test_full_disk_reduces_to_charge_in_curvature_pointwise(kind):
    # the full disk's mass matrix holds no K; eliminating theta at the
    # state's own axial momentum L = I_a omega_a must still give the reduced
    # disk's acceleration, with its magnetic force L K Jv, at every state
    make, box = DISK_CHARTS[kind]
    chart = make()
    disk = dynamics.DiskParams(m=1.1, I_a=0.3, I_d=0.17)
    full = models.FullDiskModel(chart, disk)
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(200):
        x, v = sample_point(rng, box), rng.uniform(-1.5, 1.5, 2)
        y = np.concatenate([x, [rng.uniform(0.0, 2 * math.pi)], v,
                            [rng.uniform(-20.0, 20.0)]])
        _, a_red = dynamics.reduced_disk_rhs(
            chart, disk.m, disk.I_d, disk.I_a * full.omega_a(y), None,
            dynamics.ReducedState(x=x, v=v))
        worst = max(worst, float(np.max(np.abs(full.rhs(y)[3:5] - a_red))))
    assert worst < 1e-12


def test_noether_momentum_of_the_azimuth_is_conserved():
    # x2 is the azimuth of the sphere, of the torus and of the top's axis, so
    # p_x2 = (M qdot + A)_2 is conserved; on the charged runs the vector
    # potential's share L f_2 is needed for that
    settings = IntegratorSettings(dt=1e-3, n_steps=500, sample_every=10)
    disk = dynamics.DiskParams(m=1.0, I_a=0.02, I_d=0.01)
    runs = []
    for chart in (charts.sphere(1.0), charts.torus(2.0, 0.5)):
        x, v = [1.0, 0.3], [0.2, 0.5]
        runs += [
            (models.MagneticModel(chart, 1.0, 1.5), [*x, *v], True),
            (models.ReducedDiskModel(chart, 1.0, 0.01, 1.5), [*x, *v], True),
            (models.FullDiskModel(chart, disk), [*x, 0.0, *v, 50.0], False),
        ]
    runs.append((models.TopModel(dynamics.TopParams(
        M=1.0, ell=0.5, I1=2.0, I3=1.0, g=9.8)),
        [math.pi / 3, 0.0, 0.0, 0.1, 0.4, 29.8], False))
    for model, y0, charged in runs:
        traj = integrate(model, y0, settings)
        p = np.array([model.momenta(y) for y in traj.states])
        conserved = [1, 2] if model.name == "top" else [1]
        assert np.max(np.abs(p[:, conserved] - p[0, conserved])) <= 1e-10
        if charged:
            kinetic = np.array([
                (model.terms(y[:2])[0] @ y[2:])[1] for y in traj.states])
            assert np.max(np.abs(kinetic - kinetic[0])) >= 1e-3


def test_top_rhs_conserves_momenta():
    top = dynamics.TopParams(M=1.0, ell=0.5, I1=2.0, I3=1.0, g=9.8)
    model = models.TopModel(top)
    y0 = model.pack(dynamics.FullState(
        x=[math.pi / 3, 0.0], v=[0.1, 0.4], theta=0.0,
        theta_dot=30.0 - 0.4 * math.cos(math.pi / 3),
    ))
    traj = integrate(model, y0, IntegratorSettings(dt=1e-3, n_steps=2000,
                                                   sample_every=20))
    p = np.array([model.momenta(y) for y in traj.states])
    for track in (p[:, 2], p[:, 1]):
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
    model = models.TopModel(top)
    with pytest.raises(DomainError):
        model.rhs(model.pack(state))


def test_potential_enters_geodesic_rhs():
    # uniform-gravity particle on the plane: a = -grad V / m
    chart = charts.plane()
    pot = potentials.from_expression("9.8 * x2")
    state = dynamics.ReducedState(x=[0.0, 0.0], v=[1.0, 0.0])
    _, dv = dynamics.magnetic_geodesic_rhs(chart, 2.0, 0.0, pot, state)
    assert dv[0] == pytest.approx(0.0, abs=1e-9)
    assert dv[1] == pytest.approx(-4.9, rel=1e-7)
