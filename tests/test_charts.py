import math

import numpy as np
import pytest

from gyrosurf import charts, models
from gyrosurf.errors import DegenerateMetricError, DomainError
from gyrosurf.geometry import geometry_jet
from gyrosurf.integrators import IntegratorSettings, integrate


def numeric_pullback(chart, x, h=1e-6):
    """First fundamental form from the embedding by central differences."""
    x = np.asarray(x, dtype=float)
    d = []
    for k in range(2):
        dx = np.zeros(2)
        dx[k] = h
        d.append((chart.embedding(x + dx) - chart.embedding(x - dx)) / (2 * h))
    d = np.array(d)
    return d @ d.T


def test_factory_domains():
    sph = charts.sphere(1.0)
    assert sph.domain.periodic_x2 and not sph.domain.periodic_x1
    assert sph.closure_x1 == (0.0, math.pi)
    assert sph.domain.x1_range[0] == pytest.approx(1e-3)

    tor = charts.torus(2.0, 0.5)
    assert tor.domain.periodic_x1 and tor.domain.periodic_x2

    cyl = charts.cylinder(0.7)
    assert not cyl.domain.periodic_x1 and cyl.domain.periodic_x2

    assert charts.plane().orthogonal
    assert not charts.saddle(1.0).orthogonal


def test_numpy_parameter_is_spliced_as_float():
    a, b = charts.saddle(np.float64(1.2)), charts.saddle(1.2)
    for x in ([0.3, -0.7], [1.5, 2.0]):
        for name in ("metric", "metric_d1", "metric_d2", "embedding",
                     "embedding_d1", "embedding_d2", "embedding_d3"):
            assert np.array_equal(getattr(a, name)(x), getattr(b, name)(x))


def test_huge_sphere_builds_and_degenerates():
    chart = charts.sphere(1e200)  # R^2 overflows to infinity
    with pytest.raises(DegenerateMetricError):
        geometry_jet(chart, [1.0, 0.0])


def test_wrap_and_contains():
    sph = charts.sphere(1.0)
    x = sph.wrap_point([1.0, 2 * math.pi + 0.25])
    assert x[1] == pytest.approx(0.25)
    assert sph.domain.contains([1.0, 0.25])
    assert not sph.domain.contains([0.0, 0.25])
    with pytest.raises(DomainError):
        sph.wrap_point([math.pi, 0.0])
    # enforcement off passes the point through
    x = sph.wrap_point([math.pi, 0.0], enforce=False)
    assert x[0] == pytest.approx(math.pi)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        charts.sphere(-1.0)
    with pytest.raises(ValueError):
        charts.torus(0.5, 2.0)  # tube radius above center radius
    with pytest.raises(ValueError):
        charts.cylinder(0.0)
    with pytest.raises(ValueError):
        charts.saddle(0.0)


@pytest.mark.parametrize("make,lo,hi", [
    (lambda: charts.sphere(1.0), 0.2, math.pi - 0.2),
    (lambda: charts.sphere(2.5), 0.2, math.pi - 0.2),
    (lambda: charts.torus(2.0, 0.5), 0.0, 2 * math.pi),
    (lambda: charts.cylinder(0.7), -3.0, 3.0),
])
def test_metric_matches_embedding_pullback(make, lo, hi):
    # analytic metric and analytic embedding must describe the same surface
    chart = make()
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = [rng.uniform(lo, hi), rng.uniform(0.0, 2 * math.pi)]
        g = chart.metric(x)
        gp = numeric_pullback(chart, x)
        assert np.max(np.abs(g - gp)) < 1e-8


def test_saddle_metric_matches_pullback():
    chart = charts.saddle(1.3)
    rng = np.random.default_rng(12)
    for _ in range(25):
        x = rng.uniform(-2.0, 2.0, 2)
        assert np.max(np.abs(chart.metric(x) - numeric_pullback(chart, x))) < 1e-8


def test_metric_derivatives_match_fd():
    # dg[k] = d g / d x_k, checked against a plain central difference
    for chart, point in [
        (charts.sphere(1.0), [0.9, 0.4]),
        (charts.torus(2.0, 0.5), [1.1, 2.2]),
        (charts.saddle(0.8), [0.3, -0.7]),
    ]:
        x = np.asarray(point, dtype=float)
        dg = chart.metric_d1(x)
        for k in range(2):
            h = 1e-6
            dx = np.zeros(2)
            dx[k] = h
            fd_val = (chart.metric(x + dx) - chart.metric(x - dx)) / (2 * h)
            assert np.max(np.abs(dg[k] - fd_val)) < 1e-7


def test_custom_chart_polar_plane():
    # polar coordinates: a11 = 1, a22 = x1^2, flat
    chart = charts.custom(
        "1", "x1^2",
        embedding=("x1 * cos(x2)", "x1 * sin(x2)", "0"),
        domain=charts.Domain((0.5, 10.0), (0.0, 2 * math.pi),
                             periodic_x2=True),
    )
    g = chart.metric([2.0, 1.0])
    assert g[0, 0] == pytest.approx(1.0)
    assert g[1, 1] == pytest.approx(4.0)
    assert chart.has_embedding
    # compiled derivative against the exact d(a22)/dx1 = 2 x1
    dg = chart.metric_d1([2.0, 1.0])
    assert abs(dg[0][1, 1] - 4.0) < 1e-12


def symmetric_third(r111, r112, r122, r222):
    """(2, 2, 2, 3) array r_klm from its four distinct entries."""
    by_x2_count = (r111, r112, r122, r222)
    return np.array([[[by_x2_count[i + j + k] for k in range(2)]
                      for j in range(2)] for i in range(2)], dtype=float)


def sphere_closed_form(R, x):
    """Jet of the sphere of radius R at x, written out by hand."""
    s, c = math.sin(x[0]), math.cos(x[0])
    sp, cp = math.sin(x[1]), math.cos(x[1])
    R2 = R * R
    dg = np.zeros((2, 2, 2))
    dg[0, 1, 1] = 2 * R2 * s * c
    d2g = np.zeros((2, 2, 2, 2))
    d2g[0, 0, 1, 1] = 2 * R2 * (c * c - s * s)
    return {
        "g": np.diag([R2, R2 * s * s]), "dg": dg, "d2g": d2g,
        "r_k": R * np.array([[c * cp, c * sp, -s], [-s * sp, s * cp, 0.0]]),
        "r_kl": R * np.array([[[-s * cp, -s * sp, -c], [-c * sp, c * cp, 0.0]],
                              [[-c * sp, c * cp, 0.0], [-s * cp, -s * sp, 0.0]]]),
        "r_klm": R * symmetric_third([-c * cp, -c * sp, s], [s * sp, -s * cp, 0.0],
                                     [-c * cp, -c * sp, 0.0], [s * sp, -s * cp, 0.0]),
        # outward normal
        "h": np.diag([-R, -R * s * s]),
        "f": np.array([0.0, c]), "df": np.array([[0.0, 0.0], [-s, 0.0]]),
        "K": 1.0 / R2,
    }


def torus_closed_form(R0, r, x):
    """Jet of the torus (R0, r) at x, written out by hand."""
    s, c = math.sin(x[0]), math.cos(x[0])
    sp, cp = math.sin(x[1]), math.cos(x[1])
    w = R0 + r * c
    dg = np.zeros((2, 2, 2))
    dg[0, 1, 1] = -2 * r * s * w
    d2g = np.zeros((2, 2, 2, 2))
    d2g[0, 0, 1, 1] = 2 * r * r * s * s - 2 * r * c * w
    return {
        "g": np.diag([r * r, w * w]), "dg": dg, "d2g": d2g,
        "r_k": np.array([[-r * s * cp, -r * s * sp, r * c], [-w * sp, w * cp, 0.0]]),
        "r_kl": np.array([[[-r * c * cp, -r * c * sp, -r * s],
                           [r * s * sp, -r * s * cp, 0.0]],
                          [[r * s * sp, -r * s * cp, 0.0],
                           [-w * cp, -w * sp, 0.0]]]),
        "r_klm": symmetric_third([r * s * cp, r * s * sp, -r * c],
                                 [r * c * sp, -r * c * cp, 0.0],
                                 [r * s * cp, r * s * sp, 0.0],
                                 [w * sp, -w * cp, 0.0]),
        # r_1 x r_2 points into the tube
        "h": np.diag([r, w * c]),
        "f": np.array([0.0, -s]), "df": np.array([[0.0, 0.0], [-c, 0.0]]),
        "K": c / (r * w),
    }


@pytest.mark.parametrize("chart,closed_form", [
    (charts.sphere(1.3), lambda x: sphere_closed_form(1.3, x)),
    (charts.torus(2.0, 0.6), lambda x: torus_closed_form(2.0, 0.6, x)),
], ids=["sphere", "torus"])
def test_jet_matches_closed_form(chart, closed_form):
    rng = np.random.default_rng(13)
    for x1 in np.linspace(0.35, math.pi - 0.35, 9):
        x = np.array([x1, rng.uniform(0.0, 2 * math.pi)])
        jet, want = geometry_jet(chart, x), closed_form(x)
        got = {"g": jet.g, "dg": jet.dg, "d2g": chart.metric_d2(x),
               "r_k": chart.embedding_d1(x), "r_kl": chart.embedding_d2(x),
               "r_klm": chart.embedding_d3(x),
               "h": jet.h, "f": jet.f, "df": jet.df, "K": jet.K}
        for name, value in want.items():
            assert np.max(np.abs(got[name] - value)) < 1e-12, name


def test_reduced_disk_conserves_energy_on_sphere():
    # exact kernel derivatives: the reduced disk conserves energy to rounding
    model = models.ReducedDiskModel(charts.sphere(1.3), 1.0, 0.01, 2.0)
    y0 = np.array([1.2, 0.0, 0.2, 0.3])
    settings = IntegratorSettings(dt=1e-3, n_steps=2000, sample_every=20)
    traj = integrate(model, y0, settings)
    assert not traj.truncated
    E = traj.monitors["E"]
    assert np.max(np.abs(E - E[0])) / max(1.0, abs(E[0])) < 1e-10


def test_custom_chart_rejects_mismatched_embedding():
    # declared metric says unit sphere, embedding is radius 2
    with pytest.raises(ValueError):
        charts.custom(
            "1", "sin(x1)^2",
            embedding=("2*sin(x1)*cos(x2)", "2*sin(x1)*sin(x2)", "2*cos(x1)"),
            domain=charts.Domain((0.3, math.pi - 0.3), (0.0, 2 * math.pi),
                                 periodic_x2=True),
        )


def test_custom_chart_rejects_degenerate_metric():
    with pytest.raises(ValueError):
        charts.custom(
            "0", "1",
            domain=charts.Domain((0.1, 1.0), (0.0, 1.0)),
        )


@pytest.mark.parametrize("x1_range", [(0.0, 0.0), (1.0, 0.0), (0.0, math.inf),
                                      (-math.inf, 0.0), (math.nan, 1.0)])
@pytest.mark.parametrize("periodic", [False, True])
def test_domain_rejects_empty_or_infinite_range(x1_range, periodic):
    with pytest.raises(ValueError, match="x1_range"):
        charts.Domain(x1_range, (0.0, 1.0), periodic_x1=periodic)
    with pytest.raises(ValueError, match="x2_range"):
        charts.Domain((0.0, 1.0), x1_range, periodic_x2=periodic)
