import math

import numpy as np
import pytest

from gyrosurf import charts, models
from gyrosurf.errors import DomainError
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


def expression_sphere(R):
    return charts.custom(
        f"{R * R!r}", f"{R * R!r} * sin(x1)^2",
        embedding=(f"{R!r} * sin(x1) * cos(x2)", f"{R!r} * sin(x1) * sin(x2)",
                   f"{R!r} * cos(x1)"),
        domain=charts.Domain((0.3, math.pi - 0.3), (0.0, 2 * math.pi),
                             periodic_x2=True),
    )


def test_expression_sphere_jet_matches_builtin():
    R = 1.3
    custom, builtin = expression_sphere(R), charts.sphere(R)
    for x1 in np.linspace(0.35, math.pi - 0.35, 9):
        x = np.array([x1, 2.0 * x1])
        a, b = geometry_jet(custom, x), geometry_jet(builtin, x)
        for name in ("g", "dg", "h", "S", "f", "df", "K"):
            assert np.max(np.abs(getattr(a, name) - getattr(b, name))) < 1e-12
        assert np.max(np.abs(custom.metric_d2(x) - builtin.metric_d2(x))) < 1e-12


def test_expression_sphere_runs_match_builtin():
    # exact kernel derivatives: the same runs to rounding, and the reduced
    # disk conserves energy on the expression chart
    R = 1.3
    custom, builtin = expression_sphere(R), charts.sphere(R)
    y0 = np.array([1.2, 0.0, 0.2, 0.3])
    settings = IntegratorSettings(dt=1e-3, n_steps=2000, sample_every=20)
    for make in (lambda ch: models.MagneticModel(ch, 1.0, 2.0),
                 lambda ch: models.ReducedDiskModel(ch, 1.0, 0.01, 2.0)):
        a = integrate(make(custom), y0, settings)
        b = integrate(make(builtin), y0, settings)
        assert not a.truncated and not b.truncated
        assert np.max(np.abs(a.states - b.states)) < 1e-12
    E = a.monitors["E"]
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
