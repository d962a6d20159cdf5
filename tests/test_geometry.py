import math

import numpy as np
import pytest

from gyrosurf import charts
from gyrosurf.errors import (
    DegenerateMetricError,
    MissingEmbeddingError,
    NonOrthogonalChartError,
    QuadratureError,
)
from gyrosurf.geometry import (
    gauss_bonnet_patch_K,
    geometry_jet,
    rotate90,
)


def torus_K(R0, r, x1):
    return math.cos(x1) / (r * (R0 + r * math.cos(x1)))


def test_sphere_curvature():
    rng = np.random.default_rng(3)
    for R in (1.0, 2.0, 0.4):
        chart = charts.sphere(R)
        for _ in range(30):
            x = (rng.uniform(0.2, math.pi - 0.2), rng.uniform(0, 2 * math.pi))
            assert abs(geometry_jet(chart, x).K - 1.0 / R**2) < 1e-10


def test_torus_curvature_closed_form():
    chart = charts.torus(2.0, 0.5)
    rng = np.random.default_rng(4)
    for _ in range(30):
        x = rng.uniform(0, 2 * math.pi, 2)
        assert abs(geometry_jet(chart, x).K - torus_K(2.0, 0.5, x[0])) < 1e-10
    # outer equator: 1 / (r (R0 + r))
    assert geometry_jet(chart, (0.0, 1.0)).K == pytest.approx(0.8, abs=1e-12)
    # inner equator is negatively curved
    assert geometry_jet(chart, (math.pi, 1.0)).K == pytest.approx(
        -1.0 / (0.5 * 1.5), abs=1e-12
    )


def test_flat_charts():
    for chart in (charts.plane(), charts.cylinder(0.7)):
        assert abs(geometry_jet(chart, (0.3, -0.2)).K) < 1e-14


def test_saddle_curvature():
    kappa = 1.3
    chart = charts.saddle(kappa)
    rng = np.random.default_rng(5)
    assert abs(geometry_jet(chart, (0.0, 0.0)).K + kappa**2) < 1e-12
    for _ in range(30):
        x = rng.uniform(-1.5, 1.5, 2)
        want = -(kappa**2) / (1.0 + kappa**2 * (x[0]**2 + x[1]**2)) ** 2
        assert abs(geometry_jet(chart, x).K - want) < 1e-10


def test_saddle_nonorthogonal_jet_has_no_frame():
    jet = geometry_jet(charts.saddle(1.0), (0.5, 0.5))
    assert jet.f is None and jet.k1 is None


def test_structure_identity_by_independent_fd():
    # d(f1)/dx2 - d(f2)/dx1 must equal sqrt(det g) K; differentiate the
    # frame covector here with a plain central difference so the check does
    # not reuse the jet's own df
    h = 1e-4
    cases = [
        (charts.sphere(1.0), 0.3, math.pi - 0.3),
        (charts.sphere(2.0), 0.3, math.pi - 0.3),
        (charts.torus(2.0, 0.5), 0.0, 2 * math.pi),
        (charts.cylinder(0.7), -3.0, 3.0),
    ]
    rng = np.random.default_rng(6)
    for chart, lo, hi in cases:
        for _ in range(100):
            x = np.array([rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi)])

            def f_at(p):
                return geometry_jet(chart, p, enforce_domain=False).f

            d2f1 = (f_at(x + [0, h])[0] - f_at(x - [0, h])[0]) / (2 * h)
            d1f2 = (f_at(x + [h, 0])[1] - f_at(x - [h, 0])[1]) / (2 * h)
            jet = geometry_jet(chart, x)
            assert abs((d2f1 - d1f2) - jet.sqrt_det_g * jet.K) < 1e-6


def test_jet_frame_matches_metric():
    # f = (k1 sqrt(a11), k2 sqrt(a22)) built from the metric derivative
    chart = charts.torus(2.0, 0.5)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(0, 2 * math.pi, 2)
        jet = geometry_jet(chart, x)
        dg = chart.metric_d1(x)
        W = jet.sqrt_det_g
        assert abs(jet.f[0] - (-dg[1][0, 0] / (2 * W))) < 1e-9
        assert abs(jet.f[1] - (dg[0][1, 1] / (2 * W))) < 1e-9


def test_christoffel_against_geodesic_circles():
    # great circle x2 = const on the unit sphere: x1'' = 0; latitude circle
    # acceleration comes out of the x1 Christoffel term
    jet = geometry_jet(charts.sphere(1.0), (math.pi / 4, 0.0))
    v = np.array([0.0, 1.0])
    accel = -np.einsum("kij,i,j->k", jet.christoffel, v, v)
    assert accel[0] == pytest.approx(math.sin(math.pi / 4) * math.cos(math.pi / 4))
    assert accel[1] == pytest.approx(0.0, abs=1e-14)


def test_rotate90_properties():
    rng = np.random.default_rng(8)
    chart = charts.torus(2.0, 0.5)
    for _ in range(50):
        x = rng.uniform(0, 2 * math.pi, 2)
        jet = geometry_jet(chart, x)
        v = rng.uniform(-2, 2, 2)
        w = rotate90(jet, v)
        # orthogonal, same length, J^2 = -1
        assert abs(float(v @ jet.g @ w)) < 1e-12
        assert abs(float(w @ jet.g @ w) - float(v @ jet.g @ v)) < 1e-12
        assert np.max(np.abs(rotate90(jet, w) + v)) < 1e-12


def test_rotate90_frozen_example():
    # on the unit sphere at x1 = pi/6: g = diag(1, 1/4); J(0, 2) = (-1, 0)
    jet = geometry_jet(charts.sphere(1.0), (math.pi / 6, 0.0))
    w = rotate90(jet, [0.0, 2.0])
    assert np.max(np.abs(w - np.array([-1.0, 0.0]))) < 1e-12


def test_shape_operator_det_is_K():
    rng = np.random.default_rng(9)
    for chart, lo, hi in [
        (charts.torus(2.0, 0.5), 0.0, 2 * math.pi),
        (charts.sphere(1.5), 0.3, math.pi - 0.3),
    ]:
        for _ in range(30):
            x = [rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi)]
            jet = geometry_jet(chart, x)
            assert abs(float(np.linalg.det(jet.S)) - jet.K) < 1e-10


def test_sphere_shape_operator_is_identity_over_R():
    # colatitude/azimuth order makes the cross-product normal point inward,
    # so S = -I/R; only |S| and det S matter downstream
    jet = geometry_jet(charts.sphere(2.0), (1.0, 0.5))
    assert np.max(np.abs(jet.S + np.eye(2) / 2.0)) < 1e-12


def test_patch_estimate_sphere():
    chart = charts.sphere(1.0)
    est = gauss_bonnet_patch_K(chart, (math.pi / 2, 0.0), 0.01, 0.01)
    assert abs(est - 1.0) < 1e-3


def test_patch_estimate_torus_and_convergence():
    chart = charts.torus(2.0, 0.5)
    x = (1.0, 1.0)
    errors = []
    sizes = (0.04, 0.02, 0.01, 0.005)
    for eps in sizes:
        est = gauss_bonnet_patch_K(chart, x, eps, eps)
        # estimator averages K over the patch, compare at the patch center
        errors.append(abs(est - torus_K(2.0, 0.5, x[0] + eps / 2)))
    assert errors[2] < 1e-3
    # convergence order at least 1 from the largest to the smallest patch
    order = math.log(errors[0] / errors[-1]) / math.log(sizes[0] / sizes[-1])
    assert order >= 1.0


def test_patch_rejects_nonorthogonal():
    with pytest.raises(NonOrthogonalChartError):
        gauss_bonnet_patch_K(charts.saddle(1.0), (0.0, 0.0), 0.01, 0.01)


def test_curvature_needs_embedding_or_orthogonality():
    # orthogonal metric-only chart works, non-orthogonal without embedding
    # cannot produce K
    ch = charts.custom(
        "1", "exp(2 * x1)",
        domain=charts.Domain((-1.0, 1.0), (-1.0, 1.0)),
    )
    jet = geometry_jet(ch, (0.1, 0.2))
    assert abs(jet.K + 1.0) < 1e-8  # hyperbolic plane slice, K = -1
    with pytest.raises(MissingEmbeddingError):
        ch2 = charts.SurfaceChart(
            kind="abstract", params={},
            domain=charts.Domain((-1.0, 1.0), (-1.0, 1.0)),
            metric=("1", "0.1", "1"),
        )
        geometry_jet(ch2, (0.0, 0.0))


def test_jet_rejects_degenerate_metric_point():
    # a22 vanishes on the line x1 = 0.1, which the chart's validation grid
    # does not sample
    ch = charts.custom("1", "(x1 - 0.1)^2")
    geometry_jet(ch, (0.5, 0.0))
    with pytest.raises(DegenerateMetricError):
        geometry_jet(ch, (0.1, 0.0))
