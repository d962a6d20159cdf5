"""The traced run: spans, counting proxies and per-layer timings.

Spans are recorded around the benchmark's own calls into each gyrosurf
module; nothing inside the package is instrumented.  A span holds its name,
start, end, parent and item id, is kept in memory and written out when the
run ends.  A span's self time is its duration minus the durations of its
children (single-threaded, so children never overlap).

The layers are the package's modules: charts, expressions, potentials,
geometry, models (over dynamics), integrators, verify, suites, config and
cli.  Each per-layer metric is the median over batches of one batch span's
self time divided by the calls in it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import statistics
import time
import types

import numpy as np

from gyrosurf import charts, cli, config, dynamics, expressions, geometry, \
    models, potentials, suites, verify
from gyrosurf.integrators import IntegratorSettings, integrate

import workloads

UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
MODELS = ("geodesic", "magnetic", "reduced_disk", "full_disk", "top")

# Re-anchor figures in ROADMAP.md (Python 3.11.7, one process): the traced
# run reports its own numbers beside them.
ROADMAP_US = {
    "geometry.jet_us.builtin": 21.0,
    "geometry.jet_us.custom_embedded": 376.0,
    "integrators.step_us.magnetic": 115.0,
    "integrators.step_us.geodesic": 113.0,
    "integrators.step_us.reduced_disk": 364.0,
    "integrators.step_us.full_disk": 380.0,
    "integrators.step_us.top": 74.0,
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, item id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, item=None):
        parent = self._open[-1] if self._open else -1
        if item is None and parent >= 0:
            item = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, item])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times_of(self, name: str) -> list[float]:
        return [t for span, t in zip(self.spans, self.self_times())
                if span[0] == name]

    def records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "item": item, "self": own}
                for (name, start, end, parent, item), own
                in zip(self.spans, self.self_times())]


# -- counting proxies ----------------------------------------------------------

CHART_METHODS = ("metric", "embedding", "embedding_d1", "embedding_d2")


def _counted(fn, counts: dict, key: str):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def counting_chart(chart: charts.SurfaceChart, counts: dict):
    """A copy of `chart` whose metric and embedding maps count their calls.

    The counters are instance attributes, so the chart's own derivative
    methods (finite differences included) call through them too.
    """
    proxy = copy.copy(chart)
    for name in CHART_METHODS:
        counts.setdefault(f"chart.{name}", 0)
        bound = types.MethodType(getattr(type(chart), name), proxy)
        setattr(proxy, name, _counted(bound, counts, f"chart.{name}"))
    return proxy


def counting_model(model, counts: dict):
    """A copy of `model` on counting charts whose rhs counts its calls."""
    proxy = copy.copy(model)
    shared = {}
    for attr in ("chart", "monitor_chart"):
        chart = getattr(model, attr)
        if chart is not None:
            if id(chart) not in shared:
                shared[id(chart)] = counting_chart(chart, counts)
            setattr(proxy, attr, shared[id(chart)])
    counts.setdefault("model.rhs", 0)
    bound = types.MethodType(type(model).rhs, proxy)
    proxy.rhs = _counted(bound, counts, "model.rhs")
    return proxy


# -- fixtures ------------------------------------------------------------------


class Fixtures:
    """The charts, models and states every per-layer measurement uses."""

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        self.outdir = outdir
        self.sphere = charts.sphere(1.0)
        R = 1.2
        self.custom_embedded = charts.custom(
            f"{R * R!r}", f"{R * R!r} * sin(x1)^2",
            embedding=(f"{R!r} * sin(x1) * cos(x2)",
                       f"{R!r} * sin(x1) * sin(x2)", f"{R!r} * cos(x1)"),
            domain=charts.Domain((0.3, math.pi - 0.3), (0.0, 2 * math.pi),
                                 periodic_x2=True))
        self.custom = workloads.hyperbolic_chart(rng)
        self.x = np.array([rng.uniform(1.2, 1.9), rng.uniform(0.0, 6.0)])
        self.x_hyp = np.array([rng.uniform(-1.5, 0.0), rng.uniform(-1.0, 1.0)])
        v = np.array(workloads.velocity(rng))
        disk = dynamics.DiskParams(m=1.0, I_a=0.02, I_d=0.01, R_disk=0.2)
        top = dynamics.TopParams(M=1.0, ell=0.5, I1=2.0, I3=1.0, g=9.8)
        self.models = {
            "geodesic": models.GeodesicModel(self.sphere, 1.0, None),
            "magnetic": models.MagneticModel(self.sphere, 1.0, 2.0),
            "reduced_disk": models.ReducedDiskModel(self.sphere, 1.0, 0.01,
                                                    2.0),
            "full_disk": models.FullDiskModel(self.sphere, disk),
            "top": models.TopModel(top),
        }
        surface_y = np.concatenate([self.x, v])
        spin = 100.0 - float(geometry.geometry_jet(self.sphere, self.x).f @ v)
        self.y0 = {name: surface_y for name in MODELS[:3]}
        self.y0["full_disk"] = self.models["full_disk"].pack(
            dynamics.FullState(x=self.x, v=v, theta=0.0, theta_dot=spin))
        self.y0["top"] = self.models["top"].pack(dynamics.FullState(
            x=[1.0, 0.0], v=[0.0, 0.4], theta=0.0,
            theta_dot=30.0 - 0.4 * math.cos(1.0)))
        # the two custom-chart runs the CLI workload makes, one per chart kind
        pot = potentials.from_expression("0.5 * cos(x1)")
        self.custom_models = {
            "magnetic.custom": (
                models.MagneticModel(self.custom, 1.0, 1.0,
                                     potentials.from_expression(
                                         "0.5 * exp(x1)")),
                np.concatenate([self.x_hyp, v])),
            "reduced_disk.custom_embedded": (
                models.ReducedDiskModel(self.custom_embedded, 1.0, 0.01, 1.0,
                                        pot),
                surface_y),
        }
        self.potentials = {"axis_cosine": potentials.axis_cosine(0.5),
                           "expression": pot}
        self.expression = expressions.Expression(f"{R * R!r} * sin(x1)^2")


# -- measurements --------------------------------------------------------------


class LayerRun:
    def __init__(self, tracer: Tracer, fixtures: Fixtures):
        self.tracer = tracer
        self.fx = fixtures
        self.metrics: dict[str, tuple[float, str]] = {}

    def seconds_per_call(self, name: str, fn, calls: int,
                         batches: int = 5) -> float:
        """Median over batches of one batch span's self time per call."""
        for _ in range(batches):
            with self.tracer.span(name):
                for _ in range(calls):
                    fn()
        return statistics.median(self.tracer.self_times_of(name)) / calls

    def per_call(self, name: str, fn, calls: int, unit: str,
                 batches: int = 5) -> None:
        seconds = self.seconds_per_call(name, fn, calls, batches)
        self.metrics[name] = (seconds * UNIT_SCALE[unit], unit)

    def charts_and_expressions(self):
        fx = self.fx
        for kind, chart, calls in (("builtin", fx.sphere, 2000),
                                   ("custom", fx.custom_embedded, 40)):
            for method in ("metric", "metric_d1", "metric_d2",
                           "embedding_d2"):
                fn = getattr(chart, method)
                self.per_call(f"charts.{method}_us.{kind}",
                              lambda fn=fn: fn(fx.x),
                              2000 if method == "metric" else calls, "us")
        x1, x2 = fx.x
        self.per_call("expressions.eval_us",
                      lambda: fx.expression(x1, x2), 4000, "us")
        for kind, pot in fx.potentials.items():
            self.per_call(f"potentials.gradient_us.{kind}",
                          lambda pot=pot: pot.gradient(fx.x), 1000, "us")

    def geometry_layer(self):
        fx = self.fx
        for kind, chart, x, calls in (
                ("builtin", fx.sphere, fx.x, 1000),
                ("custom", fx.custom, fx.x_hyp, 100),
                ("custom_embedded", fx.custom_embedded, fx.x, 50)):
            self.per_call(f"geometry.jet_us.{kind}",
                          lambda chart=chart, x=x:
                              geometry.geometry_jet(chart, x),
                          calls, "us")
        self.per_call("geometry.patch_K_ms",
                      lambda: geometry.gauss_bonnet_patch_K(
                          fx.sphere, fx.x, 0.01, 0.01),
                      2, "ms", batches=3)

    def models_layer(self):
        fx = self.fx
        for name in MODELS:
            model, y = fx.models[name], fx.y0[name]
            self.per_call(f"models.rhs_us.{name}", lambda m=model: m.rhs(y),
                          200, "us")
            self.per_call(f"models.energy_us.{name}",
                          lambda m=model: m.energy(y), 200, "us")
        model, y = fx.custom_models["reduced_disk.custom_embedded"]
        self.per_call("models.rhs_us.reduced_disk.custom",
                      lambda: model.rhs(y), 5, "us")

    def integrators_layer(self, n_steps: int = 200):
        fx = self.fx
        sparse = IntegratorSettings(dt=1e-3, n_steps=n_steps,
                                    sample_every=n_steps)
        dense = IntegratorSettings(dt=1e-3, n_steps=n_steps, sample_every=1)
        for name in MODELS:
            model, y = fx.models[name], fx.y0[name]
            sparse_s = self.seconds_per_call(
                f"integrators.integrate.sparse.{name}",
                lambda m=model: integrate(m, y, sparse), 1, batches=3)
            dense_s = self.seconds_per_call(
                f"integrators.integrate.dense.{name}",
                lambda m=model: integrate(m, y, dense), 1, batches=3)
            self.metrics[f"integrators.step_us.{name}"] = (
                sparse_s / n_steps * 1e6, "us")
            # dense keeps n_steps + 1 samples, sparse keeps 2
            self.metrics[f"integrators.monitor_us_per_sample.{name}"] = (
                (dense_s - sparse_s) / (n_steps - 1) * 1e6, "us")

    def call_counts(self, n_steps: int = 20):
        """Calls per step at sample_every=1, counted through proxies."""
        fx = self.fx
        dense = IntegratorSettings(dt=1e-3, n_steps=n_steps, sample_every=1)
        runs = [(name, "builtin", fx.models[name], fx.y0[name])
                for name in MODELS]
        runs += [(*key.split("."), model, y)
                 for key, (model, y) in fx.custom_models.items()]
        for name, kind, model, y in runs:
            counts = {}
            with self.tracer.span(f"counted.{name}.{kind}"):
                integrate(counting_model(model, counts), y, dense)
            self.metrics[f"models.rhs_calls_per_step.{name}.{kind}"] = (
                counts["model.rhs"] / n_steps, "count")
            self.metrics[f"charts.metric_calls_per_step.{name}.{kind}"] = (
                counts["chart.metric"] / n_steps, "count")

        # cost of the proxies themselves, on the cheapest chart path
        model, y = fx.models["magnetic"], fx.y0["magnetic"]
        dense = IntegratorSettings(dt=1e-3, n_steps=100, sample_every=1)
        proxied = counting_model(model, {})
        for _ in range(7):  # interleaved, so drift in machine speed cancels
            bare = self.seconds_per_call(
                "proxy.bare", lambda: integrate(model, y, dense), 1, 1)
            counted = self.seconds_per_call(
                "proxy.counted", lambda: integrate(proxied, y, dense), 1, 1)
        self.metrics["trace.proxy_overhead_pct"] = (
            (counted - bare) / bare * 100.0, "%")

    def oracles_layer(self):
        fx = self.fx
        rect = verify.RectangleLoop((fx.x[0] - 0.1, fx.x[1]), 0.2, 0.2)
        self.per_call("verify.holonomy_ms.rectangle",
                      lambda: verify.holonomy_loop(fx.sphere, rect),
                      1, "ms", batches=3)
        lat = verify.LatitudeLoop(float(fx.x[0]))
        self.per_call("verify.holonomy_ms.latitude",
                      lambda: verify.holonomy_loop(fx.sphere, lat),
                      1, "ms", batches=3)
        full = fx.models["full_disk"]
        short = integrate(full, fx.y0["full_disk"],
                          IntegratorSettings(dt=1e-4, n_steps=200))
        self.per_call("verify.el_residual_ms",
                      lambda: verify.el_residual_oracle(full, short),
                      1, "ms", batches=3)
        settings = IntegratorSettings(dt=1e-3, n_steps=300, sample_every=10)
        a = integrate(fx.models["magnetic"], fx.y0["magnetic"], settings)
        b = integrate(fx.models["reduced_disk"], fx.y0["reduced_disk"],
                      settings)
        self.per_call("verify.compare_ms",
                      lambda: verify.compare_trajectories(
                          a, b, "chart_distance", chart=fx.sphere),
                      20, "ms")

    def config_and_cli(self, n_steps: int = 200):
        """One dense custom-chart scenario taken apart: parse and build,
        integrate, write; then the same scenario through `cli.main`."""
        fx = self.fx
        scenario = {
            "surface": {"kind": "custom", "a11": fx.custom.params["a11"],
                        "a22": fx.custom.params["a22"],
                        "x1_range": [-3.0, 1.0], "x2_range": [-4.0, 4.0]},
            "model": "magnetic", "params": {"m": 1.0, "L": 1.0},
            "initial": {"x": list(fx.x_hyp), "v": [0.1, 0.8]},
            "potential": {"kind": "expression", "text": "0.5 * exp(x1)"},
            "integrator": {"dt": 1e-3, "n_steps": n_steps, "sample_every": 1},
            "output": {"format": "csv",
                       "path": os.path.join(fx.outdir, "layer_run.csv")},
        }
        path = os.path.join(fx.outdir, "layer_run.scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        fields = list(config.SURFACE_COLUMNS)
        built = {}

        def load_build():
            cfg = config.load_scenario(path)
            model = config.build_model(cfg)
            built["args"] = (model, config.build_initial(cfg, model),
                             config.build_settings(cfg))

        for k in range(3):
            # new file names each time: rewriting a file would time ext4
            out_csv = os.path.join(fx.outdir, f"layer_write{k}.csv")
            out_json = os.path.join(fx.outdir, f"layer_write{k}.json")
            with self.tracer.span("cli.run_parts"):
                with self.tracer.span("config.load_build_ms"):
                    load_build()
                with self.tracer.span("integrators.integrate"):
                    traj = integrate(*built["args"])
                with self.tracer.span("config.write_csv_ms"):
                    config.write_csv(out_csv, traj, fields)
                with self.tracer.span("config.write_json_ms"):
                    config.write_json(out_json, traj, fields)
        for name in ("config.load_build_ms", "config.write_csv_ms",
                     "config.write_json_ms"):
            self.metrics[name] = (
                statistics.median(self.tracer.self_times_of(name)) * 1e3, "ms")
        self.metrics["config.write_csv_bytes"] = (
            float(os.path.getsize(out_csv)), "bytes")
        self.metrics["config.write_json_bytes"] = (
            float(os.path.getsize(out_json)), "bytes")

        def run():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(scenario["output"]["path"])
            cli.main(["run", path])

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            self.per_call("cli.run_ms", run, 1, "ms", batches=3)

    def suites_layer(self):
        for name in ("geometry", "dynamics", "top"):
            with self.tracer.span(f"suites.{name}_s"):
                results = suites.run_suite(name)
            failing = [r.name for r in results if not r.passed]
            if failing:
                raise RuntimeError(f"suite {name} failing: {failing}")
            self.metrics[f"suites.{name}_s"] = (
                self.tracer.self_times_of(f"suites.{name}_s")[0], "s")

    def run_all(self):
        self.charts_and_expressions()
        self.geometry_layer()
        self.models_layer()
        self.integrators_layer()
        self.call_counts()
        self.oracles_layer()
        self.config_and_cli()
        self.suites_layer()
        return self.metrics


def roadmap_cross_check(metrics: dict) -> list[dict]:
    rows = []
    for name, ref in ROADMAP_US.items():
        value = metrics[name][0]
        rows.append({"metric": name, "measured_us": value,
                     "roadmap_us": ref, "ratio": value / ref})
    return rows
