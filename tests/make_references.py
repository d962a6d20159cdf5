"""Record reference trajectories for tests/test_references.py.

Each case is a short run of one model on one chart, with or without a
potential.  The file stores its states and five monitors at a few samples,
every float written by repr, so that later versions of the package can be
held to the numbers this one produced.

Run it against the source tree whose numbers should become the reference:

    PYTHONPATH=<that tree>/src python tests/make_references.py

It writes tests/data/references.json next to this script.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from gyrosurf import charts, dynamics, models, potentials
from gyrosurf.integrators import IntegratorSettings, integrate

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                   "references.json")

SETTINGS = IntegratorSettings(dt=0.01, n_steps=100, sample_every=50)
M = 1.1
L = 1.5
I_D = 0.02
DISK = dynamics.DiskParams.uniform(m=M, R_disk=0.2)
POTENTIAL_TEXT = "0.1 * cos(x1) + 0.05 * sin(x2)"
TOP = dynamics.TopParams(M=1.0, ell=0.5, I1=2.0, I3=1.0, g=9.8)

# chart name -> (factory, start point); the start keeps every run inside
# its chart for the whole run
CHARTS = {
    "plane": (lambda: charts.plane(), (0.5, -0.3)),
    "sphere": (lambda: charts.sphere(1.3), (1.2, 0.3)),
    "torus": (lambda: charts.torus(2.0, 0.6), (0.4, 1.0)),
    "cylinder": (lambda: charts.cylinder(0.8), (0.2, 1.0)),
    "saddle": (lambda: charts.saddle(0.7), (0.3, -0.2)),
    "custom_embedded": (
        lambda: charts.custom(
            "1 + 0.36 * x1^2", "x1^2",
            embedding=("x1 * cos(x2)", "x1 * sin(x2)", "0.3 * x1^2"),
            domain=charts.Domain((0.5, 3.0), (0.0, 2 * math.pi),
                                 periodic_x2=True),
        ),
        (1.5, 0.2),
    ),
    "custom_metric": (
        lambda: charts.custom("1", "exp(2 * x1)",
                              domain=charts.Domain((-1.0, 1.0), (-1.0, 1.0))),
        (0.1, 0.2),
    ),
}
VELOCITY = (0.2, 0.3)
THETA_DOT = 5.0

# the charts each model is defined on: the disk models need an orthogonal
# chart with an embedding
MODEL_CHARTS = {
    "geodesic": list(CHARTS),
    "magnetic": list(CHARTS),
    "reduced_disk": ["plane", "sphere", "torus", "cylinder", "custom_embedded"],
    "full_disk": ["plane", "sphere", "torus", "cylinder", "custom_embedded"],
}


def cases() -> list[dict]:
    out = [
        {"model": model, "chart": chart, "potential": potential}
        for model, names in MODEL_CHARTS.items()
        for chart in names
        for potential in (False, True)
    ]
    out += [{"model": "top", "chart": None, "x1": x1}
            for x1 in (math.pi / 3, 2.0)]
    return out


def case_id(case: dict) -> str:
    if case["model"] == "top":
        return f"top-x1={case['x1']!r}"
    return "{}-{}-{}".format(case["model"], case["chart"],
                             "potential" if case["potential"] else "free")


def run(case: dict, L: float = L):
    """Integrate one case; `L` is the charge of the magnetic and reduced-disk
    runs."""
    if case["model"] == "top":
        model = models.TopModel(TOP)
        x1 = case["x1"]
        y0 = model.pack(dynamics.FullState(
            x=[x1, 0.0], v=[0.1, 0.4], theta=0.0,
            theta_dot=30.0 - 0.4 * math.cos(x1)))
        return integrate(model, y0, SETTINGS)
    factory, x = CHARTS[case["chart"]]
    chart = factory()
    pot = potentials.from_expression(POTENTIAL_TEXT) if case["potential"] \
        else None
    kind = case["model"]
    if kind == "full_disk":
        model = models.FullDiskModel(chart, DISK, pot)
        y0 = model.pack(dynamics.FullState(x=list(x), v=list(VELOCITY),
                                           theta=0.0, theta_dot=THETA_DOT))
        return integrate(model, y0, SETTINGS)
    if kind == "geodesic":
        model = models.GeodesicModel(chart, M, pot)
    elif kind == "magnetic":
        model = models.MagneticModel(chart, M, L, pot)
    else:
        model = models.ReducedDiskModel(chart, M, I_D, L, pot)
    return integrate(model, np.array([*x, *VELOCITY]), SETTINGS)


def record(traj) -> dict:
    return {
        "truncated": traj.truncated,
        "times": traj.times.tolist(),
        "states": traj.states.tolist(),
        "monitors": {k: v.tolist() for k, v in traj.monitors.items()},
    }


def main() -> None:
    refs = {case_id(c): record(run(c)) for c in cases()}
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in refs.items()]
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(refs)} runs to {OUT}")


if __name__ == "__main__":
    main()
