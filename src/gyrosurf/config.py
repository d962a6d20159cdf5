"""Scenario files: strict JSON schema, builders, trajectory writers.

A scenario pins one run completely: surface, model kind, physical
parameters, initial conditions, integrator settings and output routing.
Each block is checked against a schema table that maps key -> (type,
default); unknown keys are rejected with their full key path, and defaults
are filled in at parse time so a config re-serialized with to_dict() and
re-parsed is identical.  Conditions between keys of one surface (a torus
tube inside its ring, say) are the chart factories' to check.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import numpy as np

from . import charts, dynamics, models, potentials
from .errors import ConfigError, ExpressionError
from .integrators import SCHEMES, IntegratorSettings, Trajectory

SURFACE_COLUMNS = ("t", "x1", "x2", "v1", "v2", "E", "speed", "k_geo", "K")
SPINNING_COLUMNS = ("t", "x1", "x2", "theta", "v1", "v2", "theta_dot",
                    "E", "speed", "omega_a", "k_geo", "K")
COMPARE_METRICS = ("coordinate_sup", "chart_distance")

# -- schema tables -------------------------------------------------------------
#
# A type is "number", "positive" or "nonnegative" (finite floats), "count"
# (an integer >= 1), "string", "bool", "pair" (two finite numbers), a tuple
# of allowed strings, or a one-item list [type] for a non-empty list of that
# type.  A default of REQUIRED makes the key mandatory; None makes it
# optional with no value.

REQUIRED = "required"

SURFACES = {
    "plane": {"extent": ("positive", 50.0)},
    "sphere": {"R": ("positive", REQUIRED), "pole_guard": ("positive", 1e-3)},
    "torus": {"R0": ("positive", REQUIRED), "r": ("positive", REQUIRED)},
    "cylinder": {"r": ("positive", REQUIRED),
                 "half_length": ("positive", 50.0)},
    "saddle": {"kappa": ("number", REQUIRED), "extent": ("positive", 5.0)},
    "custom": {"a11": ("string", REQUIRED), "a22": ("string", REQUIRED),
               "x1_range": ("pair", REQUIRED), "x2_range": ("pair", REQUIRED),
               "periodic_x1": ("bool", False), "periodic_x2": ("bool", False),
               "embedding": (["string"], None)},
}

PARAMS = {
    "geodesic": {"m": ("positive", REQUIRED)},
    "magnetic": {"m": ("positive", REQUIRED), "L": ("number", REQUIRED)},
    "reduced_disk": {"m": ("positive", REQUIRED),
                     "I_d": ("nonnegative", REQUIRED),
                     "L": ("number", REQUIRED)},
    "full_disk": {"m": ("positive", REQUIRED), "I_a": ("positive", REQUIRED),
                  "I_d": ("positive", REQUIRED), "R_disk": ("positive", None)},
    "top": {"M": ("positive", REQUIRED), "ell": ("positive", REQUIRED),
            "I1": ("positive", REQUIRED), "I3": ("positive", REQUIRED),
            "g": ("nonnegative", REQUIRED)},
}

POTENTIALS = {
    "none": {},
    "axis_cosine": {"c": ("number", REQUIRED)},
    "expression": {"text": ("string", REQUIRED)},
}

# "surface" models move a point; "spinning" ones also carry the spin angle
INITIAL = {
    "surface": {"x": ("pair", REQUIRED), "v": ("pair", REQUIRED)},
    # exactly one of theta_dot and omega_a
    "spinning": {"x": ("pair", REQUIRED), "v": ("pair", REQUIRED),
                 "theta": ("number", 0.0), "theta_dot": ("number", None),
                 "omega_a": ("number", None)},
}
SPINNING_MODELS = ("full_disk", "top")

INTEGRATOR = {
    "dt": ("positive", REQUIRED),
    "n_steps": ("count", REQUIRED),
    "sample_every": ("count", 1),
    "scheme": (SCHEMES, "rk4"),
}

COLUMNS = {"surface": SURFACE_COLUMNS, "spinning": SPINNING_COLUMNS}
# output.fields defaults to every column of the model
OUTPUT = {
    layout: {"format": (("csv", "json"), REQUIRED),
             "path": ("string", REQUIRED),
             "fields": ([columns], list(columns))}
    for layout, columns in COLUMNS.items()
}

COMPARE = {
    "metric": (COMPARE_METRICS, "coordinate_sup"),
    "tolerance": ("positive", REQUIRED),
}

SURFACE_KINDS = tuple(SURFACES)
MODEL_KINDS = tuple(PARAMS)
POTENTIAL_KINDS = tuple(POTENTIALS)


def _value(kind, value, key: str):
    """`value` checked against the schema type `kind`, in stored form."""
    if isinstance(kind, tuple):
        if not isinstance(value, str) or value not in kind:
            raise ConfigError(f"must be one of {kind}", key=key)
        return value
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError("expected a non-empty list", key=key)
        return [_value(kind[0], item, key) for item in value]
    if kind in ("number", "positive", "nonnegative"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError("expected a number", key=key)
        # not math.isfinite, which overflows on a huge JSON integer
        if not abs(value) <= sys.float_info.max:
            raise ConfigError("expected a finite number", key=key)
        if kind == "positive" and not value > 0:
            raise ConfigError("must be positive", key=key)
        if kind == "nonnegative" and value < 0:
            raise ConfigError("must be nonnegative", key=key)
        return float(value)
    if kind == "count":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError("expected an integer", key=key)
        if value < 1:
            raise ConfigError("must be at least 1", key=key)
        return value
    if kind == "pair":
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError("expected a pair of numbers", key=key)
        return [_value("number", v, key) for v in value]
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError("expected a boolean", key=key)
        return value
    if not isinstance(value, str):
        raise ConfigError("expected a string", key=key)
    return value


def _validate(block, path: str, table: dict) -> dict:
    """`block` checked against `table`, with its defaults filled in."""
    if not isinstance(block, dict):
        raise ConfigError("expected an object", key=path)
    out = {}
    for key, (kind, default) in table.items():
        if key in block:
            out[key] = _value(kind, block[key], f"{path}.{key}")
        elif default == REQUIRED:
            raise ConfigError("missing required key", key=f"{path}.{key}")
        elif default is not None:
            out[key] = _value(kind, default, f"{path}.{key}")
    for key in block:
        if key not in table:
            raise ConfigError("unknown key", key=f"{path}.{key}")
    return out


def _validate_kind(block, path: str, tables: dict) -> dict:
    """A block whose `kind` key names its table in `tables`."""
    kinds = tuple(tables)
    table = {"kind": (kinds, REQUIRED)}
    if isinstance(block, dict) and "kind" in block:
        table.update(tables[_value(kinds, block["kind"], f"{path}.kind")])
    return _validate(block, path, table)


def parse_surface(block) -> dict:
    """A validated `surface` block."""
    return _validate_kind(block, "surface", SURFACES)


class ScenarioConfig:
    """Validated scenario with defaults filled in."""

    TOP_LEVEL = {"surface", "model", "params", "initial", "potential",
                 "integrator", "output", "compare"}

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("scenario must be a JSON object")
        for key in data:
            if key not in self.TOP_LEVEL:
                raise ConfigError("unknown key", key=key)
        for key in ("model", "params", "initial", "integrator"):
            if key not in data:
                raise ConfigError("missing required key", key=key)
        model = _value(MODEL_KINDS, data["model"], "model")
        layout = "spinning" if model in SPINNING_MODELS else "surface"
        self.columns = COLUMNS[layout]

        normalized: dict = {"model": model}
        if model == "top":
            for key in ("surface", "potential"):
                if key in data:
                    raise ConfigError("the top model fixes its own geometry "
                                      "and gravity", key=key)
        else:
            if "surface" not in data:
                raise ConfigError("missing required key", key="surface")
            normalized["surface"] = parse_surface(data["surface"])
            normalized["potential"] = _validate_kind(
                data.get("potential", {"kind": "none"}), "potential",
                POTENTIALS)
        tables = {"params": PARAMS[model], "initial": INITIAL[layout],
                  "integrator": INTEGRATOR, "output": OUTPUT[layout],
                  "compare": COMPARE}
        for name, table in tables.items():
            if name in data:
                normalized[name] = _validate(data[name], name, table)
        initial = normalized["initial"]
        if layout == "spinning" and ("theta_dot" in initial) == (
                "omega_a" in initial):
            raise ConfigError("exactly one of theta_dot and omega_a is "
                              "required", key="initial")
        self.data = normalized

    @property
    def model_kind(self) -> str:
        return self.data["model"]

    def to_dict(self) -> dict:
        return copy.deepcopy(self.data)

    def __eq__(self, other) -> bool:
        return isinstance(other, ScenarioConfig) and self.data == other.data

    def __repr__(self) -> str:
        return f"ScenarioConfig({self.data['model']})"


def parse_scenario(data: dict) -> ScenarioConfig:
    return ScenarioConfig(data)


def read_json(path: str):
    """The JSON document in a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}")


def load_scenario(path: str) -> ScenarioConfig:
    return ScenarioConfig(read_json(path))


# -- builders ------------------------------------------------------------------


def build_surface(surface: dict) -> charts.SurfaceChart:
    """The chart of a validated surface block: the factory named by its kind
    takes the other keys as arguments."""
    args = {key: value for key, value in surface.items() if key != "kind"}
    try:
        if surface["kind"] == "custom":
            args["domain"] = charts.Domain(
                tuple(args.pop("x1_range")), tuple(args.pop("x2_range")),
                periodic_x1=args.pop("periodic_x1"),
                periodic_x2=args.pop("periodic_x2"),
            )
        return getattr(charts, surface["kind"])(**args)
    except (ValueError, ExpressionError) as exc:
        raise ConfigError(str(exc), key="surface")


def build_chart(cfg: ScenarioConfig) -> charts.SurfaceChart:
    return build_surface(cfg.data["surface"])


_POTENTIAL_FACTORIES = {"none": potentials.none,
                        "axis_cosine": potentials.axis_cosine,
                        "expression": potentials.from_expression}


def build_potential(cfg: ScenarioConfig) -> potentials.Potential:
    p = dict(cfg.data["potential"])
    factory = _POTENTIAL_FACTORIES[p.pop("kind")]
    try:
        return factory(**p)
    except (ValueError, ExpressionError) as exc:
        raise ConfigError(str(exc), key="potential.text")


_SURFACE_MODELS = {"geodesic": models.GeodesicModel,
                   "magnetic": models.MagneticModel,
                   "reduced_disk": models.ReducedDiskModel}


def build_model(cfg: ScenarioConfig):
    kind = cfg.model_kind
    prm = cfg.data["params"]
    if kind == "top":
        return models.TopModel(dynamics.TopParams(**prm))
    chart, potential = build_chart(cfg), build_potential(cfg)
    if kind == "full_disk":
        return models.FullDiskModel(chart, dynamics.DiskParams(**prm),
                                    potential)
    return _SURFACE_MODELS[kind](chart, potential=potential, **prm)


def build_initial(cfg: ScenarioConfig, model) -> np.ndarray:
    ini = cfg.data["initial"]
    x = np.array(ini["x"], dtype=float)
    v = np.array(ini["v"], dtype=float)
    model.monitor_chart.domain.wrap(x)
    if model.n_pos == 2:
        return model.pack(dynamics.ReducedState(x=x, v=v))
    state = dynamics.FullState(x=x, v=v, theta=ini["theta"],
                               theta_dot=ini.get("theta_dot", 0.0))
    if "theta_dot" not in ini:
        # omega_a is theta_dot plus a term in (x, v); at theta_dot = 0 the
        # model's axial spin is that term alone
        state.theta_dot = ini["omega_a"] - model.omega_a(model.pack(state))
    return model.pack(state)


def build_settings(cfg: ScenarioConfig) -> IntegratorSettings:
    return IntegratorSettings(**cfg.data["integrator"])


def map_top_scenario(cfg: ScenarioConfig) -> ScenarioConfig:
    """Derive the equivalent sphere-magnetic scenario from a top scenario."""
    if cfg.model_kind != "top":
        raise ConfigError("mapping applies to top scenarios only", key="model")
    ini = cfg.data["initial"]
    top = dynamics.TopParams(**cfg.data["params"])
    eq = dynamics.top_to_sphere(top)
    if "omega_a" in ini:
        omega_a = ini["omega_a"]
    else:
        omega_a = ini["theta_dot"] + ini["v"][1] * math.cos(ini["x"][0])
    derived = {
        "surface": {"kind": "sphere", "R": eq.R},
        "model": "magnetic",
        "params": {"m": eq.m, "L": eq.charge(omega_a)},
        "initial": {"x": list(ini["x"]), "v": list(ini["v"])},
        "potential": {"kind": "axis_cosine", "c": eq.m * top.g * eq.R},
        "integrator": dict(cfg.data["integrator"]),
    }
    if "compare" in cfg.data:
        derived["compare"] = dict(cfg.data["compare"])
    return ScenarioConfig(derived)


# -- trajectory output ---------------------------------------------------------


def _field_values(traj: Trajectory, name: str) -> np.ndarray:
    if name == "t":
        return traj.times
    if name in traj.columns:
        return traj.column(name)
    return traj.monitors[name]


def trajectory_table(traj: Trajectory,
                     fields: list[str]) -> tuple[list[str], np.ndarray]:
    table = np.column_stack([_field_values(traj, name) for name in fields])
    return list(fields), table


def write_csv(path: str, traj: Trajectory, fields: list[str]) -> None:
    header, table = trajectory_table(traj, fields)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
        if traj.truncated:
            fh.write(f"# truncated: {traj.truncation_reason}\n")


def write_json(path: str, traj: Trajectory, fields: list[str]) -> None:
    header, table = trajectory_table(traj, fields)
    doc = {
        "model": traj.model,
        "columns": header,
        "rows": [list(row) for row in table.tolist()],
        "truncated": traj.truncated,
        "truncation_reason": traj.truncation_reason,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_trajectory(cfg: ScenarioConfig, traj: Trajectory) -> None:
    out = cfg.data["output"]
    write = write_csv if out["format"] == "csv" else write_json
    try:
        write(out["path"], traj, out["fields"])
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}", key="output.path")
