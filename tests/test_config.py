"""The scenario schema tables: random valid and one-fault scenarios drawn
from the tables themselves, and the README's copy of them."""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gyrosurf import config
from gyrosurf.config import REQUIRED, ScenarioConfig
from gyrosurf.errors import ConfigError

NUMBERS = {
    "number": st.floats(-1e3, 1e3),
    "positive": st.floats(1e-3, 1e3),
    "nonnegative": st.floats(0.0, 1e3),
}
VALID = {
    **NUMBERS,
    "count": st.integers(1, 10**6),
    "string": st.text(max_size=8),
    "bool": st.booleans(),
    "pair": st.lists(NUMBERS["number"], min_size=2, max_size=2),
}

NON_FINITE = [math.nan, math.inf, -math.inf, 10**400]
INVALID = {
    "number": ["1", True, None] + NON_FINITE,
    "positive": ["1", True, 0.0, -1.0] + NON_FINITE,
    "nonnegative": ["1", -1e-9] + NON_FINITE,
    "count": [0, -3, 1.0, True, "1"],
    "string": [1.0, None, ["x1"]],
    "bool": [0, 1, "true", None],
    "pair": [[1.0], [1.0, 2.0, 3.0], "ab", [True, 0.0], [1.0, math.nan],
             [math.inf, 0.0]],
}


def valid(kind):
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if isinstance(kind, list):
        return st.lists(valid(kind[0]), min_size=1, max_size=4)
    return VALID[kind]


def invalid(kind):
    if isinstance(kind, tuple):
        return st.sampled_from([7, None, "no_such_choice"])
    if isinstance(kind, list):
        return st.sampled_from([[], "x1", None, [7]])
    return st.sampled_from(INVALID[kind])


@st.composite
def blocks(draw, table):
    """Every required key of `table`, and each other key or not."""
    return {key: draw(valid(kind)) for key, (kind, default) in table.items()
            if default == REQUIRED or draw(st.booleans())}


def layout(model):
    return "spinning" if model in config.SPINNING_MODELS else "surface"


def schema(data):
    """Block name -> the table its keys are checked against."""
    tables = {"params": config.PARAMS[data["model"]],
              "initial": config.INITIAL[layout(data["model"])],
              "integrator": config.INTEGRATOR,
              "output": config.OUTPUT[layout(data["model"])],
              "compare": config.COMPARE}
    for name, kinds in (("surface", config.SURFACES),
                        ("potential", config.POTENTIALS)):
        if name in data:
            tables[name] = {"kind": (tuple(kinds), REQUIRED),
                            **kinds[data[name]["kind"]]}
    return tables


@st.composite
def scenarios(draw, model):
    data = {"model": model}
    for name, table in schema(data).items():
        if name in ("params", "initial", "integrator") or draw(st.booleans()):
            data[name] = draw(blocks(table))
    if layout(model) == "spinning":
        for key in ("theta_dot", "omega_a"):
            data["initial"].pop(key, None)
        spin = draw(st.sampled_from(["theta_dot", "omega_a"]))
        data["initial"][spin] = draw(NUMBERS["number"])
    if model != "top":
        for name, kinds in (("surface", config.SURFACES),
                            ("potential", config.POTENTIALS)):
            kind = draw(st.sampled_from(tuple(kinds)))
            data[name] = {"kind": kind, **draw(blocks(kinds[kind]))}
    return data


@pytest.mark.parametrize("model", config.MODEL_KINDS)
@settings(max_examples=40, deadline=None)
@given(pick=st.data())
def test_valid_scenario_round_trips(model, pick):
    data = pick.draw(scenarios(model))
    cfg = ScenarioConfig(data)
    assert ScenarioConfig(cfg.to_dict()) == cfg
    for name, block in data.items():
        if name != "model":
            assert {key: cfg.data[name][key] for key in block} == block


@pytest.mark.parametrize("model", config.MODEL_KINDS)
@settings(max_examples=50, deadline=None)
@given(pick=st.data())
def test_one_bad_value_names_its_key(model, pick):
    data = pick.draw(scenarios(model))
    tables = schema(data)
    paths = [("model", None, config.MODEL_KINDS)] + [
        (f"{name}.{key}", name, tables[name][key][0])
        for name in tables if name in data for key in data[name]]
    path, name, kind = pick.draw(st.sampled_from(paths))
    target = data if name is None else data[name]
    target[path.rpartition(".")[2]] = pick.draw(invalid(kind))
    with pytest.raises(ConfigError) as info:
        ScenarioConfig(data)
    assert info.value.key == path


@pytest.mark.parametrize("model", config.MODEL_KINDS)
@settings(max_examples=20, deadline=None)
@given(pick=st.data())
def test_unknown_key_names_its_path(model, pick):
    data = pick.draw(scenarios(model))
    name = pick.draw(st.sampled_from(
        [None] + [name for name in data if name != "model"]))
    if name is None:
        data["bogus"], path = 1.0, "bogus"
    else:
        data[name]["bogus"], path = 1.0, f"{name}.bogus"
    with pytest.raises(ConfigError, match="unknown key") as info:
        ScenarioConfig(data)
    assert info.value.key == path


def test_readme_lists_every_schema_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Scenario schema")[1].split("\n#")[0]
    tables = [*config.SURFACES.values(), *config.POTENTIALS.values(),
              *config.PARAMS.values(), *config.INITIAL.values(),
              config.INTEGRATOR, *config.OUTPUT.values(), config.COMPARE]
    names = ({key for table in tables for key in table}
             | set(config.SURFACES) | set(config.POTENTIALS)
             | set(config.PARAMS))
    assert sorted(n for n in names if f"`{n}`" not in section) == []
