"""Fuzzed --set values: each config is built, or refused naming its key.

One fuzzed value per known key goes through parse_config and
build_initial_state; no simulation runs.  The fixed overrides beside a
key put its value on the path that reads it (kmax only exists for
random_solenoidal, a psi initial condition is only built with psi on).
"""

import json
import string

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from scalepde import ConfigError, build_initial_state, parse_config  # noqa: E402

_PSI_IC = ["psi.enabled=true", "psi.initial_condition.name=single_mode"]
KEYS = {
    "n": [],
    "grid_size": [],
    "core": [],
    "core_text": [],
    "eta": [],
    "beta": ["delta=0.1"],
    "delta": ["beta=1.0"],
    "dt": [],
    "t_end": [],
    "closure": [],
    "initial_condition": [],
    "psi": [],
    "epsilon": [],
    "eta0": [],
    "nodes": [],
    "output_interval": [],
    "seed": [],
    "psi.enabled": [],
    "psi.initial_condition": ["psi.enabled=true"],
    "psi.forcing": [],
    "initial_condition.name": [],
    "initial_condition.amplitude": ["initial_condition.name=taylor_green"],
    "initial_condition.kmax": ["initial_condition.name=random_solenoidal"],
    "initial_condition.k": ["initial_condition.name=single_mode"],
    "psi.initial_condition.name": ["psi.enabled=true"],
    "psi.initial_condition.amplitude": _PSI_IC,
    "psi.initial_condition.k": _PSI_IC,
}

_WORDS = st.sampled_from(
    ["name", "amplitude", "kmax", "k", "enabled", "initial_condition", "forcing",
     "taylor_green", "random_solenoidal", "single_mode", "zero", "fluid", "burgers",
     "none", "helmholtz"]
)
_TEXT = st.text(string.printable, max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _WORDS | _TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_WORDS | _TEXT, inner, max_size=3),
    max_leaves=8,
)
# raw text that is not JSON reaches the config as a string
_OVERRIDE = _JSON.map(json.dumps) | _TEXT


def _grid_fits(text: str) -> bool:
    """Keep fuzzed grid sizes at most 64, so each example stays small."""
    try:
        value = json.loads(text)
    except ValueError:
        return True
    return not (isinstance(value, int) and value > 64)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(key=st.sampled_from(sorted(KEYS)), text=_OVERRIDE)
def test_fuzzed_value_builds_or_names_key(key, text):
    hypothesis.assume(key != "grid_size" or _grid_fits(text))
    base = [] if key == "grid_size" else ["grid_size=16"]
    try:
        config, _ = parse_config("{}", base + KEYS[key] + [f"{key}={text}"])
        build_initial_state(config)
    except ConfigError as err:
        assert key in str(err)
