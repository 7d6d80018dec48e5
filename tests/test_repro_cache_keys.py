"""Content addresses of the result cache stay fixed, bit for bit.

Two guards on :func:`repro.cache.canonical_json` and
:func:`repro.cache.result_key`:

* pinned hex keys of a fixed set of configurations (scalars, tagged and
  tag-lookalike mapping keys, dataclasses, ``SpecConfig``, numpy
  scalars, ``OrderedDict``, an ``IntEnum``, sweep-trial addresses), so
  any change to canonicalisation or hashing that would orphan existing
  cache entries fails here;
* a hypothesis differential against :func:`_oracle_canonical_json`, the
  reference canonicaliser — the straight ``isinstance`` chain with one
  ``json.dumps`` per call — kept here verbatim as the oracle of the
  library's exact-type fast path.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import hashlib
import json
import re
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import canonical_json, canonical_value, result_key
from repro.sim.sweeps import TRIAL_EXPERIMENT, ScenarioSpec, trial_cache_query
from repro.spec.config import SpecConfig

FP = "0" * 32


@dataclasses.dataclass
class DemoConfig:
    n: int
    name: str


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Colour(enum.Enum):
    RED = "red"


# ----------------------------------------------------------------------
# The oracle: the reference isinstance chain, verbatim.
# ----------------------------------------------------------------------
_ORACLE_KEY_TAG_RE = re.compile(r"^(?:s|i|b|f|n|r):")


def _oracle_canonical_key(key: Any) -> str:
    if isinstance(key, str):
        return f"s:{key}" if _ORACLE_KEY_TAG_RE.match(key) else key
    if isinstance(key, bool):
        return f"b:{key}"
    if isinstance(key, int):
        return f"i:{key}"
    if isinstance(key, float):
        return f"f:{key!r}"
    if key is None:
        return "n:"
    return f"r:{key!r}"


def _oracle_canonical_value(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _oracle_canonical_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {
            _oracle_canonical_key(key): _oracle_canonical_value(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_oracle_canonical_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return [_oracle_canonical_value(item) for item in sorted(value, key=repr)]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return _oracle_canonical_value(value.item())
    return repr(value)


def _oracle_canonical_json(value: Any) -> str:
    return json.dumps(_oracle_canonical_value(value), sort_keys=True, separators=(",", ":"))


def _oracle_result_key(experiment: str, config: Any, seed: Any, fingerprint: str) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for part in (
        experiment,
        _oracle_canonical_json(config),
        _oracle_canonical_json(seed),
        fingerprint,
    ):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Pinned keys
# ----------------------------------------------------------------------
_BALANCING = ScenarioSpec(
    builder="balancing",
    kwargs={"n_validators": 128, "sway_delay": 2.0},
    epochs=2,
    seed="perfbench-1",
    label="sway-2",
)
_MINIMAL = ScenarioSpec(
    builder="honest",
    kwargs={"n_validators": 8, "config": SpecConfig.minimal()},
    epochs=3,
    seed="pin",
)

CASES = {
    "plain": ("exp", {"x": 1}, None),
    "mixed": ("exp", {"a": (1, 2), "b": {3, 1, 2}, "c": None, "d": 1.5, "e": True}, 3),
    "int-key": ("exp", {1: "x"}, None),
    "str-key": ("exp", {"1": "x"}, None),
    "bool-key": ("exp", {True: "x"}, None),
    "tag-lookalike": ("exp", {"i:1": "x", "s:a": ["s:b"]}, "seed"),
    "none-float-keys": ("exp", {None: 0, 0.5: 1}, None),
    "dataclass": ("exp", DemoConfig(3, "x"), 1),
    "spec-config": ("exp", SpecConfig.minimal(), None),
    "numpy": (
        "exp",
        {"f": np.float64(0.25), "i": np.int64(7), "b": np.bool_(True)},
        np.int64(2),
    ),
    "ordered-dict": ("exp", collections.OrderedDict([("b", 1), ("a", 2)]), None),
    "int-enum": ("exp", {"level": Level.LOW}, None),
    "nested": ("exp", [[(1, "a"), {"k": [None, 2.5]}], frozenset({"z", "y"})], None),
    "balancing-trial-0": (TRIAL_EXPERIMENT, *trial_cache_query(_BALANCING, 0)),
    "balancing-trial-63": (TRIAL_EXPERIMENT, *trial_cache_query(_BALANCING, 63)),
    "minimal-config-trial-5": (TRIAL_EXPERIMENT, *trial_cache_query(_MINIMAL, 5)),
}

#: Keys of ``CASES`` under fingerprint ``FP``, computed with the reference
#: canonicaliser.  A change here orphans every cache entry on disk.
PINNED_KEYS = {
    "plain": "9169731cd1fee2ceb1139029e05e1ade",
    "mixed": "77c4fb58cc66b00d968dd4cfb358b7a8",
    "int-key": "8d3692cdfa6a201eae6c9d897991c638",
    "str-key": "3d659487f56ae12f1a4ac36138b9cb19",
    "bool-key": "ffb062b0809c747d1d9941b8ecfbd946",
    "tag-lookalike": "dfddc3d6db338bd409ac7b0d292f5d88",
    "none-float-keys": "81abca3b44bb958e5f6046b07103d2e8",
    "dataclass": "b19d1e25e7d49e0b01b3280a5e2fabc1",
    "spec-config": "31585ff6f6441638c9d0ef7fe413a508",
    "numpy": "08f83080a14ecaba90ff1258a25363ea",
    "ordered-dict": "649cc922ee55ccf6116adbefc2aebb68",
    "int-enum": "a53b3b841ef074eea56b2ee9fb3a9ebe",
    "nested": "16a716c5f8c4cf882550acb2a8dced5d",
    "balancing-trial-0": "4f0635d409a0aea692802ab7d293c916",
    "balancing-trial-63": "a5fed4572a2284d644e04f09ad7bbb48",
    "minimal-config-trial-5": "cb3e04d3950c033ef7926a636c946790",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_key(name):
    experiment, config, seed = CASES[name]
    assert result_key(experiment, config, seed, fingerprint=FP) == PINNED_KEYS[name]
    assert _oracle_result_key(experiment, config, seed, FP) == PINNED_KEYS[name]


def test_fall_through_keeps_subclass_scalars_as_they_are():
    # np.float64 is a float subclass and an IntEnum an int subclass: both
    # take the isinstance chain and come back unchanged, as in the oracle.
    for value in (np.float64(0.25), Level.HIGH):
        assert canonical_value(value) is value
        assert _oracle_canonical_value(value) is value


# ----------------------------------------------------------------------
# Hypothesis differential
# ----------------------------------------------------------------------
_tag_lookalikes = st.builds(
    lambda tag, rest: f"{tag}:{rest}", st.sampled_from("sibfnrx"), st.text(max_size=4)
)
_keys = st.one_of(
    st.text(max_size=6),
    _tag_lookalikes,
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
    st.sampled_from(list(Level)),
)
_hashable = st.one_of(st.text(max_size=6), st.integers(), st.booleans(), st.none())
_leaves = st.one_of(
    st.text(max_size=8),
    st.integers(),
    st.booleans(),
    st.floats(),
    st.none(),
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    st.floats(width=64).map(np.float64),
    st.booleans().map(np.bool_),
    st.sampled_from(list(Level) + list(Colour)),
    st.builds(DemoConfig, st.integers(), st.text(max_size=4)),
    st.frozensets(_hashable, max_size=4),
    st.sets(_hashable, max_size=4),
)
_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4).map(
            collections.OrderedDict
        ),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(value=_values, seed=_values)
def test_canonical_json_and_result_key_match_the_oracle(value, seed):
    assert canonical_json(value) == _oracle_canonical_json(value)
    assert result_key("exp", value, seed, fingerprint=FP) == _oracle_result_key(
        "exp", value, seed, FP
    )
