import dataclasses

import pytest

from streammem.errors import InputError, require_number
from streammem.frame_gate import GateConfig
from streammem.harness import SceneDef, SceneSpec, TraceQuery
from streammem.memory_core import MemoryConfig
from streammem.ports import RemoteBackendConfig

RECORDS = [
    MemoryConfig(),
    GateConfig(),
    SceneDef(tags=("kitchen",), duration=4.0, motion=0.5),
    SceneSpec(scenes=(SceneDef(tags=("kitchen",), duration=4.0, motion=0.5),)),
    TraceQuery(t_input=1.0, question="q"),
    RemoteBackendConfig(base_url="http://127.0.0.1:1"),
]


def bad_numbers():
    """(record, field, value) for each int or float field of each record and
    each value its declared type rules out."""
    for record in RECORDS:
        for f in dataclasses.fields(record):
            values = {"int": [True, "1", 2.5], "float": [True, "1.0"]}.get(f.type, [])
            for value in values:
                yield pytest.param(record, f.name, value,
                                   id=f"{type(record).__name__}.{f.name}={value!r}")


@pytest.mark.parametrize("record,field,value", bad_numbers())
def test_record_numbers_are_checked_by_declared_type(record, field, value):
    with pytest.raises(InputError, match=f"{field} must be"):
        dataclasses.replace(record, **{field: value})


def test_every_record_declares_a_number():
    # a record whose annotations were not postponed would check no field
    for record in RECORDS:
        assert any(f.type in ("int", "float") for f in dataclasses.fields(record)), record


@pytest.mark.parametrize("value", [-(2**63), 2**63 - 1])
def test_integer_at_the_64_bit_limits_passes(value):
    require_number("n", value, integral=True)


@pytest.mark.parametrize("value", [-(2**63) - 1, 2**63, 10**400])
def test_integer_past_64_bits_is_input_error(value):
    with pytest.raises(InputError, match="rng_seed must be a 64-bit integer"):
        dataclasses.replace(MemoryConfig(), rng_seed=value)
