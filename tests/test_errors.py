import dataclasses
import math
import re

import numpy as np
import pytest

from crnsim import bounds, processes
from crnsim.bounds import compute_theorem_constants
from crnsim.errors import DomainError, check_real
from crnsim.harness import constant_time_scan
from crnsim.kinetics import StopCondition, first_production_times, simulate
from crnsim.model import Reaction, parse_crn

_CLASSES = (processes.DecayParams, processes.WalkParams, processes.ReflectingParams,
            *bounds.TARGETS.values())
_GENERIC = {"float": 0.5, "int": 1000}


def _fields_with(cls, name, value) -> dict:
    """Every field of ``cls`` by name: ``name`` holds ``value``, and every other
    field a value that passes its own check."""
    return {
        f.name: value if f.name == name
        else _GENERIC[f.type] if f.type in _GENERIC else f.metadata["choices"][0]
        for f in dataclasses.fields(cls)
    }


def _build(cls, name):
    """Build ``cls`` with field ``name`` set to the value under test. Every
    ``__post_init__`` runs ``check_fields`` first, so a bad value is refused
    before any check that joins fields, which the other values may fail."""
    return lambda value: cls(**_fields_with(cls, name, value))


def _store(cls, name):
    """What ``check_fields`` stores in field ``name`` from the value under test,
    with no check that joins fields."""

    def store(value):
        params = object.__new__(cls)
        for key, v in _fields_with(cls, name, value).items():
            object.__setattr__(params, key, v)
        processes.check_fields(params)
        return getattr(params, name)

    return store


_CYCLE, _ = parse_crn("A -> B\nB -> A\n")
_START = _CYCLE.config({"A": 3})


def _volume(value):
    return simulate(_CYCLE, _START, StopCondition(t_max=1.0), 0, volume=value).volume


def _checkpoint(value):
    trace = simulate(_CYCLE, _START, StopCondition(t_max=20.0), 0, checkpoint_times=[value])
    return trace.checkpoints[0][0]


def _first_production_t_cap(value):
    return first_production_times(_CYCLE, _START, "B", value, 1, 0).t_cap


def _scan_t_cap(value):
    return constant_time_scan(_CYCLE, _CYCLE.config({"A": 1}), 1.0, [2], 1, 0, t_cap=value).t_cap


def _c_hat(value):
    return compute_theorem_constants(_CYCLE, _START, 1.0, c_hat=value).c_hat_input


def _t_max(value):
    return StopCondition(t_max=value).t_max


def _rate_constant(value):
    return Reaction((1, 0), (0, 1), value).rate_constant


# one case per real-valued parameter: (the name its messages use, a call that
# passes it the value under test, a call that returns the value stored from
# it, whether an int is stored as an int). Every float field of the
# parameter classes is a case, so a new field or target class is one too
SITES = {
    **{
        f"{cls.__name__}.{f.name}": (f.name, _build(cls, f.name), _store(cls, f.name), True)
        for cls in _CLASSES
        for f in dataclasses.fields(cls)
        if f.type == "float"
    },
    "StopCondition.t_max": ("t_max", _t_max, _t_max, True),
    "simulate.volume": ("volume", _volume, _volume, True),
    "simulate.checkpoint_times": ("checkpoint times", _checkpoint, _checkpoint, True),
    "first_production_times.t_cap": ("t_cap", _first_production_t_cap,
                                     _first_production_t_cap, True),
    "constant_time_scan.t_cap": ("t_cap", _scan_t_cap, _scan_t_cap, True),
    "compute_theorem_constants.c_hat": ("c_hat", _c_hat, _c_hat, False),
    "Reaction.rate_constant": ("rate constant", _rate_constant, _rate_constant, False),
}


@pytest.mark.parametrize("bad", [True, "1", math.nan, math.inf, -1, 10**400],
                         ids=["True", "str", "nan", "inf", "-1", "1e400"])
@pytest.mark.parametrize("case", SITES)
def test_every_real_parameter_refuses_a_bad_value(case, bad):
    name, call, _, _ = SITES[case]
    with pytest.raises(DomainError, match=rf"^{re.escape(name)} must be finite and "):
        call(bad)


@pytest.mark.parametrize("case", SITES)
def test_every_real_parameter_stores_a_python_number(case):
    _, _, stored, keeps_int = SITES[case]
    assert type(stored(np.float32(0.5))) is float
    assert type(stored(np.int64(14))) is (int if keeps_int else float)


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.5, 3, 2**1023, np.float64(1e-300)])
    def test_accepts_a_finite_positive_number(self, value):
        assert check_real(value, "x") == value

    def test_zero_only_with_zero(self):
        assert check_real(0, "x", zero=True) == 0
        assert check_real(-0.0, "x", zero=True) == 0
        with pytest.raises(DomainError, match=r"^x must be finite and positive, got 0$"):
            check_real(0, "x")
        with pytest.raises(DomainError, match=r"^x must be finite and nonnegative, got -1$"):
            check_real(-1, "x", zero=True)

    @pytest.mark.parametrize("value", [False, np.True_, None, "0.5", b"1", 1j, -math.inf])
    def test_refuses_what_is_not_a_positive_real(self, value):
        with pytest.raises(DomainError, match="x must be finite and nonnegative"):
            check_real(value, "x", zero=True)

    def test_keeps_python_numbers_and_converts_numpy_ones(self):
        assert [type(check_real(v, "x")) for v in (1.5, 2, np.float32(0.5), np.int64(14))] == [
            float, int, float, int
        ]
