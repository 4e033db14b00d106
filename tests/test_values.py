"""The value types: constructor signature, ==, hash, repr and
immutability of each result class, as a dataclass would give them."""

import copy
import pickle

import pytest

from cableslopes.cable import CableParams
from cableslopes.cli import CommandResult
from cableslopes.exact import (_MAX, _MIN, INF, ExtRational, IntMobius,
                               SlopeSet)
from cableslopes.intervals import RelativeIntervalResult
from cableslopes.jn import JNResult, JNWitness
from cableslopes.oracle import ScanReport
from cableslopes.seifert import DerivedQuantities

R = ExtRational.parse
HALF = R("1/2")
DQ = DerivedQuantities(1, 1, 0, 0, -1, -1)
T = SlopeSet.interval(R("-3/2"), ExtRational(-1))
T_STRICT = SlopeSet.interval(R("-3/2"), ExtRational(-1), False, False)

# class, positional fields, the same fields by keyword, a differing
# instance and the exact repr
CASES = {
    "ExtRational": (
        ExtRational, (1, 2), dict(num=1, den=2), ExtRational(1, 3),
        "ExtRational('1/2')"),
    "SlopeSet": (
        SlopeSet, ([(_MIN, _MAX)], True), dict(_ivs=[(_MIN, _MAX)], _inf=True),
        SlopeSet.reals(), "SlopeSet([-inf,inf])"),
    "DerivedQuantities": (
        DerivedQuantities, (1, 1, 0, 0, -1, -1),
        dict(n=1, r1=1, s0=0, b0=0, m0=-1, m1=-1),
        DerivedQuantities(1, 1, 0, 0, -1, 0),
        "DerivedQuantities(n=1, r1=1, s0=0, b0=0, m0=-1, m1=-1)"),
    "RelativeIntervalResult": (
        RelativeIntervalResult, (T, T_STRICT, DQ),
        dict(t=T, t_strict=T_STRICT, quantities=DQ),
        RelativeIntervalResult(T, SlopeSet.empty(), DQ),
        "RelativeIntervalResult(t=SlopeSet([-3/2,-1]), "
        "t_strict=SlopeSet((-3/2,-1)), quantities=DerivedQuantities("
        "n=1, r1=1, s0=0, b0=0, m0=-1, m1=-1))"),
    "JNWitness": (
        JNWitness, (2, 1, (HALF, HALF)),
        dict(N=2, A=1, assignment=(HALF, HALF)),
        JNWitness(2, 1, (HALF, R("1/3"))),
        "JNWitness(N=2, A=1, assignment=(ExtRational('1/2'), "
        "ExtRational('1/2')))"),
    "JNResult": (
        JNResult, (True, None, "interior-window"),
        dict(realizable=True, witness=None, rule="interior-window"),
        JNResult(True, None, "slot-sum"),
        "JNResult(realizable=True, witness=None, rule='interior-window')"),
    "CableParams": (
        CableParams, (5, 3), dict(p=5, q=3), CableParams(7, 3),
        "CableParams(p=5, q=3, r=2, s=-1)"),
    "ScanReport": (
        ScanReport, (HALF, HALF, 3, [(HALF, True, False)]),
        dict(hull_low=HALF, hull_high=HALF, tested_points=3,
             mismatches=[(HALF, True, False)]),
        ScanReport(HALF, HALF, 3),
        "ScanReport(hull_low=ExtRational('1/2'), "
        "hull_high=ExtRational('1/2'), tested_points=3, "
        "mismatches=[(ExtRational('1/2'), True, False)])"),
    "CommandResult": (
        CommandResult, ("torus", {"p": 3}, {"set": []}, ["x"], "text", 4),
        dict(command="torus", inputs={"p": 3}, result={"set": []},
             refs=["x"], text="text", exit_code=4),
        CommandResult("torus", {"p": 3}, {"set": []}, ["x"], "text"),
        "CommandResult(command='torus', inputs={'p': 3}, "
        "result={'set': []}, refs=['x'], text='text', exit_code=4)"),
}
MUTABLE = {"ScanReport"}
# ScanReport has no hash, and CommandResult's dict and list fields have
# none, as in a frozen dataclass
UNHASHABLE = {"ScanReport", "CommandResult"}
ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "pickle-0": lambda value: pickle.loads(pickle.dumps(value, 0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
class TestValueTypes:
    def test_signature(self, name):
        cls, args, kwargs, _, _ = CASES[name]
        assert cls(*args) == cls(**kwargs)
        with pytest.raises(TypeError):
            cls(*args, None)
        with pytest.raises(TypeError):
            cls(*args[:-1], bogus=1)

    def test_equality(self, name):
        cls, args, _, other, _ = CASES[name]
        value = cls(*args)
        assert value == cls(*args)
        assert not value != cls(*args)
        assert value != other
        # another class with the same fields is not equal
        assert value != args
        assert value.__eq__(args) is NotImplemented

    def test_hash(self, name):
        cls, args, _, _, _ = CASES[name]
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(cls(*args))
        else:
            assert hash(cls(*args)) == hash(cls(*args))

    def test_repr(self, name):
        cls, args, _, _, text = CASES[name]
        assert repr(cls(*args)) == text

    def test_assignment(self, name):
        cls, args, _, _, _ = CASES[name]
        value = cls(*args)
        field = next(iter(CASES[name][2]))
        if name in MUTABLE:
            setattr(value, field, 7)
            assert getattr(value, field) == 7
        else:
            with pytest.raises(AttributeError):
                setattr(value, field, 7)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert value == cls(*args)

    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    def test_copy_and_pickle(self, name, how):
        cls, args, _, _, _ = CASES[name]
        value = cls(*args)
        twin = ROUND_TRIPS[how](value)
        assert type(twin) is cls and twin == value
        assert repr(twin) == repr(value)
        if name not in UNHASHABLE:
            assert hash(twin) == hash(value)
        if name not in MUTABLE:
            field = next(iter(CASES[name][2]))
            with pytest.raises(AttributeError):
                setattr(twin, field, 7)
            with pytest.raises(AttributeError):
                delattr(twin, field)


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_round_trip_keeps_infinity_and_derived_slots(how):
    # INF and the slots that CableParams derives from p and q come back
    # too, though ==, hash and repr do not read the derived ones
    twin = ROUND_TRIPS[how](INF)
    assert twin == INF and hash(twin) == hash(INF) and twin.is_infinite
    params = ROUND_TRIPS[how](CableParams(5, 3))
    assert (params.gamma, params.fiber_slope) == (R("2/3"), R("5/3"))
    assert params._inner == IntMobius(-1, 2, -3, 5)
    assert params._outer == IntMobius(15, 16, 1, 1)
    with pytest.raises(AttributeError):
        params.gamma = HALF
    mobius = ROUND_TRIPS[how](IntMobius(1, 2, 3, 4))
    assert mobius == IntMobius(1, 2, 3, 4) and mobius.det == -2


def test_hash_reads_the_fields():
    # a frozen value hashes like the tuple of its fields
    assert hash(DQ) == hash((1, 1, 0, 0, -1, -1))
    assert hash(CableParams(5, 3)) == hash((5, 3, 2, -1))


def test_cable_params_fields_leave_derived_slopes_out():
    params = CableParams(5, 3)
    assert params.gamma == R("2/3")
    with pytest.raises(AttributeError):
        params.gamma = R("1/3")


def test_jn_result_truth_is_realizable():
    assert JNResult(True, None, "slot-sum")
    assert not JNResult(False, None, "slot-sum")


def test_scan_report_default_mismatches_are_fresh():
    a, b = ScanReport(None, None, 0), ScanReport(None, None, 0)
    assert a.mismatches == [] and a.ok
    a.mismatches.append((HALF, True, False))
    assert b.mismatches == [] and not a.ok
    assert a != b
