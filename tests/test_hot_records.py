"""Per-request records and fitted cost parameters keep their shape.

The records built once per request (or per DMT mutation) are named
tuples: their field names, order and defaults are part of their API,
and they stay immutable.  The fitted cost-model parameters are Python
floats — a ``numpy.float64`` leaking out of the least-squares fit would
slow every benefit evaluation without changing a result.
"""

import dataclasses

import pytest

from repro.cluster import ClusterSpec, calibrate_cost_params
from repro.core.cost_model import CostModel
from repro.core.redirector import TO_DSERVERS, RouteStep
from repro.devices import HDD, SSD, DeviceProfiler, HDDSpec, SSDSpec
from repro.iosig import TraceRecord
from repro.kvstore import WalRecord
from repro.pfs import SubRequest
from repro.units import KiB, MiB

RECORDS = [
    (
        TraceRecord,
        ("time", "rank", "op", "path", "offset", "size", "dserver_bytes",
         "cserver_bytes", "elapsed"),
        {"elapsed": 0.0},
        (0.5, 1, "write", "/f", 0, 8, 8, 0),
    ),
    (
        SubRequest,
        ("server", "local_offset", "length", "file_offset"),
        {},
        (2, 64, 16, 128),
    ),
    (
        RouteStep,
        ("target", "d_offset", "size", "c_offset", "extent"),
        {"c_offset": None, "extent": None},
        (TO_DSERVERS, 0, 4096),
    ),
    (
        WalRecord,
        ("op", "key", "value"),
        {"value": None},
        ("put", "k"),
    ),
]


@pytest.mark.parametrize(
    "cls, fields, defaults, args", RECORDS,
    ids=[entry[0].__name__ for entry in RECORDS],
)
def test_record_fields_defaults_and_immutability(cls, fields, defaults, args):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    record = cls(*args)
    assert tuple(getattr(record, name) for name in fields[:len(args)]) == args
    for name, value in defaults.items():
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        setattr(record, fields[0], args[0])
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_trace_record_target_property():
    record = TraceRecord(0.0, 0, "read", "/f", 0, 8, 2, 6)
    assert record.target == "cservers"
    assert record._replace(cserver_bytes=1).target == "dservers"


def _assert_float_fields(obj):
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if field.type in ("float", float):
            assert type(value) is float, (type(obj).__name__, field.name)


def test_fitted_profiles_hold_python_floats():
    hdd = DeviceProfiler().profile(HDD(HDDSpec()))
    ssd = DeviceProfiler().profile(SSD(SSDSpec()))
    for profile in (hdd, ssd, hdd.seek_profile):
        _assert_float_fields(profile)
    assert type(hdd.seek_time(64 * MiB)) is float


def test_cost_params_and_benefit_are_python_floats():
    params = calibrate_cost_params(ClusterSpec.paper_testbed())
    _assert_float_fields(params)
    _assert_float_fields(params.hdd_profile)
    _assert_float_fields(params.hdd_profile.seek_profile)
    model = CostModel(params)
    for op in ("read", "write"):
        for size, distance in ((8 * KiB, 0), (8 * KiB, 512 * MiB),
                               (4 * MiB, 64 * MiB)):
            assert type(model.benefit(op, 0, size, distance)) is float
