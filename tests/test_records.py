import pickle

import pytest

from quadzero import (
    Axis,
    BoundSource,
    Circle,
    CountBound,
    CountBranch,
    CriticalCircle,
    CriticalCircleReport,
    DiskBound,
    HarmonicQuadrinomial,
    OrientationClass,
    RealPoly,
    Rectangle,
    SweepCell,
    SweepGrid,
    WindingReport,
    find_zeros,
)
from quadzero.critical import RayCheck

REPORT = find_zeros(HarmonicQuadrinomial(b=2.0, c=3.0, k=4, n=3, m=1))
RAY_FIELDS = dict(angle=1.5, inside=OrientationClass.SENSE_PRESERVING,
                  on=OrientationClass.SINGULAR, outside=OrientationClass.SENSE_REVERSING)
RAY = RayCheck(**RAY_FIELDS)
CELL = SweepCell(b=2.0, c=3.0, report=REPORT)

# Each record type with the values of one instance, by field in order.
RECORDS = [
    (HarmonicQuadrinomial, dict(b=0.5, c=2.0, k=4, n=2, m=1)),
    (RealPoly, dict(coeffs=(1.0, -2.0, 1.5))),
    (DiskBound, dict(radius=2.5, source=BoundSource.THM31, winding=4)),
    (CountBound, dict(upper=16, upper_is_proven=True, lower=4,
                      branch=CountBranch.B_NONZERO_WILMSHURST)),
    (Circle, dict(center=0.5 + 1j, radius=2.0)),
    (Rectangle, dict(lo=-1 - 2j, hi=3 + 4j)),
    (WindingReport, dict(winding=-3, min_modulus=0.25, samples_used=12, refined=True)),
    (CriticalCircle, dict(radius=0.8, k=2, exists=True)),
    (RayCheck, RAY_FIELDS),
    (CriticalCircleReport, dict(circle=CriticalCircle(0.8, 2, True), checks=(RAY,),
                                passed=True)),
    (Axis, dict(lo=0.5, hi=3.0, steps=20)),
    (SweepCell, dict(b=2.0, c=3.0, report=REPORT)),
    (SweepGrid, dict(b_axis=Axis(2.0, 2.0, 1), c_axis=Axis(3.0, 3.0, 1), k=4, n=3, m=1,
                     cells=(CELL,))),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_is_an_immutable_value(cls, fields):
    rec = cls(*fields.values())
    assert cls(**fields) == rec and hash(cls(**fields)) == hash(rec)
    args = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(rec) == f"{cls.__name__}({args})"
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert [getattr(rec, name) for name in fields] == list(fields.values())
    # The sweep pool sends cells, disks and count bounds between processes.
    copy = pickle.loads(pickle.dumps(rec))
    assert type(copy) is cls and copy == rec
