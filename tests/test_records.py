"""The value records: frozen, compared and hashed by value, validated in their constructor."""
import copy
import dataclasses
import math
import pickle

import pytest

from srdist.algebra import InvalidElementError, SO3Element, SU2Element
from srdist.cutlocus import CutLocusClass, CutTag
from srdist.geodesics import GeodesicParams
from srdist.su2_distance import DistanceCase, DistanceResult

_QUARTER_TURN = ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))

# (record, its fields, a change for dataclasses.replace, the error it raises or None)
RECORDS = [
    (SU2Element, dict(a_re=0.6, a_im=0.0, b_re=0.0, b_im=0.8), dict(a_re=0.9), "unit-norm violation"),
    (SO3Element, dict(m=_QUARTER_TURN), dict(m=((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
     "orthogonality violation"),
    (DistanceResult, dict(t=1.5, case=DistanceCase.SHORT, beta=0.25, phi0=2.0), dict(t=2.5), None),
    (CutLocusClass, dict(tag=CutTag.SYM, witness="|Re A| = 0.000e+00"), dict(witness=None), None),
    (GeodesicParams, dict(phi0=2.0, beta=-0.5), dict(phi0=math.nan), "must be finite"),
]


@pytest.mark.parametrize("cls, fields, change, error", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, fields, change, error):
    r = cls(**fields)
    assert {f.name: getattr(r, f.name) for f in dataclasses.fields(r)} == fields
    assert repr(r) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    same = cls(*fields.values())
    assert r == same and hash(r) == hash(same)
    for name, value in fields.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, name, value)
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(twin) is cls and twin == r and hash(twin) == hash(r)
    # replace builds through the constructor, so it validates the new fields.
    if error is None:
        new = dataclasses.replace(r, **change)
        assert new == cls(**{**fields, **change}) and new != r
    else:
        with pytest.raises(InvalidElementError, match=error):
            dataclasses.replace(r, **change)
