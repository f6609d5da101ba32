"""The package's immutable records behave as frozen dataclasses do.

Each case is a record's class, the values of all its fields, how many
leading fields are required, the values its defaults fill in, other field
values, and the exact repr.  Field names are read from `__match_args__`.
"""

import copy
import pickle

import pytest

from bfgp import (
    Budget,
    ButterflyLabel,
    CoverReport,
    CycleCover,
    GpWitness,
    SolveResult,
    VertexSet,
)
from bfgp.budget import DEFAULT_SOLVER_NODES

CASES = {
    "Budget": (Budget, (7,), 0, (DEFAULT_SOLVER_NODES,), (8,), "Budget(node_limit=7)"),
    "ButterflyLabel": (ButterflyLabel, (2, "01"), 2, (), (2, "10"),
                       "ButterflyLabel(level=2, row='01')"),
    "VertexSet": (VertexSet, ((1, 5), "construction", "bf:3"), 1, ("user", ""),
                  ((1, 6), "construction", "bf:3"),
                  "VertexSet(members=(1, 5), provenance='construction', graph_ref='bf:3')"),
    "GpWitness": (GpWitness, ("violation", (0, 4, 8), 4), 1, (None, None),
                  ("violation", (0, 4, 8), 8),
                  "GpWitness(status='violation', triple=(0, 4, 8), middle=4)"),
    "SolveResult": (SolveResult, (VertexSet((1, 5)), 2, True, 9), 4, (),
                    (VertexSet((1, 5)), 2, False, 9),
                    "SolveResult(best_set=VertexSet(members=(1, 5), provenance='user', "
                    "graph_ref=''), size=2, optimal=True, nodes_explored=9)"),
    "CycleCover": (CycleCover, ("cycle-cover", ((0, 1, 2),), "bf:2"), 2, ("",),
                   ("path-cover", ((0, 1, 2),), "bf:2"),
                   "CycleCover(kind='cycle-cover', cycles=((0, 1, 2),), graph_ref='bf:2')"),
    "CoverReport": (CoverReport, ({"lengths_ok": True}, {"flag": "count_ok"}, (1, 2)), 1,
                    (None, ()), ({"lengths_ok": False}, {"flag": "count_ok"}, (1, 2)),
                    "CoverReport(flags={'lengths_ok': True}, first_failure={'flag': "
                    "'count_ok'}, incidence=(1, 2))"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_record_parity(case):
    cls, values, required, defaults, other, text = CASES[case]
    fields = cls.__match_args__
    assert len(fields) == len(values) == required + len(defaults)
    rec = cls(*values)
    assert [getattr(rec, f) for f in fields] == list(values)
    assert cls(**dict(zip(fields, values))) == rec
    assert cls(*values[:required]) == cls(*values[:required], *defaults)
    if required:
        with pytest.raises(TypeError):
            cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(*values, None)

    assert rec == cls(*values) and not rec != cls(*values)
    assert rec != cls(*other)
    twin = type("Twin", (cls,), {})(*values)  # another class, the same field values
    assert rec != twin and twin != rec
    assert rec.__eq__(twin) is NotImplemented
    assert rec != values
    if cls is CoverReport:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(cls(*values)) == hash(values)

    assert repr(rec) == text
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, values[0])
    with pytest.raises(AttributeError):
        delattr(rec, fields[0])
    assert [getattr(rec, f) for f in fields] == list(values)

    for clone in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(clone) is cls and clone == rec
