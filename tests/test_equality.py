"""Equality and hashing of the classes that callers and tests compare.

Each of these compares its fields by value, as the census, the LES check
and the tests read it; a field derived on first read (``F2Matrix.ones``)
takes no part.  The other plain classes of ``f2lin``, ``index_grading``,
``real_spinc``, ``seifert_hmr``, ``complexes`` and ``morse_blowup``
compare by identity.
"""

from __future__ import annotations

import pytest

from hmrkit.f2lin import F2Matrix, IntMatrix
from hmrkit.index_grading import GradingSetInfo
from hmrkit.real_spinc import OrbitEntry
from hmrkit.seifert_hmr import Tower, TowerModule


def f2_with_ones_read():
    m = F2Matrix.from_entries(2, 3, [(0, 2), (1, 0)])
    assert m.ones == ((0, 2), (1, 0))
    return m


#: (id, a thunk that builds a value, one that builds an unequal one, and
#: whether the value is hashable); the first thunk is called twice
VALUES = (
    ("IntMatrix", lambda: IntMatrix.from_grid(2, 2, [[1, 0], [0, -3]]),
     lambda: IntMatrix.from_grid(2, 2, [[1, 0], [0, 3]]), True),
    ("IntMatrix_shape", lambda: IntMatrix.zero(0, 2),
     lambda: IntMatrix.zero(0, 3), True),
    ("F2Matrix", f2_with_ones_read,
     lambda: F2Matrix.from_entries(2, 3, [(0, 2)]), True),
    ("F2Matrix_shape", lambda: F2Matrix.zero(2, 2),
     lambda: F2Matrix.zero(2, 3), True),
    ("Tower", lambda: Tower("up", -1), lambda: Tower("down", -1), False),
    ("TowerModule", lambda: TowerModule.from_parts({0: 2}, (Tower("up", 0),)),
     lambda: TowerModule.from_parts({0: 2}, (Tower("up", 1),)), False),
    ("TowerModule_undetermined", lambda: TowerModule(undetermined=True),
     TowerModule, False),
    ("GradingSetInfo", lambda: GradingSetInfo(False, 2),
     lambda: GradingSetInfo(False, 1), False),
    ("OrbitEntry", lambda: OrbitEntry(1, 0, 0, False, -1),
     lambda: OrbitEntry(1, 1, 0, False, -1), True),
)


@pytest.mark.parametrize("make, make_other, hashable",
                         [v[1:] for v in VALUES], ids=[v[0] for v in VALUES])
def test_equal_fields_compare_equal(make, make_other, hashable):
    a, b, other = make(), make(), make_other()
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object()
    if hashable:
        assert hash(a) == hash(b)
