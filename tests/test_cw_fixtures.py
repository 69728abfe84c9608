"""The CW builder behind the fixtures: what ``add`` and ``finish`` refuse,
and what one declared orbit becomes."""

import pytest

from hmrkit.cw_fixtures import _Builder
from hmrkit.errors import MalformedOrbitMap, ShapeMismatch
from hmrkit.real_spinc import OrbitEntry


def two_vertices() -> _Builder:
    b = _Builder()
    b.add(0, "v0", {})
    b.add(0, "v1", {})
    return b


def test_boundary_cell_one_degree_off_is_refused():
    b = two_vertices()
    b.add(1, "e", {"v1": 1, "v0": -1})
    with pytest.raises(ShapeMismatch, match="not an added cell of degree 1"):
        b.add(2, "f", {"e": 1, "v0": 1})


def test_boundary_cell_not_yet_added_is_refused():
    b = two_vertices()
    with pytest.raises(ShapeMismatch, match="boundary cell v2 of e "):
        b.add(1, "e", {"v2": 1, "v0": -1})


def test_duplicate_cell_is_refused():
    b = two_vertices()
    with pytest.raises(ShapeMismatch, match="duplicate cell v1"):
        b.add(0, "v1", {})


def test_cell_without_involution_image_is_refused():
    b = two_vertices()
    b.fix("v0")
    with pytest.raises(MalformedOrbitMap, match="no involution image for v1"):
        b.finish()


def test_one_declared_free_orbit_is_one_quotient_cell():
    # the reflection of a circle: two fixed vertices and two edges
    # swapped with sign -1, declared by one call
    b = two_vertices()
    b.add(1, "up", {"v1": 1, "v0": -1})
    b.add(1, "dn", {"v0": 1, "v1": -1})
    b.fix("v0")
    b.fix("v1")
    b.swap("dn", "up", -1)
    data = b.finish()
    assert data.cells_M == (2, 2) and data.cells_Q == (2, 1)
    assert data.delta_M[0].entries == (((0, -1), (1, 1)), ((0, 1), (1, -1)))
    assert data.orbit == (OrbitEntry(0, 0, 0, True, 1),
                          OrbitEntry(0, 1, 1, True, 1),
                          OrbitEntry(1, 0, 0, False, -1),
                          OrbitEntry(1, 1, 0, False, -1))
    # iota* names the other cell of the orbit from each side
    assert data.iota[1].entries == (((1, -1),), ((0, -1),))
