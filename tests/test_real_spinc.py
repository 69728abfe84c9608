"""Tests for real-structure existence/enumeration and branched covers."""

from __future__ import annotations

import itertools
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmrkit import f2lin, real_spinc
from hmrkit.cw_fixtures import FIXTURE_BUILDERS, build_fixture, lens_space
from hmrkit.errors import (
    MalformedOrbitMap,
    NotChainMap,
    NotCoprime,
    ShapeMismatch,
)
from hmrkit.f2lin import IntMatrix, cokernel_invariants, int_kernel_basis
from hmrkit.real_spinc import (
    EquivariantCWData,
    OrbitEntry,
    SeifertMatrix,
    admits_real_structure,
    branched_cover_invariants,
    coboundaries,
    cocycles,
    real_spinc_torsor,
    real_structure_classes,
    subquotient_invariants,
    verify_naturality,
    verify_theta_chain_map,
)

# the Smith-form solve is a test oracle, kept beside its lattice-oracle test
from test_f2lin import int_solve_many, oracle_solvable


def complex_of(data, space="M"):
    if space == "M":
        return data.delta_M, data.cells_M
    return data.delta_Q, data.cells_Q


def cohomology_invariants(data, degree, space="M"):
    cx = complex_of(data, space)
    return subquotient_invariants(cocycles(*cx, degree),
                                  coboundaries(*cx, degree))


# ---------------------------------------------------------------------------
# theta on cochains: the tiny hand examples
# ---------------------------------------------------------------------------


def test_theta_point_pair():
    data = build_fixture("point_pair")
    t = data.theta[0]
    assert (t.rows, t.cols) == (1, 2)
    assert sorted(t.data[0]) == [1, 1]


def test_theta_fixed_point_doubles():
    data = EquivariantCWData(
        cells_M=(1,), cells_Q=(1,), delta_M=(),
        orbit=(OrbitEntry(0, 0, 0, True, 1),),
    )
    t = data.theta[0]
    assert t.data == ((2,),)


def test_theta_circle_antipodal_rows_sum_preimages():
    data = build_fixture("circle_antipodal")
    for deg in (0, 1):
        t = data.theta[deg]
        assert t.rows == 1 and t.cols == 2
        assert sorted(abs(x) for x in t.data[0]) == [1, 1]
        assert verify_theta_chain_map(data, deg)


# ---------------------------------------------------------------------------
# structural identities across all fixtures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_chain_map_and_naturality(name):
    data = build_fixture(name)
    for deg in range(data.dim + 1):
        assert verify_theta_chain_map(data, deg)
        assert verify_naturality(data, deg)


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_json_roundtrip(name):
    data = build_fixture(name)
    again = EquivariantCWData.from_json(data.to_json())
    assert again.cells_M == data.cells_M
    assert again.orbit == data.orbit
    assert all(a.data == b.data for a, b in zip(again.delta_M, data.delta_M))


def test_fixture_homology_sanity():
    # the quotients of the lens fixtures are three-spheres
    for name in ("s3_conjugation", "lens_3_1", "lens_5_1", "lens_7_1"):
        data = build_fixture(name)
        assert cohomology_invariants(data, 1, "Q") == []
        assert cohomology_invariants(data, 2, "Q") == []
        assert cohomology_invariants(data, 3, "Q") == [0]
    assert cohomology_invariants(build_fixture("lens_5_2"), 2) == [5]
    assert cohomology_invariants(build_fixture("torus_hyperelliptic"), 1) \
        == [0, 0]


# ---------------------------------------------------------------------------
# theta on cohomology
# ---------------------------------------------------------------------------


def test_theta_zero_when_target_vanishes():
    data = build_fixture("lens_3_1")
    # target H^2(S^3) = 0, so the induced map has trivial image and its
    # kernel is all of H^2(L(3,1)) = Z/3
    assert cohomology_invariants(data, 2, "Q") == []
    assert real_spinc_torsor(data).kernel_invariants == \
        tuple(cohomology_invariants(data, 2)) == (3,)


def test_theta_torus_degree1_matches_hand_computation():
    # H^1(T^2) = Z^2 maps to H^1(pillowcase S^2) = 0: the zero map
    data = build_fixture("torus_hyperelliptic")
    assert cohomology_invariants(data, 1) == [0, 0]
    assert cohomology_invariants(data, 1, "Q") == []


def test_theta_torus_brute_force_small_cochains():
    # oracle: enumerate integer 1-cochains with entries in {-1,0,1} and
    # check the chain-map identity value by value
    data = build_fixture("torus_hyperelliptic")
    t1 = data.theta[1]
    t2 = data.theta[2]
    dm, dq = data.delta_M[1], data.delta_Q[1]
    for beta in itertools.islice(
            itertools.product((-1, 0, 1), repeat=data.cells_M[1]), 300):
        lhs = dq.mul_vec(t1.mul_vec(list(beta)))
        rhs = t2.mul_vec(dm.mul_vec(list(beta)))
        assert lhs == rhs


def test_not_chain_map_detected():
    body = build_fixture("circle_antipodal").to_json()
    body["delta_Q"][0]["data"] = [[1]]
    with pytest.raises(NotChainMap, match="degree 0"):
        EquivariantCWData.from_json(body)


def test_census_rejects_theta_not_chain_map():
    # negating delta_Q[1] keeps d.d = 0, but Theta no longer commutes
    # with the coboundaries C^1 -> C^2, so the data does not construct
    body = lens_space(3, 1).to_json()
    body["delta_Q"][1]["data"] = [[-x for x in row]
                                  for row in body["delta_Q"][1]["data"]]
    with pytest.raises(NotChainMap, match="degree 1"):
        EquivariantCWData.from_json(body)


def test_malformed_orbit_rejected():
    with pytest.raises(MalformedOrbitMap):
        EquivariantCWData(
            cells_M=(2,), cells_Q=(1,), delta_M=(),
            orbit=(OrbitEntry(0, 0, 0, True, 1),
                   OrbitEntry(0, 1, 0, False, 1)),
        )


def test_missing_coboundary_rejected():
    data = build_fixture("circle_antipodal")
    with pytest.raises(ShapeMismatch, match="dimension 1"):
        EquivariantCWData(cells_M=data.cells_M, cells_Q=data.cells_Q,
                          delta_M=(), orbit=data.orbit)


# ---------------------------------------------------------------------------
# existence and censuses
# ---------------------------------------------------------------------------


def test_admits_trivial_c1():
    data = build_fixture("lens_3_1")
    assert admits_real_structure(data, [0] * data.cells_M[2])


def test_lens_torsion_c1_always_admits():
    for name in ("lens_3_1", "lens_5_2", "lens_7_1"):
        data = build_fixture(name)
        for v in int_kernel_basis(data.delta_M[2]):
            assert admits_real_structure(data, v)


def test_s1xs2_rotation_only_trivial_admits():
    data = build_fixture("s1_x_s2_rotation")
    assert cohomology_invariants(data, 2) == [0]
    z2 = cocycles(*complex_of(data), 2)
    admitted = [admits_real_structure(data, z2.column(j))
                for j in range(z2.cols)]
    # some generator cocycles represent the nontrivial class and fail
    assert not all(admitted)
    assert admits_real_structure(data, [0] * data.cells_M[2])


@pytest.mark.parametrize("name", [n for n in sorted(FIXTURE_BUILDERS)
                                  if build_fixture(n).dim >= 2])
def test_admits_real_structure_against_lattice_oracle(name):
    # Theta(c1) must lie in the column lattice of delta_Q[1]; Euclid on
    # the columns decides that without a Smith form
    data = build_fixture(name)
    z2 = cocycles(*complex_of(data), 2)
    grid = [list(row) for row in data.delta_Q[1].data]
    for c1 in [z2.column(j) for j in range(z2.cols)] + \
            [[sum(x) for x in zip(*(z2.column(j) for j in range(z2.cols)))]]:
        image = data.theta[2].mul_vec(c1)
        assert admits_real_structure(data, c1) == \
            oracle_solvable(grid, image, data.cells_Q[1])


def test_real_structure_classes():
    assert real_structure_classes(build_fixture("s3_conjugation")) == []
    assert real_structure_classes(build_fixture("lens_5_1")) == []
    assert real_structure_classes(build_fixture("s1_x_s2_rotation")) == [2]
    assert real_structure_classes(build_fixture("circle_antipodal")) == []
    assert real_structure_classes(build_fixture("circle_reflection")) == []


def test_real_structure_classes_need_one_cells():
    with pytest.raises(ShapeMismatch, match="dimension 0"):
        real_structure_classes(build_fixture("point_pair"))


@pytest.mark.parametrize("p,name", [(3, "lens_3_1"), (5, "lens_5_1"),
                                    (5, "lens_5_2"), (7, "lens_7_1"),
                                    (7, "lens_7_2")])
def test_lens_census_size(p, name):
    census = real_spinc_torsor(build_fixture(name))
    assert census.size() == p
    assert census.kernel_invariants == (p,)
    assert census.h1_invariants == ()


def test_spinc_report_reduces_each_matrix_once(monkeypatch):
    # Z^1(M) serves the torsor and the classes: one Smith form per distinct
    # matrix in a report
    seen = []
    snf = f2lin.smith_normal_form

    def counted(m):
        seen.append(m.data)
        return snf(m)

    for module in (f2lin, real_spinc):
        monkeypatch.setattr(module, "smith_normal_form", counted)
    data = build_fixture("lens_7_2")
    real_spinc_torsor(data)
    real_structure_classes(data)
    assert seen and len(seen) == len(set(seen))


def test_s3_census_trivial():
    assert real_spinc_torsor(build_fixture("s3_conjugation")).size() == 1


def test_s1xs2_rotation_census():
    census = real_spinc_torsor(build_fixture("s1_x_s2_rotation"))
    assert census.size() == 2
    assert census.h1_invariants == (2,)


def test_unlink_cover_census_infinite():
    census = real_spinc_torsor(build_fixture("s1_x_s2_unlink_cover"))
    assert census.size() == 0  # infinite: one free factor
    assert census.kernel_invariants == (0,)


def test_census_invariant_under_subdivision():
    coarse = build_fixture("torus_hyperelliptic")
    fine = build_fixture("torus_hyperelliptic_fine")
    assert real_structure_classes(coarse) == real_structure_classes(fine)
    for space in ("M", "Q"):
        assert cohomology_invariants(coarse, 1, space) == \
            cohomology_invariants(fine, 1, space)


def relabel(data: EquivariantCWData, rng: random.Random
            ) -> EquivariantCWData:
    """The same involutive space with renumbered and reoriented cells.

    Each degree gets random permutations of the cells of M and of Q, each
    cell of M a random orientation, and the orbit list is shuffled.  A
    quotient cell is reoriented so that the projection keeps the factor
    +1 on the new representative of its orbit (the lower new index), and
    the constructor's delta_Q must be the old one moved likewise.
    """
    pre: dict = {}
    for e in data.orbit:
        pre.setdefault((e.degree, e.image), []).append(e.index)
    perm_m = [rng.sample(range(n), n) for n in data.cells_M]
    perm_q = [rng.sample(range(n), n) for n in data.cells_Q]
    eps_m = [[rng.choice((1, -1)) for _ in range(n)] for n in data.cells_M]
    eps_q = [[0] * n for n in data.cells_Q]
    orbit = []
    for e in data.orbit:
        d, i = e.degree, e.index
        p = next((j for j in pre[(d, e.image)] if j != i), i)
        old_sigma = 1 if i <= p else e.sign
        if perm_m[d][i] <= perm_m[d][p]:
            eps_q[d][e.image] = eps_m[d][i] * old_sigma
        orbit.append(OrbitEntry(d, perm_m[d][i], perm_q[d][e.image], e.fixed,
                                e.sign * eps_m[d][i] * eps_m[d][p]))
    rng.shuffle(orbit)

    def move(m, n, perm, eps):
        grid = [[0] * m.cols for _ in range(m.rows)]
        for r in range(m.rows):
            for c in range(m.cols):
                grid[perm[n + 1][r]][perm[n][c]] = \
                    eps[n + 1][r] * eps[n][c] * m[r, c]
        return IntMatrix(m.rows, m.cols, tuple(map(tuple, grid)))

    moved = EquivariantCWData(
        cells_M=data.cells_M, cells_Q=data.cells_Q,
        delta_M=[move(m, n, perm_m, eps_m) for n, m in enumerate(data.delta_M)],
        orbit=orbit)
    assert [m.data for m in moved.delta_Q] == \
        [move(m, n, perm_q, eps_q).data for n, m in enumerate(data.delta_Q)]
    return moved


@pytest.mark.parametrize("name", ["lens_5_2", "torus_hyperelliptic_fine",
                                  "s1_x_s2_rotation"])
def test_census_invariant_under_relabelling(name):
    data = build_fixture(name)
    census = real_spinc_torsor(data)
    classes = real_structure_classes(data)
    for seed in range(3):
        moved = relabel(data, random.Random(seed))
        assert moved.orbit != data.orbit
        assert all(verify_theta_chain_map(moved, d) and
                   verify_naturality(moved, d) for d in range(moved.dim + 1))
        other = real_spinc_torsor(moved)
        assert other.size() == census.size()
        assert other.torsor_invariants == census.torsor_invariants
        assert (other.kernel_invariants, other.h1_invariants) == \
            (census.kernel_invariants, census.h1_invariants)
        assert real_structure_classes(moved) == classes
        assert_matches_presented_census(moved)


def assert_projection_identities(data: EquivariantCWData):
    """Theta pi* = 2 on C^n(Q), and 2 delta_Q = Theta delta_M pi*: the
    matrices the constructor builds agree on every quotient cell."""
    for n in range(data.dim + 1):
        two = IntMatrix.identity(data.cells_Q[n]).scale(2)
        assert (data.theta[n] @ data.pullback[n]).data == two.data
    for n, (dm, dq) in enumerate(zip(data.delta_M, data.delta_Q)):
        assert (data.theta[n + 1] @ dm @ data.pullback[n]).data == \
            dq.scale(2).data


ODD_LENS_SPACES = [(p, q) for p in range(1, 22, 2) for q in range(p)
                   if gcd(p, q) == 1]


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_projection_identities_on_fixtures(name):
    data = build_fixture(name)
    assert_projection_identities(data)
    for seed in range(3):
        assert_projection_identities(relabel(data, random.Random(seed)))


@pytest.mark.parametrize("p,q", ODD_LENS_SPACES)
def test_projection_identities_on_lens_spaces(p, q):
    data = lens_space(p, q)
    assert_projection_identities(data)
    assert_projection_identities(relabel(data, random.Random(p * q)))


# ---------------------------------------------------------------------------
# the census against presented cohomology groups
# ---------------------------------------------------------------------------


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return IntMatrix.from_columns(
        a.rows, [a.column(j) for j in range(a.cols)]
        + [b.column(j) for j in range(b.cols)])


def presented(cx, degree):
    """(cocycle generators, coboundaries in their coordinates)."""
    z = cocycles(*cx, degree)
    rels = int_solve_many(z, coboundaries(*cx, degree))
    assert rels is not None
    return z, rels


def induced(t: IntMatrix, src, tgt) -> IntMatrix:
    """The map t induces between presentations, in generator coordinates."""
    coords = int_solve_many(tgt[0], t @ src[0])
    assert coords is not None
    return coords


def kernel_lattice(m: IntMatrix, src, tgt) -> IntMatrix:
    """Source coordinates of the classes that m maps to zero."""
    kern = int_kernel_basis(hstack(m, tgt[1]))
    return hstack(IntMatrix.from_columns(m.cols, [v[:m.cols] for v in kern]),
                  src[1])


def presented_classes(data) -> list:
    """H^1(Q) / Im Theta as the cokernel of Theta and the relations."""
    h1m = presented(complex_of(data), 1)
    h1q = presented(complex_of(data, "Q"), 1)
    theta = induced(data.theta[1], h1m, h1q)
    return cokernel_invariants(hstack(h1q[1], theta))


def presented_torsor(data) -> tuple:
    """(ker Theta on H^2, H^1(M)^inv / Im(1 + iota*)) in generator
    coordinates of presented groups, written there by int_solve_many."""
    h2m = presented(complex_of(data), 2)
    h2q = presented(complex_of(data, "Q"), 2)
    theta = induced(data.theta[2], h2m, h2q)
    kernel = subquotient_invariants(kernel_lattice(theta, h2m, h2q), h2m[1])
    h1 = presented(complex_of(data), 1)
    iota = induced(data.iota[1], h1, h1)
    one = IntMatrix.identity(iota.cols)
    invariant = kernel_lattice(iota + one.scale(-1), h1, h1)
    h1_inv = subquotient_invariants(invariant, hstack(iota + one, h1[1]))
    return tuple(kernel), tuple(h1_inv)


def assert_matches_presented_census(data):
    if data.dim >= 1:
        assert real_structure_classes(data) == presented_classes(data)
    if data.dim >= 2:
        census = real_spinc_torsor(data)
        assert (census.kernel_invariants, census.h1_invariants) == \
            presented_torsor(data)


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_census_matches_presented_groups_on_fixtures(name):
    assert_matches_presented_census(build_fixture(name))


@pytest.mark.parametrize("p", range(1, 16, 2))
def test_census_matches_presented_groups_on_lens_spaces(p):
    for q in range(p):
        if gcd(p, q) == 1:
            assert_matches_presented_census(lens_space(p, q))


def unitriangular(a: int, b: int, upper: list, lower: list) -> IntMatrix:
    """[[1, upper], [lower, 1]] on Z^(a + b); one of the blocks is zero."""
    rows = [[int(i == j) for j in range(a + b)] for i in range(a + b)]
    for i, j in itertools.product(range(a), range(b)):
        rows[i][a + j] = upper[i][j] if upper else 0
        rows[a + j][i] = lower[j][i] if lower else 0
    return IntMatrix(a + b, a + b, tuple(map(tuple, rows)))


@st.composite
def cochain_complexes(draw):
    """C^0 -> C^1 -> C^2 with delta_0 = T [X; 0] and delta_1 = [0 | Y] T^-1,
    so that delta_1 delta_0 = 0 holds as a product.  T = P L U with P a
    permutation and L, U unitriangular, so T^-1 = U' L' P^t with the
    off-diagonal blocks negated."""
    n0, a, b, n2 = (draw(st.integers(0, 4)) for _ in range(4))
    n1 = a + b
    x = draw(grid(a, n0, CENSUS_ENTRIES))
    y = draw(grid(n2, b, CENSUS_ENTRIES))
    e = draw(grid(a, b, CENSUS_ENTRIES))
    f = draw(grid(b, a, CENSUS_ENTRIES))
    perm = draw(st.permutations(range(n1)))
    p = IntMatrix(n1, n1, tuple(tuple(int(perm[i] == j) for j in range(n1))
                                for i in range(n1)))
    t = p @ unitriangular(a, b, None, f) @ unitriangular(a, b, e, None)
    t_inv = (unitriangular(a, b, [[-v for v in r] for r in e], None)
             @ unitriangular(a, b, None, [[-v for v in r] for r in f])
             @ p.transpose())
    assert (t @ t_inv).data == IntMatrix.identity(n1).data
    d0 = t @ IntMatrix(n1, n0, tuple(map(tuple, x + [[0] * n0] * b)))
    d1 = IntMatrix(n2, n1, tuple(tuple([0] * a + r) for r in y)) @ t_inv
    assert (d1 @ d0).is_zero()
    return (d0, d1), (n0, n1, n2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cochain_complexes())
def test_cohomology_subquotient_matches_presentation(cx):
    for degree in range(3):
        z, rels = presented(cx, degree)
        assert subquotient_invariants(z, coboundaries(*cx, degree)) == \
            cokernel_invariants(rels)


# ---------------------------------------------------------------------------
# subquotients against a Euclid column reduction
# ---------------------------------------------------------------------------


def column_span_basis(a: IntMatrix) -> IntMatrix:
    """A lattice basis of the integer column span of ``a``.

    Column-style Hermite reduction: Euclidean column operations only, so
    the span is preserved exactly; the surviving nonzero columns are
    independent and form a basis of the spanned lattice.
    """
    cols = [list(a.column(j)) for j in range(a.cols)]
    basis = []
    row = 0
    while row < a.rows and cols:
        cols = [c for c in cols if any(c[row:])]
        if not cols:
            break
        # Euclid on the entries of the current row across columns
        while True:
            nz = [j for j, c in enumerate(cols) if c[row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(cols[j][row]))
            piv = nz[0]
            for j in nz[1:]:
                q = cols[j][row] // cols[piv][row]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[piv])]
        nz = [j for j, c in enumerate(cols) if c[row] != 0]
        if nz:
            basis.append(cols.pop(nz[0]))
        row += 1
    basis.extend(c for c in cols if any(c))
    return IntMatrix.from_columns(a.rows, basis)


def oracle_subquotient(gens: IntMatrix, rels: IntMatrix) -> list:
    """Cokernel of the coordinates of rels in a Euclid basis of gens."""
    basis = column_span_basis(gens)
    if basis.cols == 0:
        return []
    coords = int_solve_many(basis, rels)
    assert coords is not None, "relations outside the generator span"
    return cokernel_invariants(coords)


CENSUS_ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2, -2))


def grid(rows, cols, entries):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def spans_with_relations(draw):
    """gens (g x k) and rels = gens . c (g x m), every dimension 0..6."""
    g, k, m = (draw(st.integers(0, 6)) for _ in range(3))
    gens = draw(grid(g, k, CENSUS_ENTRIES))
    c = draw(grid(k, m, CENSUS_ENTRIES))
    rels = [[sum(gens[i][t] * c[t][j] for t in range(k)) for j in range(m)]
            for i in range(g)]
    return (IntMatrix(g, k, tuple(map(tuple, gens))),
            IntMatrix(g, m, tuple(map(tuple, rels))))


# The smallest-pivot Smith form can grow without bound on dense inputs, so
# this draws census-like entries from a fixed sequence.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(spans_with_relations())
@example((IntMatrix.zero(3, 0), IntMatrix.zero(3, 0)))      # 0-column gens
@example((IntMatrix.zero(3, 0), IntMatrix.zero(3, 2)))      # zero relations
@example((IntMatrix.from_rows([[2, 0], [0, 3]]), IntMatrix.zero(2, 0)))
@example((IntMatrix.from_rows([[2, 4], [0, 0]]),            # Z / 3Z
          IntMatrix.from_rows([[6], [0]])))
def test_subquotient_matches_euclid_basis_oracle(case):
    gens, rels = case
    assert subquotient_invariants(gens, rels) == oracle_subquotient(gens, rels)


@pytest.mark.parametrize("rels", [[[1], [0]], [[0], [1]], [[3], [2]]])
def test_subquotient_rejects_relations_outside_span(rels):
    gens = IntMatrix.from_rows([[2], [0]])
    with pytest.raises(ShapeMismatch):
        subquotient_invariants(gens, IntMatrix.from_rows(rels))


def test_lens_space_rejects_bad_parameters():
    with pytest.raises(NotCoprime):
        lens_space(4, 1)
    with pytest.raises(NotCoprime):
        lens_space(9, 3)


# ---------------------------------------------------------------------------
# branched covers from Seifert matrices
# ---------------------------------------------------------------------------


def oracle_alexander_at_minus_one(a: IntMatrix) -> int:
    """|det(A + A^t)| via Fraction Gaussian elimination (independent)."""
    n = a.rows
    if n == 0:
        return 1
    sym = [[Fraction(a[i, j] + a[j, i]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if sym[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            sym[k], sym[piv] = sym[piv], sym[k]
            det = -det
        det *= sym[k][k]
        for i in range(k + 1, n):
            f = sym[i][k] / sym[k][k]
            sym[i] = [x - f * y for x, y in zip(sym[i], sym[k])]
    assert det.denominator == 1
    return abs(int(det))


CASES = {
    "unknot": (IntMatrix.zero(0, 0), 1, 0),
    "trefoil": (IntMatrix.from_rows([[-1, 1], [0, -1]]), 3, 0),
    "figure_eight": (IntMatrix.from_rows([[1, -1], [0, -1]]), 5, 0),
    "split_unlink": (IntMatrix.from_rows([[0]]), 0, 1),
}


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_branched_cover_random_9x9_is_fast():
    # the smallest-pivot Smith form once behind int_rank gave no answer
    # on this matrix in 60 s
    a = IntMatrix.from_rows(
        np.random.RandomState(1).randint(-2, 3, size=(9, 9)).tolist())
    # block sum with a zero (an unknot component), then a congruence by
    # a unimodular p: the cover gains b_1 = 1 and H_1 becomes infinite
    grid = [list(r) + [0] for r in a.data] + [[0] * 10]
    p = IntMatrix.from_rows([[1 if i == j else (i + j) % 3 if i < j else 0
                              for j in range(10)] for i in range(10)])
    singular = p.transpose() @ IntMatrix.from_rows(grid) @ p
    with time_limit(2.0):
        assert branched_cover_invariants(SeifertMatrix(a)) == \
            (oracle_alexander_at_minus_one(a), 0)
        assert branched_cover_invariants(SeifertMatrix(singular)) == (0, 1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_branched_cover_invariants(name):
    a, order, b1 = CASES[name]
    assert branched_cover_invariants(SeifertMatrix(a)) == (order, b1)
    assert oracle_alexander_at_minus_one(a) == order


def test_branched_cover_congruence_invariance():
    a = CASES["trefoil"][0]
    p = IntMatrix.from_rows([[1, 2], [0, 1]])
    conj = p.transpose() @ a @ p
    assert branched_cover_invariants(SeifertMatrix(conj)) == (3, 0)
