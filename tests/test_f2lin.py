"""Tests for exact F2 / integer linear algebra.

Oracles are written first and kept deliberately naive: a fraction-style
row-reduction for F2 rank, brute-force divisibility checks for Smith normal
form, and direct group-order arithmetic for cokernels.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmrkit.complexes import GradedComplex
from hmrkit.cw_fixtures import build_fixture
from hmrkit.f2lin import (
    F2Matrix,
    IntMatrix,
    _diagonal_solve,
    cokernel_invariants,
    f2_block,
    f2_kernel_basis,
    f2_rank,
    int_det_sign_unimodular,
    int_kernel_basis,
    int_rank,
    smith_normal_form,
)
from hmrkit.errors import ShapeMismatch

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_f2_rank(grid) -> int:
    """Independent naive Gaussian elimination over F2 (no pivot tricks)."""
    a = (np.array(grid, dtype=np.int64) % 2).tolist()
    rank = 0
    rows, cols = len(a), len(a[0]) if a else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r][col] == 1:
                pivot = r
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(rows):
            if r != rank and a[r][col] == 1:
                a[r] = [(x + y) % 2 for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def oracle_f2_product(a, b, inner: int, cols: int) -> list:
    """Naive triple-loop product of two 0/1 grids, reduced mod 2."""
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) % 2
             for j in range(cols)] for i in range(len(a))]


def from_grid(grid, cols=None) -> F2Matrix:
    """An F2Matrix from a grid of integers, read mod 2."""
    cols = len(grid[0]) if cols is None else cols
    return F2Matrix.from_entries(len(grid), cols, (
        (r, c) for r, row in enumerate(grid)
        for c, x in enumerate(row) if x % 2))


def to_grid(m: F2Matrix) -> list:
    assert len(m.masks) == m.rows
    assert all(0 <= mask < 1 << m.cols for mask in m.masks)
    return [vector(mask, m.cols) for mask in m.masks]


def vector(mask: int, n: int) -> list:
    """The 0/1 entries of a bitmask vector of length n."""
    assert 0 <= mask < 1 << n
    return [mask >> i & 1 for i in range(n)]


def in_kernel(grid, mask: int, n: int) -> bool:
    v = vector(mask, n)
    return all(sum(x * y for x, y in zip(row, v)) % 2 == 0 for row in grid)


def oracle_snf_check(a: IntMatrix, result) -> None:
    """Assert the structural SNF contract: one nonnegative diagonal entry
    per row or column, whichever are fewer, with divisibility, det V =
    ±1, and A V = U^-1 D, so column j of A V is divisible by d_j and zero
    past the rank."""
    diag = result.diagonal
    assert len(diag) == min(a.rows, a.cols)
    av = a @ result.VT.transpose()
    for j in range(a.cols):
        dj = diag[j] if j < len(diag) else 0
        assert all(row[j] % dj == 0 if dj else row[j] == 0
                   for row in av.data)
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x != 0]
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    assert abs(int_det_sign_unimodular(result.VT)) == 1


# ---------------------------------------------------------------------------
# f2 rank / kernel / product / homology
# ---------------------------------------------------------------------------


def test_rank_zero_matrix():
    assert f2_rank(F2Matrix.zero(3, 3)) == 0


def test_rank_identity():
    assert f2_rank(F2Matrix.identity(4)) == 4


def test_rank_random_against_oracle():
    rng = np.random.default_rng(20260825)
    grid = rng.integers(0, 2, size=(6, 6))
    m = from_grid(grid)
    assert f2_rank(m) == oracle_f2_rank(grid)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_rank_equals_transpose_rank(r, c, seed):
    grid = np.random.default_rng(seed).integers(0, 2, size=(r, c))
    m = from_grid(grid)
    assert f2_rank(m) == f2_rank(m.transpose()) == oracle_f2_rank(grid)


def test_kernel_identity_empty():
    assert f2_kernel_basis(F2Matrix.identity(3)) == []


def test_kernel_zero_full():
    basis = f2_kernel_basis(F2Matrix.zero(2, 3))
    assert len(basis) == 3


def test_kernel_rank2_matrix():
    # rank-2 4x4: rows 2,3 are sums of rows 0,1
    grid = [[1, 0, 1, 0],
            [0, 1, 1, 1],
            [1, 1, 0, 1],
            [1, 0, 1, 0]]
    m = from_grid(grid)
    basis = f2_kernel_basis(m)
    assert len(basis) == 4 - f2_rank(m) == 2
    for v in basis:
        assert in_kernel(grid, v, 4)
    # linear independence: stack and check rank
    assert oracle_f2_rank([vector(v, 4) for v in basis]) == len(basis)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_kernel_properties(r, c, seed):
    grid = np.random.default_rng(seed).integers(0, 2, size=(r, c))
    m = from_grid(grid)
    basis = f2_kernel_basis(m)
    assert len(basis) == c - f2_rank(m)
    for v in basis:
        assert in_kernel(grid.tolist(), v, c)


def grids(rows, cols, entries=st.integers(0, 1)):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def f2_product_pairs(draw):
    """Two multipliable 0/1 grids, any of the three dimensions 0..12."""
    r, k, c = (draw(st.integers(0, 12)) for _ in range(3))
    return r, k, c, draw(grids(r, k)), draw(grids(k, c))


@settings(max_examples=150, deadline=None)
@given(f2_product_pairs())
@example((0, 5, 3, [], [[1, 0, 1]] * 5))        # 0x5 times 5x3
@example((4, 0, 2, [[]] * 4, []))               # 4x0 times 0x2
@example((3, 2, 0, [[1, 0], [0, 1], [1, 1]], [[], []]))  # 2x0 right
def test_bitmask_algebra_against_oracles(case):
    r, k, c, a, b = case
    ma, mb = from_grid(a, k), from_grid(b, c)
    prod = ma @ mb
    assert (prod.rows, prod.cols) == (r, c)
    assert to_grid(prod) == oracle_f2_product(a, b, k, c)
    assert f2_rank(ma) == oracle_f2_rank(a)
    assert f2_rank(mb) == oracle_f2_rank(b)
    basis = f2_kernel_basis(ma)
    assert len(basis) == k - oracle_f2_rank(a)
    assert all(in_kernel(a, v, k) for v in basis)
    assert oracle_f2_rank([vector(v, k) for v in basis]) == len(basis)
    # transpose, sum, blocks of mixed shapes and JSON, on the same grids
    bt = [[row[j] for row in b] for j in range(c)]
    assert to_grid(mb.transpose()) == bt
    shifted = [row[1:] + row[:1] for row in a]
    assert to_grid(ma + from_grid(shifted, k)) == \
        [[(x + y) % 2 for x, y in zip(p, q)] for p, q in zip(a, shifted)]
    btb = oracle_f2_product(bt, b, k, c)
    block = f2_block([[ma, prod], [mb.transpose(), from_grid(btb, c)]])
    grid = [p + q for p, q in zip(a + bt,
                                  oracle_f2_product(a, b, k, c) + btb)]
    assert (block.rows, block.cols) == (r + c, k + c)
    assert to_grid(block) == grid
    assert block.to_json()["ones"] == [[i, j] for i, row in enumerate(grid)
                                       for j, x in enumerate(row) if x]
    assert F2Matrix.from_json(block.to_json()) == block


def two_step_complex(d_in: F2Matrix, d_out: F2Matrix) -> GradedComplex:
    """The complex . -d_in-> . -d_out-> . in gradings 2, 1, 0."""
    z = F2Matrix.zero
    d = f2_block([[z(d_out.rows, d_out.rows), d_out, z(d_out.rows, d_in.cols)],
                  [z(d_in.rows, d_out.rows), z(d_in.rows, d_in.rows), d_in],
                  [z(d_in.cols, d_out.rows), z(d_in.cols, d_in.rows),
                   z(d_in.cols, d_in.cols)]])
    gradings = (0,) * d_out.rows + (1,) * d_in.rows + (2,) * d_in.cols
    return GradedComplex(gradings, d)


def test_homology_zero_maps():
    z3 = F2Matrix.zero(3, 3)
    assert two_step_complex(z3, z3).homology_rank(1) == 3


def test_homology_identity_in():
    cx = two_step_complex(F2Matrix.identity(3), F2Matrix.zero(3, 3))
    assert cx.homology_rank(1) == 0


def test_homology_rp2_cellular():
    # cellular chain complex of RP^2 over F2: one cell per degree 0,1,2;
    # both boundary maps vanish mod 2, so each homology rank is 1
    cx = two_step_complex(F2Matrix.zero(1, 1), F2Matrix.zero(1, 1))
    assert [cx.homology_rank(j) for j in (0, 1, 2)] == [1, 1, 1]


def random_graded_complex(rng: random.Random) -> tuple:
    """(gradings, d as a 0/1 grid) of a random complex with d . d = 0 over
    gradings -1..4, one of them with no generators: cancelling pairs and
    free generators, conjugated by random row additions within a
    grading."""
    empty = {rng.randrange(-1, 5)}
    gradings, pairs = [], []
    for _ in range(rng.randint(1, 16)):
        g = rng.choice([g for g in range(-1, 5) if g not in empty])
        if g - 1 in empty or g - 1 < -1 or rng.random() < 0.3:
            gradings.append(g)
        else:
            pairs.append((len(gradings), len(gradings) + 1))
            gradings += [g, g - 1]
    n = len(gradings)
    d = np.zeros((n, n), dtype=np.int64)
    for top, bottom in pairs:
        d[bottom, top] = 1
    for _ in range(3 * n):  # E d E with E = E^-1 = 1 + e_ba, gr a = gr b
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and gradings[a] == gradings[b]:
            e = np.eye(n, dtype=np.int64)
            e[b, a] = 1
            d = e @ d @ e % 2
    assert not (d @ d % 2).any()
    return tuple(gradings), d


@pytest.mark.parametrize("seed", range(40))
def test_forward_elimination_ranks_against_oracle(seed):
    # the cycles and boundaries of each grading come from one forward
    # elimination, and the LES check extends the stored basis of B_j
    rng = random.Random(seed)
    gradings, d = random_graded_complex(rng)
    cx = GradedComplex(gradings, from_grid(d, len(gradings)))
    gr, n = np.array(gradings), len(gradings)

    def rank(*blocks):
        grid = np.vstack([np.zeros((0, n), dtype=np.int64), *blocks])
        return oracle_f2_rank(grid) if len(grid) else 0

    for j in range(-2, 6):
        image = d[:, gr == j + 1].T  # the boundaries B_j, one a row
        assert cx.homology_rank(j) == \
            np.sum(gr == j) - rank(d[:, gr == j].T) - rank(image)
        vectors = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(3)]
        vectors += [int(sum(int(x) << i for i, x in enumerate(row)))
                    for row in image[:2]]
        grid = np.array([vector(v, n) for v in vectors]).reshape(-1, n)
        assert cx.rank_mod_boundaries(j, vectors) == \
            rank(image, grid) - rank(image)


def test_block_assembly():
    a = F2Matrix.identity(2)
    z = F2Matrix.zero(2, 2)
    m = f2_block([[a, z], [z, a]])
    assert m.rows == m.cols == 4
    assert f2_rank(m) == 4


def test_json_roundtrip_f2():
    m = F2Matrix.from_entries(3, 4, [(0, 1), (2, 3)])
    assert F2Matrix.from_json(m.to_json()) == m


def test_ones_derived_once_per_matrix():
    m = F2Matrix.from_entries(3, 4, [(2, 3), (0, 1), (0, 0)])
    assert m.ones == ((0, 0), (0, 1), (2, 3))
    assert m.ones is m.ones
    # the cached positions take no part in equality or hashing
    other = F2Matrix(3, 4, m.masks)
    assert m == other and hash(m) == hash(other)


# ---------------------------------------------------------------------------
# Smith normal form / cokernels
# ---------------------------------------------------------------------------


def test_snf_diag_2_3():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    res = smith_normal_form(a)
    oracle_snf_check(a, res)
    assert res.diagonal == (1, 6)


def test_snf_identity():
    a = IntMatrix.identity(4)
    res = smith_normal_form(a)
    oracle_snf_check(a, res)
    assert res.diagonal == (1, 1, 1, 1)


def test_snf_2468():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    res = smith_normal_form(a)
    oracle_snf_check(a, res)
    assert res.diagonal == (2, 4)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_snf_contract_random(r, c, seed):
    grid = np.random.default_rng(seed).integers(-9, 10, size=(r, c))
    a = IntMatrix.from_rows(grid.tolist())
    oracle_snf_check(a, smith_normal_form(a))


def test_cokernel_zero_1x1():
    assert cokernel_invariants(IntMatrix.zero(1, 1)) == [0]


def test_cokernel_single_p():
    assert cokernel_invariants(IntMatrix.from_rows([[5]])) == [5]


def test_cokernel_diag_2_4():
    a = IntMatrix.from_rows([[2, 0], [0, 4]])
    assert cokernel_invariants(a) == [2, 4]


def test_cokernel_unimodular_invariance():
    a = IntMatrix.from_rows([[2, 0], [0, 4]])
    u = IntMatrix.from_rows([[1, 1], [0, 1]])
    v = IntMatrix.from_rows([[1, 0], [3, 1]])
    assert cokernel_invariants(u @ a @ v) == cokernel_invariants(a)


def test_int_kernel_basis():
    # x + y + z = 0 over Z: kernel is rank 2
    a = IntMatrix.from_rows([[1, 1, 1]])
    basis = int_kernel_basis(a).data
    assert len(basis) == 2
    for v in basis:
        assert a.mul_vec(v) == [0]


def test_int_solve_solvable():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    x = int_solve(a, [4, 9])
    assert x is not None and a.mul_vec(x) == [4, 9]


def test_int_solve_unsolvable():
    a = IntMatrix.from_rows([[2]])
    assert int_solve(a, [3]) is None



# ---------------------------------------------------------------------------
# integer products, solves, Smith form and rank against naive oracles
# ---------------------------------------------------------------------------

#: entries of the census matrices: coboundaries, Theta and the involution
#: have entries in -2..2, mostly zero
CENSUS_ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2, -2))


def int_matrix(grid, cols: int) -> IntMatrix:
    return IntMatrix.from_grid(len(grid), cols, grid)


def naive_int_product(a, b, inner: int, cols: int) -> list:
    """Triple loop over every index triple, zeros included."""
    return [[sum(a[i][k] * b[k][j] for k in range(inner))
             for j in range(cols)] for i in range(len(a))]


def oracle_solvable(a, b, cols: int) -> bool:
    """Whether b is an integer combination of the columns of the grid a.

    Independent of Smith form: Euclid leaves one column with a nonzero
    entry at each coordinate in turn, and b is reduced against it.
    """
    vecs = [[row[j] for row in a] for j in range(cols)]
    b = list(b)
    for i in range(len(b)):
        while True:
            live = sorted((v for v in vecs if v[i]), key=lambda v: abs(v[i]))
            if len(live) <= 1:
                break
            p = live[0]
            vecs = [v if v is p or not v[i] else
                    [x - v[i] // p[i] * y for x, y in zip(v, p)]
                    for v in vecs]
        pivot = next((v for v in vecs if v[i]), None)
        if pivot is None:
            if b[i]:
                return False
            continue
        if b[i] % pivot[i]:
            return False
        q = b[i] // pivot[i]
        b = [x - q * y for x, y in zip(b, pivot)]
        vecs = [v for v in vecs if v is not pivot]
    return True


def int_solve_many(a: IntMatrix, rhs: IntMatrix):
    """Integer solutions X of a X = rhs, or None if a column has none.

    With U a V = D from the oracle Smith form, X = V Y where D Y = U rhs:
    row i of U rhs divided by d_i, and zero past the rank.  The census
    asks only whether Y exists; the tests also read X, as coordinates in
    a presented group.
    """
    assert rhs.rows == a.rows
    snf = oracle_smith_normal_form(a)
    diag = snf.diagonal()
    y = []
    for i, row in enumerate((snf.U @ rhs).data):
        di = diag[i] if i < len(diag) else 0
        if any(x % di for x in row) if di else any(row):
            return None
        y.append(tuple(x // di for x in row) if di else row)
    y = tuple(y[:a.cols]) + ((0,) * rhs.cols,) * (a.cols - a.rows)
    return snf.V @ IntMatrix.from_grid(a.cols, rhs.cols, y)


def from_columns(rows: int, columns) -> IntMatrix:
    """The matrix whose columns are ``columns``, each of length ``rows``."""
    return IntMatrix.from_grid(len(columns), rows, columns).transpose()


def int_solve(a: IntMatrix, b):
    """One integer solution x of a x = b, or None when unsolvable over Z."""
    x = int_solve_many(a, from_columns(len(b), [b]))
    return None if x is None else [row[0] for row in x.data]


# The dense smallest-pivot Smith form with all three transforms, kept
# verbatim as the reference: the library routine runs the same pivot
# rule, tie order and divisibility fix-up, and must return the same D and
# V.  It keeps its own U, which the library does not build, in its own
# record.  sympy's invariant factors check the diagonal independently.


@dataclass(frozen=True)
class OracleSNF:
    """U A V = D with unimodular U and V."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple:
        d = self.D.data
        return tuple(d[i][i] for i in range(min(self.D.rows, self.D.cols)))


def oracle_diagonal_and_vt(a: IntMatrix) -> tuple:
    """The diagonal of the oracle's D and the transpose of its V, after
    checking that its D is zero off the diagonal."""
    old = oracle_smith_normal_form(a)
    assert all(x == 0 for i, row in enumerate(old.D.data)
               for j, x in enumerate(row) if i != j)
    return old.diagonal(), old.V.transpose()


def _smallest_entry(d: list, t: int):
    """Position of the smallest |nonzero| in the block d[t:][t:], or None.

    Ties go to the first in row-major order.  The scan stops at the first
    unit, since no later entry can be smaller.
    """
    best, pivot = 0, None
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            x = abs(row[j])
            if x and (not best or x < best):
                if x == 1:
                    return (i, j)
                best, pivot = x, (i, j)
    return pivot


def _indivisible_row(d: list, t: int):
    """First row below t whose trailing entries the pivot d[t][t] does not
    all divide, or None; a unit pivot divides everything."""
    p = d[t][t]
    if abs(p) == 1:
        return None
    return next((i for i in range(t + 1, len(d))
                 if any(x % p for x in d[i][t + 1:])), None)


def oracle_smith_normal_form(a: IntMatrix) -> OracleSNF:
    """Smith normal form over Z with transform tracking.

    The pivot at each stage is the nonzero entry of smallest absolute
    value (ties broken by lowest row, then column index), which keeps the
    reduction deterministic across runs.  Diagonal entries are normalized
    nonnegative with d_i | d_{i+1}.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):  # row[dst] += k * row[src]
        for rows in (d, u):
            row = rows[dst]
            for j, x in enumerate(rows[src]):
                if x:
                    row[j] += k * x

    def add_col(src, dst, k):  # col[dst] += k * col[src]
        for row in d:
            if row[src]:
                row[dst] += k * row[src]
        for row in v:
            if row[src]:
                row[dst] += k * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        pivot = _smallest_entry(d, t)
        if pivot is None:
            break
        pi, pj = pivot
        swap_rows(t, pi)
        swap_cols(t, pj)
        # clear the pivot row and column; restart whenever a remainder
        # appears since it may be a smaller pivot
        while True:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # force divisibility of the trailing block by the pivot
        i = _indivisible_row(d, t)
        if i is not None:
            add_row(i, t, 1)
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    return OracleSNF(IntMatrix.from_grid(m, m, u),
                     IntMatrix.from_grid(m, n, d),
                     IntMatrix.from_grid(n, n, v))


def sympy_invariant_factors(a: IntMatrix) -> tuple:
    """The invariant factors of ``a``, one per row or column, whichever
    are fewer, by sympy: an oracle that shares no code with the
    elimination above.  Skips the test when sympy is absent."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    grid = sympy.Matrix(a.rows, a.cols, [x for row in a.data for x in row])
    return tuple(map(int, invariant_factors(grid, domain=sympy.ZZ)))


def oracle_rank_det(grid, cols: int) -> tuple:
    """(rank, determinant if square) by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in grid]
    rank, det = 0, Fraction(1)
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det *= m[rank][c]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    assert det.denominator == 1
    return rank, (int(det) if rank == len(m) == cols else 0)


@st.composite
def int_products(draw):
    """Two multipliable integer grids and a vector; dimensions 0..8."""
    r, k, c = (draw(st.integers(0, 8)) for _ in range(3))
    entries = st.one_of(st.just(0), st.integers(-9, 9))
    return (r, k, c, draw(grids(r, k, entries)), draw(grids(k, c, entries)),
            draw(st.lists(entries, min_size=k, max_size=k)))


@settings(max_examples=150, deadline=None)
@given(int_products())
@example((0, 5, 3, [], [[1, 0, -2]] * 5, [1] * 5))      # 0x5 times 5x3
@example((4, 0, 2, [[]] * 4, [], []))                   # 4x0 times 0x2
@example((3, 2, 0, [[1, 0], [0, -1], [2, 1]], [[], []], [3, 4]))
def test_int_products_against_naive_loop(case):
    r, k, c, a, b, v = case
    prod = int_matrix(a, k) @ int_matrix(b, c)
    assert (prod.rows, prod.cols) == (r, c)
    assert [list(row) for row in prod.data] == naive_int_product(a, b, k, c)
    assert int_matrix(a, k).mul_vec(v) == \
        [row[0] for row in naive_int_product(a, [[x] for x in v], k, 1)]


#: mostly zero, so that zero rows and columns are common at every shape
SPARSE_ENTRIES = st.sampled_from((0, 0, 0, 0, -3, -2, -1, 1, 2, 3))


@st.composite
def sparse_cases(draw):
    """Grids a and b (r x k) and c (k x n), a vector of length k and a
    scalar, every dimension 0..12, entries in -3..3."""
    r, k, n = (draw(st.integers(0, 12)) for _ in range(3))
    return (r, k, n, draw(grids(r, k, SPARSE_ENTRIES)),
            draw(grids(r, k, SPARSE_ENTRIES)),
            draw(grids(k, n, SPARSE_ENTRIES)),
            draw(st.lists(SPARSE_ENTRIES, min_size=k, max_size=k)),
            draw(st.integers(-3, 3)))


def is_canonical(m: IntMatrix) -> bool:
    """One tuple of (column, value) pairs per row, columns ascending
    inside the shape, no stored zero."""
    return len(m.entries) == m.rows and all(
        isinstance(row, tuple) and all(x != 0 for _, x in row)
        and [j for j, _ in row] == sorted({j for j, _ in row})
        and all(0 <= j < m.cols for j, _ in row) for row in m.entries)


@settings(max_examples=200, deadline=None)
@given(sparse_cases())
@example((0, 0, 0, [], [], [], [], 2))                        # 0x0
@example((3, 4, 2, [[0] * 4, [1, 0, -1, 0], [0] * 4],          # zero rows
          [[0] * 4, [-1, 0, 1, 0], [0, 0, 0, 3]],              # a + b
          [[2, 0], [0, 0], [2, 0], [0, 0]], [1, 2, 3, 4], 0))  # cancels
@example((2, 0, 3, [[], []], [[], []], [], [], -1))            # 2x0 @ 0x3
@example((0, 3, 1, [], [], [[1], [0], [-2]], [5, 6, 7], 3))    # 0x3
# rows of one entry: a signed permutation times c (a zero row of c
# picked with -1), a + b = 0 entry by entry, and scale(0)
@example((3, 3, 2, [[0, -1, 0], [1, 0, 0], [0, 0, -1]],
          [[0, 1, 0], [-1, 0, 0], [0, 0, 1]],
          [[1, 2], [0, 0], [3, 0]], [1, 2, 3], 0))
# one-entry sums on the same column, on columns in either order, and an
# empty row plus a one-entry row
@example((4, 3, 1, [[0, 1, 0], [0, 0, 2], [3, 0, 0], [0, 0, 0]],
          [[0, 2, 0], [-1, 0, 0], [0, 0, -3], [0, 1, 0]],
          [[1], [0], [-1]], [0, 1, 0], -2))
def test_sparse_rows_match_dense_reference(case):
    # every operation gives the grid the dense reference gives, in the
    # canonical form, so == and hash compare values
    r, k, n, a, b, c, v, s = case
    ma, mb = IntMatrix.from_grid(r, k, a), IntMatrix.from_grid(r, k, b)
    mc = IntMatrix.from_grid(k, n, c)
    columns = [[row[j] for row in a] for j in range(k)]
    results = (
        (ma @ mc, naive_int_product(a, c, k, n)),
        (ma + mb, [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)]),
        (ma.scale(s), [[s * x for x in row] for row in a]),
        (ma.transpose(), columns),
        (from_columns(r, columns), a),
        (IntMatrix.identity(k), [[int(i == j) for j in range(k)]
                                 for i in range(k)]),
        (IntMatrix.zero(r, k), [[0] * k for _ in range(r)]),
    )
    for m, dense in results:
        assert is_canonical(m)
        assert [list(row) for row in m.data] == dense
        same = IntMatrix.from_grid(m.rows, m.cols, dense)
        assert m == same and hash(m) == hash(same)
    assert is_canonical(ma) and ma.data == tuple(map(tuple, a))
    assert ma.mul_vec(v) == [sum(x * y for x, y in zip(row, v))
                             for row in a]
    assert ma.is_zero() == (not any(map(any, a)))
    assert (ma == mb) == (a == b)
    # the dense grid is a hashable tuple of row tuples, and JSON goes
    # through it both ways to the same bytes
    assert isinstance(ma.data, tuple)
    assert all(isinstance(row, tuple) for row in ma.data)
    assert hash(ma.data) == hash(tuple(map(tuple, a)))
    for m in (ma, mc):
        text = json.dumps(m.to_json())
        back = IntMatrix.from_json(json.loads(text))
        assert back == m and json.dumps(back.to_json()) == text


def test_huge_declared_shape_allocates_nothing():
    # an empty grid under a 2**62 x 2**62 shape is refused before anything
    # is sized by the declared shape
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="disagrees with data grid"):
            IntMatrix.from_json({"rows": 2 ** 62, "cols": 2 ** 62,
                                 "data": []})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_row_count_must_match_declared_rows():
    # a directly built matrix whose rows disagree with its shape is refused,
    # rather than zipped or indexed short later
    with pytest.raises(ShapeMismatch, match="row count"):
        IntMatrix(3, 2, (((0, 1),), ()))
    with pytest.raises(ShapeMismatch, match="row count"):
        IntMatrix.from_grid(1, 2, [[1, 0], [0, 1]])


@st.composite
def solve_cases(draw):
    """a (r x c) and rhs (r x k), dimensions 0..8; half the time the
    rhs is a @ X for an integer X, otherwise it is drawn freely."""
    r, c, k = (draw(st.integers(0, 8)) for _ in range(3))
    a = draw(grids(r, c, CENSUS_ENTRIES))
    if draw(st.booleans()):
        x = draw(grids(c, k, st.integers(-3, 3)))
        rhs = naive_int_product(a, x, c, k)
    else:
        rhs = draw(grids(r, k, st.integers(-4, 4)))
    return r, c, k, a, rhs


# The smallest-pivot Smith form can still grow without bound on dense
# inputs (8x8 with entries in -4..4: about a third take over 0.5 s), so
# the tests that run it draw census-like entries from a fixed sequence.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(solve_cases())
@example((0, 3, 2, [], []))                              # 0x3 system
@example((3, 0, 1, [[]] * 3, [[0], [0], [0]]))            # 3x0, solvable
@example((3, 0, 1, [[]] * 3, [[0], [1], [0]]))            # 3x0, unsolvable
@example((2, 2, 1, [[2, 0], [0, 3]], [[4], [3]]))
@example((1, 1, 2, [[2]], [[4, 3]]))                      # second column fails
def test_int_solve_against_lattice_oracle(case):
    r, c, k, a, rhs = case
    ma = int_matrix(a, c)
    columns = [[row[j] for row in rhs] for j in range(k)]
    solvable = [oracle_solvable(a, b, c) for b in columns]
    x = int_solve_many(ma, int_matrix(rhs, k))
    assert (x is not None) == all(solvable)
    if x is not None:
        assert (x.rows, x.cols) == (c, k)
        assert naive_int_product(a, [list(row) for row in x.data], c, k) \
            == rhs
    for b, ok in zip(columns, solvable):
        xb = int_solve(ma, b)
        assert (xb is not None) == ok
        assert xb is None or ma.mul_vec(xb) == b


@st.composite
def census_grids(draw):
    r, c = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    return r, c, draw(grids(r, c, CENSUS_ENTRIES))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(census_grids())
@example((0, 4, []))
@example((3, 0, [[]] * 3))
@example((2, 2, [[2, 4], [6, 8]]))
def test_snf_properties(case):
    r, c, a = case
    res = smith_normal_form(int_matrix(a, c))
    vt = [list(row) for row in res.VT.data]
    v = [list(col) for col in zip(*vt)]
    assert (len(res.diagonal), res.VT.rows, res.VT.cols) == (min(r, c), c, c)
    diag = res.diagonal
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert y == 0 if x == 0 else y % x == 0
    assert abs(oracle_rank_det(vt, c)[1]) == 1
    # A V = U^-1 D: column j of A V is divisible by d_j, zero past the rank
    av = naive_int_product(a, v, c, c)
    for j in range(c):
        dj = diag[j] if j < len(diag) else 0
        assert all(row[j] % dj == 0 if dj else row[j] == 0 for row in av)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(solve_cases())
@example((0, 3, 2, [], []))
@example((3, 0, 1, [[]] * 3, [[0], [1], [0]]))
@example((2, 2, 1, [[2, 4], [6, 8]], [[2], [6]]))
@example((3, 2, 2, [[2, 0], [0, 4], [2, 4]], [[2, 1], [4, 0], [6, 1]]))
def test_row_transform_is_v_of_the_transpose(case):
    # U = V^T of the Smith form of A^T is a row transform of A: unimodular,
    # U A zero past the rank r and row i < r divisible by d_i, and the
    # quotient rows D^-1 U A span Z^r, so U A V' = D for some V'
    r, c, k, a, rhs = case
    ma = int_matrix(a, c)
    snf = smith_normal_form(ma.transpose())
    u = snf.VT
    diag = snf.diagonal
    rank = oracle_rank_det(a, c)[0]
    assert (u.rows, u.cols) == (r, r)
    assert abs(oracle_rank_det([list(row) for row in u.data], r)[1]) == 1
    ua = [list(row) for row in (u @ ma).data]
    assert all(not any(row) for row in ua[rank:])
    assert all(x % diag[i] == 0 for i in range(rank) for x in ua[i])
    quotient = [[x // diag[i] for x in ua[i]] for i in range(rank)]
    for i in range(rank):
        unit = [int(j == i) for j in range(rank)]
        assert oracle_solvable(quotient, unit, c)
    # the solve returns None exactly when a column of rhs lies outside
    # the column lattice of A
    columns = [[row[j] for row in rhs] for j in range(k)]
    solvable = all(oracle_solvable(a, b, c) for b in columns)
    assert (_diagonal_solve(snf, int_matrix(rhs, k)) is not None) == solvable


def test_snf_transforms_pinned():
    # the pivot is the first smallest |entry| in row-major order, so V is
    # determined, and kernel bases are read off its transpose
    cases = [
        ([[2, 1], [4, 3]], (1, 2), ((0, 1), (1, -2))),
        ([[6, 4, 3], [2, 5, 1]], (1, 11),
         ((0, 0, 1), (0, 1, -5), (1, 0, -2))),
        ([[4, 6], [6, 4], [2, 8]], (2, 10), ((1, 0), (-4, 1))),
    ]
    for grid, diag, vt in cases:
        res = smith_normal_form(IntMatrix.from_rows(grid))
        assert (res.diagonal, res.VT.data) == (diag, vt)


@st.composite
def sparse_int_matrices(draw):
    """r x c integer matrices, r, c <= 9, each entry nonzero with
    probability at most 0.5 and then in +-{1, 2, 3}."""
    r, c = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    density = draw(st.floats(0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = (rng.integers(1, 4, size=(r, c))
            * rng.choice((-1, 1), size=(r, c))
            * (rng.random((r, c)) < density))
    return int_matrix(grid.tolist(), c)


@st.composite
def unit_free_int_matrices(draw):
    """r x c integer matrices, r, c <= 5, each entry nonzero with
    probability at most 0.7 and then in +-{2, 3, 4, 6}: no pivot is a
    unit at first, so the row and column passes leave remainders."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    density = draw(st.floats(0, 0.7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = (rng.choice((2, 3, 4, 6), size=(r, c))
            * rng.choice((-1, 1), size=(r, c))
            * (rng.random((r, c)) < density))
    return int_matrix(grid.tolist(), c)


# Even this range has rare inputs on which the smallest-pivot form grows
# for seconds (a 9x9 at density 0.47 ran past 2 s), so the draws below
# come from a fixed sequence.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(sparse_int_matrices(), unit_free_int_matrices()))
@example(IntMatrix.zero(0, 4))
@example(IntMatrix.zero(3, 0))
@example(IntMatrix.from_rows([[2, 4], [6, 8]]))            # no unit pivot
@example(IntMatrix.from_rows([[0, -1, 2], [-1, 3, 0], [2, 0, -1]]))
@example(IntMatrix.from_rows([[2, 3, 0], [0, 2, 3], [3, 0, 2]]))
def test_snf_matches_oracle(a):
    res = smith_normal_form(a)
    assert (res.diagonal, res.VT) == oracle_diagonal_and_vt(a)
    assert res.diagonal == sympy_invariant_factors(a)


def test_snf_diagonal_matches_sympy_on_coboundaries():
    data = build_fixture("lens_7_2")
    cobounds = data.delta_M + data.delta_Q
    for a in cobounds + tuple(m.transpose() for m in cobounds):
        assert smith_normal_form(a).diagonal == sympy_invariant_factors(a)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 3),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_int_rank_and_det_against_fractions(r, c, deficit, sparse, seed):
    # a product through an inner dimension k has rank at most k: deficit 0
    # gives nonsingular square matrices, deficit > 0 singular ones; sparse
    # grids put zeros under the pivots, so rows swap and columns skip
    rng = np.random.default_rng(seed)
    k = max(0, min(r, c) - deficit)
    if sparse:
        grid = (rng.integers(-2, 3, size=(r, c))
                * (rng.random((r, c)) < 0.4)).tolist()
    else:
        grid = (rng.integers(-3, 4, size=(r, k))
                @ rng.integers(-3, 4, size=(k, c))).tolist()
    m = int_matrix(grid, c)
    rank, det = oracle_rank_det(grid, c)
    assert int_rank(m) == rank
    if r == c:
        assert int_det_sign_unimodular(m) == det
