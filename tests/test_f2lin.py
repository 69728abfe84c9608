"""Tests for exact F2 / integer linear algebra.

Oracles are written first and kept deliberately naive: a fraction-style
row-reduction for F2 rank, brute-force divisibility checks for Smith normal
form, and direct group-order arithmetic for cokernels.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmrkit.complexes import GradedComplex
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
    """Assert the structural SNF contract: U A V = D, divisibility, det ±1."""
    prod = result.U @ a @ result.V
    assert prod.data == result.D.data
    diag = result.diagonal()
    for i in range(len(diag)):
        assert diag[i] >= 0
        for j in range(result.D.cols):
            if j != i and i < result.D.rows:
                assert result.D[i, j] == 0 or i == j
    nonzero = [x for x in diag if x != 0]
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    from hmrkit.f2lin import int_det_sign_unimodular

    assert abs(int_det_sign_unimodular(result.U)) == 1
    assert abs(int_det_sign_unimodular(result.V)) == 1


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
    cells = tuple(f"c{k}" for k in range(len(gradings)))
    return GradedComplex("two_step", cells, gradings, d)


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


def test_block_assembly():
    a = F2Matrix.identity(2)
    z = F2Matrix.zero(2, 2)
    m = f2_block([[a, z], [z, a]])
    assert m.rows == m.cols == 4
    assert f2_rank(m) == 4


def test_json_roundtrip_f2():
    m = F2Matrix.from_entries(3, 4, [(0, 1), (2, 3)])
    assert F2Matrix.from_json(m.to_json()) == m


# ---------------------------------------------------------------------------
# Smith normal form / cokernels
# ---------------------------------------------------------------------------


def test_snf_diag_2_3():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    res = smith_normal_form(a)
    oracle_snf_check(a, res)
    assert res.diagonal() == [1, 6]


def test_snf_identity():
    a = IntMatrix.identity(4)
    res = smith_normal_form(a)
    oracle_snf_check(a, res)
    assert res.diagonal() == [1, 1, 1, 1]


def test_snf_2468():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    res = smith_normal_form(a)
    oracle_snf_check(a, res)
    assert res.diagonal() == [2, 4]


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
    basis = int_kernel_basis(a)
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
    return IntMatrix(len(grid), cols, tuple(map(tuple, grid)))


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

    With U a V = D, X = V Y where D Y = U rhs: two products around one
    Smith form.  The census asks only whether Y exists; the tests also
    read X, as coordinates in a presented group.
    """
    assert rhs.rows == a.rows
    snf = smith_normal_form(a)
    y = _diagonal_solve(snf, rhs)
    if y is None:
        return None
    y = tuple(y[:a.cols]) + ((0,) * rhs.cols,) * (a.cols - a.rows)
    return snf.V @ IntMatrix(a.cols, rhs.cols, y)


def int_solve(a: IntMatrix, b):
    """One integer solution x of a x = b, or None when unsolvable over Z."""
    x = int_solve_many(a, IntMatrix.from_columns(len(b), [b]))
    return None if x is None else x.column(0)


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
    u = [list(row) for row in res.U.data]
    v = [list(row) for row in res.V.data]
    d = [list(row) for row in res.D.data]
    assert (res.U.rows, res.U.cols, res.V.rows, res.V.cols) == (r, r, c, c)
    assert naive_int_product(naive_int_product(u, a, r, c), v, c, c) == d
    assert all(d[i][j] == 0 for i in range(r) for j in range(c) if i != j)
    diag = res.diagonal()
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert y == 0 if x == 0 else y % x == 0
    assert abs(oracle_rank_det(u, r)[1]) == 1
    assert abs(oracle_rank_det(v, c)[1]) == 1


def test_snf_transforms_pinned():
    # the pivot is the first smallest |entry| in row-major order, so U and
    # V are determined, and kernel bases and solutions are read off them
    cases = [
        ([[2, 1], [4, 3]], ((1, 0), (3, -1)), ((1, 0), (0, 2)),
         ((0, 1), (1, -2))),
        ([[6, 4, 3], [2, 5, 1]], ((0, 1), (-1, 3)), ((1, 0, 0), (0, 11, 0)),
         ((0, 0, 1), (0, 1, 0), (1, -5, -2))),
        ([[4, 6], [6, 4], [2, 8]], ((0, 0, 1), (-1, 0, 2), (-2, 1, 1)),
         ((2, 0), (0, 10), (0, 0)), ((1, -4), (0, 1))),
    ]
    for grid, u, d, v in cases:
        res = smith_normal_form(IntMatrix.from_rows(grid))
        assert (res.U.data, res.D.data, res.V.data) == (u, d, v)


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
