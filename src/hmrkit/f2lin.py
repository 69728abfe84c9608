"""Exact linear algebra over F2 and over the integers.

:class:`F2Matrix` stores positions of ones (differentials are sparse) and
computes on row bitmasks, one Python int per row: a product XORs rows, and
one reduced echelon elimination gives rank and kernel (M4RI-style XOR
elimination).  :class:`IntMatrix` stores dense row tuples of Python
integers (coboundary maps stay small but pivots in Smith normal form do
not, so arbitrary precision is mandatory); its products skip zero entries,
since coboundaries have a few nonzeros per row.  Rank and determinant come
from fraction-free Bareiss elimination, whose entries stay minors of the
input; every other lattice question (kernels, solves, cokernels and
subquotients) reads one Smith normal form.  Everything downstream —
homology ranks, cohomology presentations, group quotients — reduces to the
handful of operations in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ShapeMismatch, input_int


@dataclass(frozen=True)
class F2Matrix:
    """A matrix over the two-element field, stored as a set of one-positions."""

    rows: int
    cols: int
    ones: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        for (r, c) in self.ones:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ShapeMismatch(
                    f"entry ({r},{c}) outside {self.rows}x{self.cols}"
                )

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "F2Matrix":
        return F2Matrix(rows, cols, frozenset())

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        return F2Matrix(n, n, frozenset((i, i) for i in range(n)))

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Iterable) -> "F2Matrix":
        """Build from (row, col) pairs; duplicates cancel mod 2."""
        seen: set = set()
        for rc in entries:
            rc = (int(rc[0]), int(rc[1]))
            if rc in seen:
                seen.discard(rc)
            else:
                seen.add(rc)
        return F2Matrix(rows, cols, frozenset(seen))

    # -- conversions --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "ones": sorted([r, c] for (r, c) in self.ones),
        }

    @staticmethod
    def from_json(obj: dict) -> "F2Matrix":
        return F2Matrix(
            input_int(obj["rows"]),
            input_int(obj["cols"]),
            frozenset((input_int(r), input_int(c)) for r, c in obj["ones"]),
        )

    # -- algebra ------------------------------------------------------

    def transpose(self) -> "F2Matrix":
        return F2Matrix(self.cols, self.rows,
                        frozenset((c, r) for (r, c) in self.ones))

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        return F2Matrix(self.rows, self.cols,
                        self.ones.symmetric_difference(other.ones))

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}"
            )
        right = row_masks(other)
        out = [0] * self.rows
        for (r, c) in self.ones:
            out[r] ^= right[c]
        return F2Matrix(self.rows, other.cols, frozenset(
            (r, c) for r, mask in enumerate(out) for c in bits(mask)))

    def is_zero(self) -> bool:
        return not self.ones

    def __getitem__(self, rc) -> int:
        return 1 if (rc[0], rc[1]) in self.ones else 0


def row_masks(m: F2Matrix) -> list[int]:
    """The rows of ``m`` as ints: bit c of ``masks[r]`` is m[r, c]."""
    masks = [0] * m.rows
    for (r, c) in m.ones:
        masks[r] |= 1 << c
    return masks


def bits(mask: int) -> Iterable[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def f2_block(blocks: Sequence[Sequence[F2Matrix]]) -> F2Matrix:
    """Assemble a block matrix [[A, B], [C, D], ...] over F2.

    Shapes must be consistent along each row and column of blocks.
    """
    row_heights = [row[0].rows for row in blocks]
    col_widths = [b.cols for b in blocks[0]]
    for row in blocks:
        for b, w in zip(row, col_widths):
            if b.cols != w:
                raise ShapeMismatch("inconsistent block column widths")
        if any(b.rows != row[0].rows for b in row):
            raise ShapeMismatch("inconsistent block row heights")
    ones = []
    r_off = 0
    for row, h in zip(blocks, row_heights):
        c_off = 0
        for b, w in zip(row, col_widths):
            ones.extend((r_off + r, c_off + c) for (r, c) in b.ones)
            c_off += w
        r_off += h
    return F2Matrix(sum(row_heights), sum(col_widths), frozenset(ones))


def reduced_echelon(masks: Iterable[int]) -> dict[int, int]:
    """Reduced row echelon basis of the row space of ``masks``.

    Returns ``{pivot column: row}``: a row's pivot is its lowest set bit,
    and no other row has that bit.
    """
    echelon: dict[int, int] = {}
    pivots = 0  # mask of the pivot columns
    for row in masks:
        for col in bits(row & pivots):
            row ^= echelon[col]
        if row:
            low = row & -row
            for col, other in echelon.items():
                if other & low:
                    echelon[col] = other ^ row
            echelon[low.bit_length() - 1] = row
            pivots |= low
    return echelon


def f2_rank(m: F2Matrix) -> int:
    """Rank of ``m`` over F2."""
    return len(reduced_echelon(row_masks(m)))


def f2_kernel_basis(m: F2Matrix) -> list[int]:
    """Null space basis of ``m``, as bitmasks over its columns.

    One vector per free column f: bit f, plus the pivot columns whose
    reduced row has bit f.
    """
    echelon = reduced_echelon(row_masks(m))
    return [sum(1 << col for col, row in echelon.items() if row >> free & 1)
            | 1 << free for free in range(m.cols) if free not in echelon]


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Integer matrix as dense row tuples of arbitrary-precision ints.

    Products skip zeros: the left factor is walked over the nonzeros of
    each row, and the right factor's rows are listed as (column, value)
    pairs, so the cost follows the nonzeros that meet, not the shape.
    """

    rows: int
    cols: int
    data: tuple  # tuple of row tuples

    def __post_init__(self):
        if len(self.data) != self.rows or any(
            len(r) != self.cols for r in self.data
        ):
            raise ShapeMismatch("data grid inconsistent with declared shape")

    @staticmethod
    def from_rows(grid: Sequence[Sequence[int]]) -> "IntMatrix":
        """Build from outside input, reading every entry with ``input_int``."""
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        return IntMatrix(rows, cols, tuple(tuple(input_int(x) for x in r)
                                           for r in grid))

    @staticmethod
    def from_columns(rows: int, columns: Sequence[Sequence[int]]
                     ) -> "IntMatrix":
        """The matrix whose columns are ``columns``, each of length ``rows``."""
        if not columns:
            return IntMatrix.zero(rows, 0)
        return IntMatrix(rows, len(columns), tuple(zip(*columns)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols
                                           for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0
                                           for j in range(n))
                                     for i in range(n)))

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "data": [list(r) for r in self.data]}

    @staticmethod
    def from_json(obj: dict) -> "IntMatrix":
        shape = (input_int(obj["rows"]), input_int(obj["cols"]))
        m = IntMatrix.from_rows(obj["data"]) if obj["data"] else \
            IntMatrix.zero(*shape)
        if (m.rows, m.cols) != shape:
            raise ShapeMismatch("declared shape disagrees with data grid")
        return m

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.data[r][c]
                                     for r in range(self.rows))
                               for c in range(self.cols)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.data, other.data)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch("multiplication shape mismatch")
        right = [[(j, x) for j, x in enumerate(row) if x]
                 for row in other.data]
        n = other.cols
        out = []
        for row in self.data:
            acc = [0] * n
            for k, a in enumerate(row):
                if a:
                    for j, b in right[k]:
                        acc[j] += a * b
            out.append(tuple(acc))
        return IntMatrix(self.rows, n, tuple(out))

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(k * x for x in r) for r in self.data))

    def column(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def mul_vec(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.cols:
            raise ShapeMismatch("vector length mismatch")
        return [sum(a * b for a, b in zip(row, v) if a) for row in self.data]

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def __getitem__(self, rc) -> int:
        return self.data[rc[0]][rc[1]]


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form U A V = D with unimodular U, V."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> list[int]:
        n = min(self.D.rows, self.D.cols)
        return [self.D[i, i] for i in range(n)]


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


def smith_normal_form(a: IntMatrix) -> SNFResult:
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

    return SNFResult(IntMatrix(m, m, tuple(map(tuple, u))),
                     IntMatrix(m, n, tuple(map(tuple, d))),
                     IntMatrix(n, n, tuple(map(tuple, v))))


def _bareiss(a: IntMatrix) -> tuple[int, int]:
    """(rank, determinant) by fraction-free elimination (Bareiss 1968).

    Row swaps bring a nonzero entry to the pivot row; a column with none
    is skipped and adds nothing to the rank.  Every entry stays a minor of
    ``a``, so the divisions are exact and the entries never outgrow
    Hadamard's bound.  The determinant is 0 unless ``a`` is square and of
    full rank.
    """
    m = [list(r) for r in a.data]
    rank, sign, prev = 0, 1, 1
    for col in range(a.cols):
        if rank == a.rows:
            break
        pivot = next((i for i in range(rank, a.rows) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top = m[rank]
        p = top[col]
        for row in m[rank + 1:]:
            f = row[col]
            for j in range(col + 1, a.cols):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
        rank += 1
    return rank, (sign * prev if rank == a.rows == a.cols else 0)


def int_det_sign_unimodular(a: IntMatrix) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    if a.rows != a.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    return _bareiss(a)[1]


def int_rank(a: IntMatrix) -> int:
    """Rank of an integer matrix (over Q), by fraction-free Bareiss."""
    return _bareiss(a)[0]


def cokernel_invariants(a: IntMatrix) -> list[int]:
    """Invariant factors of Z^rows / Im(a).

    Returns the d_i > 1 from the Smith form followed by one 0 per free
    factor.  Trivial factors (d_i = 1) are dropped.
    """
    diag = smith_normal_form(a).diagonal()
    r = sum(1 for x in diag if x != 0)
    torsion = [x for x in diag if x > 1]
    free = a.rows - r
    return torsion + [0] * free


def int_kernel_basis(a: IntMatrix) -> list[list[int]]:
    """Basis of the integer null space {x : a x = 0} as column vectors.

    The columns of V beyond the rank of D span the kernel over Z (they do
    so saturatedly because V is unimodular).
    """
    snf = smith_normal_form(a)
    diag = snf.diagonal()
    r = sum(1 for x in diag if x != 0)
    return [snf.V.column(j) for j in range(r, a.cols)]


def _diagonal_solve(snf: SNFResult, rhs: IntMatrix):
    """The rows of Y with D Y = U rhs, or None if no integer Y exists:
    row i of U rhs divided by d_i, and zero past the rank of D."""
    diag = snf.diagonal()
    y = []
    for i, row in enumerate((snf.U @ rhs).data):
        di = diag[i] if i < len(diag) else 0
        if any(x % di for x in row) if di else any(row):
            return None
        y.append(tuple(x // di for x in row) if di else row)
    return y


def int_solve_many(a: IntMatrix, rhs: IntMatrix):
    """Integer solutions X of a X = rhs, or None if a column has none.

    With U a V = D, X = V Y where D Y = U rhs: two products around one
    Smith form.
    """
    if rhs.rows != a.rows:
        raise ShapeMismatch("rhs row count mismatch")
    snf = smith_normal_form(a)
    y = _diagonal_solve(snf, rhs)
    if y is None:
        return None
    y = tuple(y[:a.cols]) + ((0,) * rhs.cols,) * (a.cols - a.rows)
    return snf.V @ IntMatrix(a.cols, rhs.cols, y)


def int_solve(a: IntMatrix, b: Sequence[int]):
    """One integer solution x of a x = b, or None when unsolvable over Z."""
    x = int_solve_many(a, IntMatrix.from_columns(len(b), [b]))
    return None if x is None else x.column(0)
