"""Exact linear algebra over F2 and over the integers.

:class:`F2Matrix` stores positions of ones (differentials are sparse) and
computes on row bitmasks, one Python int per row: a product XORs rows, and
one reduced echelon elimination gives rank and kernel (M4RI-style XOR
elimination).  :class:`IntMatrix` is a dense grid of Python integers
(coboundary maps stay small but pivots in Smith normal form do not, so
arbitrary precision is mandatory).  Everything downstream — homology
ranks, cohomology presentations, group quotients — reduces to the handful
of operations in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ShapeMismatch


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
            int(obj["rows"]),
            int(obj["cols"]),
            frozenset((int(r), int(c)) for r, c in obj["ones"]),
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
    """Dense integer matrix; entries are arbitrary-precision Python ints."""

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
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        return IntMatrix(rows, cols, tuple(tuple(int(x) for x in r)
                                           for r in grid))

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
        m = IntMatrix.from_rows(obj["data"]) if obj["data"] else \
            IntMatrix.zero(int(obj["rows"]), int(obj["cols"]))
        if (m.rows, m.cols) != (int(obj["rows"]), int(obj["cols"])):
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
        ot = other.transpose()
        return IntMatrix(
            self.rows, other.cols,
            tuple(tuple(sum(a * b for a, b in zip(row, col))
                        for col in ot.data)
                  for row in self.data))

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(k * x for x in r) for r in self.data))

    def column(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def mul_vec(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.cols:
            raise ShapeMismatch("vector length mismatch")
        return [sum(a * b for a, b in zip(row, v)) for row in self.data]

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
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):  # col[dst] += k * col[src]
        for row in d:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # locate pivot: smallest |nonzero| in the trailing block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
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
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    add_row(i, t, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    D = IntMatrix.from_rows(d) if d else IntMatrix.zero(m, n)
    return SNFResult(IntMatrix.from_rows(u) if u else IntMatrix.zero(m, m),
                     D if m and n else IntMatrix.zero(m, n),
                     IntMatrix.from_rows(v) if v else IntMatrix.zero(n, n))


def int_det_sign_unimodular(a: IntMatrix) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = a.rows
    if n != a.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(r) for r in a.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def int_rank(a: IntMatrix) -> int:
    """Rank of an integer matrix (over Q), via its Smith normal form."""
    return sum(1 for x in smith_normal_form(a).diagonal() if x != 0)


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


def _solve_with_snf(snf: SNFResult, a_rows: int, a_cols: int,
                    b: Sequence[int]):
    c = snf.U.mul_vec(list(b))
    y = [0] * a_cols
    diag = snf.diagonal()
    for i in range(a_rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return snf.V.mul_vec(y)


def int_solve(a: IntMatrix, b: Sequence[int]):
    """One integer solution x of a x = b, or None when unsolvable over Z."""
    if len(b) != a.rows:
        raise ShapeMismatch("rhs length mismatch")
    return _solve_with_snf(smith_normal_form(a), a.rows, a.cols, b)


def int_solve_many(a: IntMatrix, rhs: IntMatrix):
    """Integer solutions of a X = rhs, column by column, sharing one SNF.

    Returns an IntMatrix of solutions or None if any column is unsolvable.
    """
    if rhs.rows != a.rows:
        raise ShapeMismatch("rhs row count mismatch")
    snf = smith_normal_form(a)
    cols = []
    for j in range(rhs.cols):
        x = _solve_with_snf(snf, a.rows, a.cols, rhs.column(j))
        if x is None:
            return None
        cols.append(x)
    if not cols:
        return IntMatrix.zero(a.cols, 0)
    return IntMatrix.from_rows([[cols[j][i] for j in range(len(cols))]
                                for i in range(a.cols)])


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
        live = [c for c in cols if any(x != 0 for x in c[row:])]
        cols = live
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
    basis.extend(c for c in cols if any(x != 0 for x in c))
    if not basis:
        return IntMatrix.zero(a.rows, 0)
    return IntMatrix.from_rows([[b[i] for b in basis]
                                for i in range(a.rows)])
