"""Exact linear algebra over F2 and over the integers, without numpy.

Homology ranks, the LES check and the real spin-c census all reduce to
the operations in this module.  Integer rank and determinant come from
Bareiss elimination, and every other lattice question (kernels,
cokernels, membership in a column lattice and subquotients) reads one
Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import itemgetter, xor
from typing import Iterable, Sequence

from .errors import ShapeMismatch, input_int, input_list, input_object


@dataclass(frozen=True)
class F2Matrix:
    """A matrix over the two-element field: one int per row, bit c of
    ``masks[r]`` being entry (r, c)."""

    rows: int
    cols: int
    masks: tuple

    @cached_property
    def ones(self) -> tuple:
        """The positions (r, c) of the ones, in row-major order, derived on
        first read for JSON and the grading checks."""
        return tuple((r, c) for r, mask in enumerate(self.masks)
                     for c in bits(mask))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "F2Matrix":
        return F2Matrix(rows, cols, (0,) * rows)

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        return F2Matrix(n, n, tuple(1 << i for i in range(n)))

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Iterable) -> "F2Matrix":
        """Build from (row, col) pairs inside the shape; a repeated pair
        cancels mod 2."""
        masks = [0] * rows
        for r, c in entries:
            masks[int(r)] ^= 1 << int(c)
        return F2Matrix(rows, cols, tuple(masks))

    # -- conversions --------------------------------------------------

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "ones": [[r, c] for r, c in self.ones]}

    @staticmethod
    def from_json(obj: dict) -> "F2Matrix":
        """Read ``{"rows", "cols", "ones"}``; a repeated position is a
        single one."""
        return F2Matrix.from_entries(*json_entries(obj))

    # -- algebra ------------------------------------------------------

    def transpose(self) -> "F2Matrix":
        out = [0] * self.cols
        for r, mask in enumerate(self.masks):
            while mask:  # inline, like xor_of
                low = mask & -mask
                out[low.bit_length() - 1] |= 1 << r
                mask ^= low
        return F2Matrix(self.cols, self.rows, tuple(out))

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        return F2Matrix(self.rows, self.cols,
                        tuple(map(xor, self.masks, other.masks)))

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}"
            )
        right = other.masks
        return F2Matrix(self.rows, other.cols, tuple(
            xor_of(right, mask) if mask else 0 for mask in self.masks))

    def is_zero(self) -> bool:
        return not any(self.masks)


def json_entries(obj: dict) -> tuple[int, int, set]:
    """The declared shape and the set of one-positions of a JSON matrix
    ``{"rows", "cols", "ones"}``, each position checked against that
    shape.  Nothing here is sized by the shape, so a caller can check it
    before a matrix is built."""
    obj = input_object(obj)
    rows, cols = input_int(obj["rows"]), input_int(obj["cols"])
    ones = {(input_int(r), input_int(c)) for r, c in obj["ones"]}
    for (r, c) in ones:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ShapeMismatch(f"entry ({r},{c}) outside {rows}x{cols}")
    return rows, cols, ones


COUNTS_SHAPE = "counts shape must match point count"


def read_counts(obj: dict, points: int) -> F2Matrix:
    """The base counts of a ``morse`` body with ``points`` base points.
    The positions are checked against the declared shape, and that shape
    against the point count, before any row is built: no allocation is
    sized by an outside shape."""
    rows, cols, ones = json_entries(obj)
    if (rows, cols) != (points, points):
        raise ShapeMismatch(COUNTS_SHAPE)
    return F2Matrix.from_entries(rows, cols, ones)


def bits(mask: int) -> Iterable[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def xor_of(vectors: Sequence[int], mask: int) -> int:
    """The sum of the vectors picked by the set bits of ``mask``; row r of
    ``a @ b`` is ``xor_of(b.masks, a.masks[r])``.  The hottest F2 loop, so
    it walks the bits inline, not through :func:`bits`."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= vectors[low.bit_length() - 1]
        mask ^= low
    return out


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
    masks = []
    for row, h in zip(blocks, row_heights):
        stripe, shift = [0] * h, 0
        for b, w in zip(row, col_widths):
            if not b.is_zero():
                stripe = [s | m << shift for s, m in zip(stripe, b.masks)]
            shift += w
        masks += stripe
    return F2Matrix(sum(row_heights), sum(col_widths), tuple(masks))


def reduced_echelon(masks: Iterable[int]) -> dict[int, int]:
    """Reduced row echelon basis of the row space of ``masks``, by XOR
    elimination as in M4RI.

    Returns ``{pivot column: row}``: a row's pivot is its lowest set bit,
    and no other row has that bit.
    """
    echelon: dict[int, int] = {}
    pivots = 0  # mask of the pivot columns
    for row in filter(None, masks):
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
    return len(reduced_echelon(m.masks))


def f2_kernel_basis(m: F2Matrix) -> list[int]:
    """Null space basis of ``m``, as bitmasks over its columns.

    One vector per free column f: bit f, plus the pivot columns whose
    reduced row has bit f.
    """
    echelon = reduced_echelon(m.masks)
    return [sum(1 << col for col, row in echelon.items() if row >> free & 1)
            | 1 << free for free in range(m.cols) if free not in echelon]


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Integer matrix as sparse rows of arbitrary-precision ints, since
    Smith-form pivots grow: ``entries[i]`` lists the nonzeros of row i as
    (column, value) pairs, columns ascending.  The form is canonical, so
    ``==`` and ``hash`` compare values, and the algebra walks the nonzeros
    only."""

    rows: int
    cols: int
    entries: tuple  # per row, a tuple of (column, value) pairs

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ShapeMismatch("row count inconsistent with declared shape")

    @property
    def data(self) -> tuple:
        """The dense grid, as a tuple of row tuples: for JSON, whose
        ``data`` stays dense, and for the Smith form and Bareiss
        eliminations, whose census inputs are already reduced to a few
        rows."""
        return tuple(tuple(map(dict(row).get, range(self.cols), repeat(0)))
                     for row in self.entries)

    @staticmethod
    def from_grid(rows: int, cols: int, grid: Iterable) -> "IntMatrix":
        """The matrix of a dense grid of ints of that shape."""
        return IntMatrix(rows, cols, tuple(map(_nonzeros, grid)))

    @staticmethod
    def from_rows(grid: Sequence[Sequence[int]]) -> "IntMatrix":
        """Read outside input, a list of row lists, entry by entry, with
        ``input_int``."""
        data = [list(map(input_int, input_list(r))) for r in input_list(grid)]
        cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError("rows of unequal length")
        return IntMatrix.from_grid(len(data), cols, data)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, ((),) * rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(((i, 1),) for i in range(n)))

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "data": list(map(list, self.data))}

    @staticmethod
    def from_json(obj: dict) -> "IntMatrix":
        obj = input_object(obj)
        shape = (input_int(obj["rows"]), input_int(obj["cols"]))
        if min(shape) < 0:
            raise ValueError(f"negative shape {shape[0]}x{shape[1]}")
        grid = IntMatrix.from_rows(obj["data"])
        # an empty grid has no row to show a width: it keeps the declared one
        m = grid if grid.rows else IntMatrix.zero(0, shape[1])
        if (m.rows, m.cols) != shape:
            raise ValueError(f"declared shape {shape[0]}x{shape[1]} "
                             f"disagrees with data grid {m.rows}x{m.cols}")
        return m

    def transpose(self) -> "IntMatrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, x in row:
                out[j].append((i, x))
        return IntMatrix(self.cols, self.rows, tuple(map(tuple, out)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        return IntMatrix(self.rows, self.cols, tuple(
            map(_row_sum, self.entries, other.entries)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch("multiplication shape mismatch")
        return IntMatrix(self.rows, other.cols, tuple(
            _row_times(row, other.entries) for row in self.entries))

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(
            _row_times(((0, k),), (r,)) for r in self.entries))

    def mul_vec(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.cols:
            raise ShapeMismatch("vector length mismatch")
        return [sum(a * v[j] for j, a in row) for row in self.entries]

    def is_zero(self) -> bool:
        return not any(self.entries)


def _row_times(row: tuple, right: Sequence) -> tuple:
    """The sparse row ``row`` times the matrix of the sparse rows
    ``right``: the nonzeros that meet are summed by column.  A row of one
    entry (k, a), as in a signed permutation, is row k of ``right`` itself
    when a = 1 and that row scaled by a otherwise, with no sum."""
    if len(row) == 1:
        (k, a), = row
        if a == 1:
            return right[k]
        return tuple((j, a * b) for j, b in right[k]) if a else ()
    acc: dict = {}
    for k, a in row:
        for j, b in right[k]:
            acc[j] = acc.get(j, 0) + a * b
    return tuple(sorted(filter(itemgetter(1), acc.items())))


def _row_sum(a: tuple, b: tuple) -> tuple:
    """The sum of two sparse rows.  An empty row gives the other row, and
    two rows of one entry each are merged with no dictionary."""
    if not a or not b:
        return a or b
    if len(a) == len(b) == 1:
        (i, x), (j, y) = a[0], b[0]
        if i != j:
            return a + b if i < j else b + a
        return ((i, x + y),) if x + y else ()
    # a + b is the row (1, 1) times the two rows a and b
    return _row_times(((0, 1), (1, 1)), (a, b))


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form U A V = D with unimodular U, V, as its callers
    read it: the min(rows, cols) diagonal entries of D, and V^T (row j is
    column j of V).  U is not kept; the V^T of the Smith form of A^T is a
    U for A with the same diagonal."""

    diagonal: tuple
    VT: IntMatrix


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


def _nonzeros(row: Sequence[int]) -> tuple:
    """The (column, value) pairs of the nonzero entries of ``row``."""
    return tuple(compress(enumerate(row), row))


def _minus_multiple(dst: list, src: list, q: int) -> list:
    """The dense row dst - q * src."""
    return [x - q * y for x, y in zip(dst, src)]


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Smith normal form over Z: the diagonal of D and V^T.

    The textbook elimination (Cohen, GTM 138, 2.4.4) on the dense grid.
    The pivot at each stage is the nonzero entry of smallest absolute
    value (ties broken by lowest row, then column index), which keeps the
    reduction deterministic across runs.  Its row reduces the rows below
    it and its column the columns after it; a remainder is swapped in as
    the pivot, and the pass repeats until one makes no swap.  A pivot that
    does not divide the trailing block gets the first row it fails to
    divide added and starts over, so the diagonal entries are nonnegative
    with d_i | d_{i+1}.  A column operation on V is a row operation on
    V^T.  No U is built: the V^T of the Smith form of A^T is one, since
    U A V = D iff V^T A^T U^T = D^T.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.data]
    vt = [list(r) for r in IntMatrix.identity(n).data]  # row j: column j of V

    def swap_cols(t, j):
        for row in d:
            row[t], row[j] = row[j], row[t]
        vt[t], vt[j] = vt[j], vt[t]

    diagonal = []
    t = 0
    while t < min(m, n):
        pivot = _smallest_entry(d, t)
        if pivot is None:
            break
        d[t], d[pivot[0]] = d[pivot[0]], d[t]
        swap_cols(t, pivot[1])
        swapped = True
        while swapped:
            swapped = False
            for i in range(t + 1, m):
                if d[i][t]:
                    d[i] = _minus_multiple(d[i], d[t], d[i][t] // d[t][t])
                    if d[i][t]:
                        d[t], d[i] = d[i], d[t]
                        swapped = True
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    for row in d:
                        row[j] -= q * row[t]
                    vt[j] = _minus_multiple(vt[j], vt[t], q)
                    if d[t][j]:
                        swap_cols(t, j)
                        swapped = True
        # force divisibility of the trailing block by the pivot
        i = _indivisible_row(d, t)
        if i is not None:
            d[t] = [x + y for x, y in zip(d[t], d[i])]
            continue
        diagonal.append(abs(d[t][t]))
        t += 1

    diagonal += [0] * (min(m, n) - t)
    return SNFResult(tuple(diagonal), IntMatrix.from_grid(n, n, vt))


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
    diag = smith_normal_form(a).diagonal
    r = sum(1 for x in diag if x != 0)
    torsion = [x for x in diag if x > 1]
    free = a.rows - r
    return torsion + [0] * free


def int_kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of the integer null space {x : a x = 0}, one vector a row.

    The columns of V beyond the rank of D, the rows of V^T, span the
    kernel over Z (they do so saturatedly because V is unimodular).
    """
    snf = smith_normal_form(a)
    r = sum(1 for x in snf.diagonal if x != 0)
    return IntMatrix(a.cols - r, a.cols, snf.VT.entries[r:])


def _diagonal_solve(snf: SNFResult, rhs: IntMatrix):
    """The sparse rows of Y with D Y = U rhs, or None if no integer Y
    exists, where U A V = D and ``snf`` is the Smith form of A^T: its V^T
    is such a U, with the same diagonal.  Row i of U rhs is divided by
    d_i, and must be zero past the rank of D."""
    diag = snf.diagonal
    y = []
    for i, row in enumerate((snf.VT @ rhs).entries):
        di = diag[i] if i < len(diag) else 0
        if any(x % di for _, x in row) if di else row:
            return None
        y.append(tuple((j, x // di) for j, x in row))
    return y
