"""Real structures on line bundles over an involutive space, from CW data.

The input is an equivariant CW structure: integer cochain complexes of a
space M and its quotient Q = M/involution, plus an orbit map recording, for
every cell of M, its image cell in Q, whether it is pointwise fixed, and an
orientation sign (the coefficient in iota(cell) = sign * partner).  From
this the averaging map Theta on cochains,

    Theta(beta)(image of e) = beta(e) + beta(iota e),

is an integer matrix.  Existence of a real structure on a line bundle is
the vanishing of Theta(c1) in H^2(Q).  Every census answer is one
subquotient of two lattices of cochains, read off a Smith normal form:
the equivalence classes on a fixed bundle form H^1(Q)/Im Theta =
Z^1(Q) / (B^1(Q) + Theta Z^1(M)), and the real spin-c structures on the
trivial bundle, which always admits one, form a torsor over
ker(Theta on H^2) x H^1(M)^inv / Im(1 + iota*), where ker(Theta on H^2)
= {z in Z^2(M) : Theta z in B^2(Q)} / B^2(M) and H^1(M)^inv / Im(1 +
iota*) = {z in Z^1(M) : iota* z - z in B^1(M)} / (B^1(M) + (1 + iota*)
Z^1(M)).  No cohomology group is presented in generator coordinates.

Each answer depends only on the maps that Theta and iota* induce on
cohomology, so the census may run on any complexes homotopy-equivalent to
those of M and Q.  For chain maps f: C -> C' and g: C' -> C with f g = 1
and g f homotopic to 1, Theta' = f_Q Theta g_M and iota' = f_M iota* g_M
are chain maps inducing [f_Q][Theta][f_M]^-1 and [f_M][iota*][f_M]^-1,
since [g] = [f]^-1; the subquotients above keep their invariants.
Gaussian elimination of a unit entry phi = delta^n[b][a] is such a pair
(Bar-Natan, J. Knot Theory Ramifications 16, 2007; Kaczynski, Mrozek and
Slusarek, Comput. Math. Appl. 35, 1998): cells a and b go, delta^n
becomes the Schur complement eps - gamma phi^-1 delta_b, delta^(n-1) loses
row a and delta^(n+1) column b.  f adds -phi gamma_e (row b) to each row
e, and g adds -phi delta[b][c] (column a) to each column c.
:attr:`EquivariantCWData.reduced` applies these eliminations until no
unit entry is left, and every census answer and the existence check run
on that reduced pair.  Data that constructs has d.d = 0, a consistent
orbit map, and chain maps iota* and Theta, so the census functions below
read those matrices and do not check them again.

Branched double covers of links enter through their Seifert matrices:
|H_1| = |det(A + A^t)| and b_1 = nullity(A + A^t).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property

from .errors import (
    MalformedOrbitMap,
    NotChainMap,
    NotCocycle,
    ShapeMismatch,
    input_field,
    input_int,
    input_list,
    input_object,
    input_pair,
    json_words,
)
from .f2lin import (
    IntMatrix,
    _diagonal_solve,
    cokernel_invariants,
    int_det_sign_unimodular,
    int_kernel_basis,
    int_rank,
    smith_normal_form,
)


#: Where one cell of M goes in the quotient.
OrbitEntry = namedtuple("OrbitEntry", "degree index image fixed sign")


class EquivariantCWData:
    """Cochain complexes of M and Q plus the cell-orbit pairing.

    ``delta_M[n]`` is the coboundary C^n(M) -> C^{n+1}(M) (rows indexed by
    (n+1)-cells), one per degree below the top dimension.

    Construction is the one validation, and one walk of the orbit map.  Its
    checks run in this order, and each error names the degree, cell or
    dimension at fault:

    1. M and Q have one dimension (MalformedOrbitMap), and M one
       coboundary of the right shape per degree (ShapeMismatch);
    2. d.d = 0 on M (MalformedOrbitMap);
    3. each orbit entry in turn: degree, index and image in range, sign
       +-1, sign +1 on a fixed cell, listed once (MalformedOrbitMap);
    4. per degree n, every cell of M listed, then each quotient cell in
       turn covered by one fixed cell or by a free pair with equal signs
       (MalformedOrbitMap).  Each checked quotient cell writes its row of
       ``theta[n]``, the matrix of Theta: C^n(M) -> C^n(Q), and the rows
       over it of ``iota[n]``, iota* on C^n(M), and ``pullback[n]``, pi*:
       C^n(Q) -> C^n(M), one or two entries a row.  No row is sized by a
       cell count before that count is checked, so a huge count is
       refused, not allocated;
    5. per degree, iota* commutes with delta_M (MalformedOrbitMap).

    The coboundaries ``delta_Q`` of Q are then derived, not read: row q is
    the row of delta_M pi* at the cell over q where pi* has the factor +1,
    so 2 delta_Q = Theta delta_M pi*.  Theta is then a chain map, and
    pi* Theta = 1 + iota*, by construction.
    """

    __slots__ = ("cells_M", "cells_Q", "delta_M", "orbit", "delta_Q", "theta",
                 "iota", "pullback", "__dict__")

    def __init__(self, cells_M: Sequence[int], cells_Q: Sequence[int],
                 delta_M: Sequence[IntMatrix], orbit: Sequence[OrbitEntry]):
        self.cells_M, self.cells_Q = tuple(cells_M), tuple(cells_Q)
        self.delta_M, self.orbit = tuple(delta_M), tuple(orbit)
        dim = self.dim
        if len(self.cells_Q) != len(self.cells_M):
            raise MalformedOrbitMap(f"M has dimension {dim}, Q "
                                    f"{len(self.cells_Q) - 1}")
        if len(self.delta_M) != dim:
            raise ShapeMismatch(f"dimension {dim} needs {dim} coboundaries "
                                f"for M, got {len(self.delta_M)}")
        for n, dm in enumerate(self.delta_M):
            if (dm.rows, dm.cols) != (self.cells_M[n + 1], self.cells_M[n]):
                raise ShapeMismatch(f"delta_M[{n}] has wrong shape")
        for n in range(dim - 1):
            if not (self.delta_M[n + 1] @ self.delta_M[n]).is_zero():
                raise MalformedOrbitMap(f"delta_M fails d.d=0 at degree {n}")
        seen = set()
        preimages: dict = {}
        for e in self.orbit:
            key = (e.degree, e.index)
            if not (0 <= e.degree <= dim):
                raise MalformedOrbitMap(f"cell {key}: bad degree")
            if not (0 <= e.index < self.cells_M[e.degree]):
                raise MalformedOrbitMap(f"cell {key}: index out of range")
            if not (0 <= e.image < self.cells_Q[e.degree]):
                raise MalformedOrbitMap(f"cell {key}: image out of range")
            if e.sign not in (1, -1):
                raise MalformedOrbitMap(f"cell {key}: sign is not +-1")
            if e.fixed and e.sign != 1:
                raise MalformedOrbitMap(f"fixed cell {key} has sign -1")
            if key in seen:
                raise MalformedOrbitMap(f"cell {key} listed twice")
            seen.add(key)
            preimages.setdefault((e.degree, e.image), []).append(e)
        theta, iota, pullback = [], [], []
        for n in range(dim + 1):
            for i in range(self.cells_M[n]):
                if (n, i) not in seen:
                    raise MalformedOrbitMap(f"cell {(n, i)} missing")
            # every cell of degree n is listed, so these rows are bounded
            # by the orbit's length; the rows of Theta grow one checked
            # quotient cell at a time, as cells_Q[n] is unchecked
            iota.append([()] * self.cells_M[n])
            pullback.append([()] * self.cells_M[n])
            theta.append([])
            for q in range(self.cells_Q[n]):
                pre = preimages.get((n, q), ())
                if not (len(pre) == 1 and pre[0].fixed or len(pre) == 2
                        and not (pre[0].fixed or pre[1].fixed)):
                    raise MalformedOrbitMap(
                        f"quotient cell ({n},{q}) covered by {len(pre)} "
                        "cells with inconsistent fixed flags")
                # a free pair differs first in index, so sorting orders it
                # by index; a fixed cell is both pre[0] and pre[-1]
                lo, hi = sorted((pre[0], pre[-1]))
                s = hi.sign
                if lo.sign != s:
                    raise MalformedOrbitMap(
                        f"free orbit over ({n},{q}) has unequal signs")
                # (Theta beta)(q) = beta(e) + beta(iota e)
                theta[n].append(((lo.index, 2),) if lo.fixed
                                else ((lo.index, 1), (hi.index, s)))
                # (iota* beta)(e) = sign(e) * beta(iota e)
                iota[n][lo.index] = ((hi.index, s),)
                iota[n][hi.index] = ((lo.index, s),)
                # (pi* gamma)(e) = sigma(e) * gamma(q), with the orientation
                # factor sigma +1 on a fixed cell and on the lower index of
                # a free orbit, the listed sign on the other cell
                pullback[n][lo.index] = ((q, 1),)
                pullback[n][hi.index] = ((q, s),)
        for name, rows, cols in (("theta", theta, self.cells_M),
                                 ("iota", iota, self.cells_M),
                                 ("pullback", pullback, self.cells_Q)):
            setattr(self, name, tuple(
                IntMatrix(len(r), c, tuple(r)) for r, c in zip(rows, cols)))
        delta_Q = []
        for n, dm in enumerate(self.delta_M):
            if not _commutes(dm, iota[n], iota[n + 1]):
                raise MalformedOrbitMap(
                    f"iota* does not commute with delta_M in degree {n}")
            # row q of delta_Q is the row of delta_M pi* at the first
            # cell of Theta row q (factor +1)
            lifted = IntMatrix(self.cells_Q[n + 1], dm.cols,
                               tuple(dm.entries[row[0][0]]
                                     for row in theta[n + 1]))
            delta_Q.append(lifted @ self.pullback[n])
        self.delta_Q = tuple(delta_Q)

    # -- derived structure -------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.cells_M) - 1

    @cached_property
    def reduced(self) -> "CochainPair":
        """M and Q with every unit entry of their coboundaries eliminated
        (:func:`_reduce`), and Theta' = f_Q Theta g_M and iota' = f_M iota*
        g_M formed from the rows of Theta and iota* once the eliminations
        are known (:func:`_replay`, :func:`_conjugate`); computed on first
        read, since both census answers and the existence check read it.
        L(61,7) goes from (244, 492, 252, 4) and (124, 248, 126, 2) cells
        to (1, 1, 1, 1) and (1, 0, 0, 1).  A report's ``cells_M`` and
        ``cells_Q`` stay those of the data as given."""
        delta_M, delta_Q = ([_Sparse.of(m) for m in ms]
                            for ms in (self.delta_M, self.delta_Q))
        log_M, log_Q = _reduce(delta_M), _reduce(delta_Q)
        kept_M = _kept(delta_M, self.cells_M)
        kept_Q = _kept(delta_Q, self.cells_Q)
        # f moves an eliminated b onto the rows e of its column, g an
        # eliminated a onto the other columns of its row
        f_M = _replay([(n + 1, b, gamma)
                       for n, b, _, gamma, _ in reversed(log_M)], kept_M)
        g_M = _replay([(n, a, rest)
                       for n, _, a, _, rest in reversed(log_M)], kept_M)
        f_Q = _replay([(n + 1, b, gamma)
                       for n, b, _, gamma, _ in reversed(log_Q)], kept_Q)
        cells_M, cells_Q = tuple(map(len, kept_M)), tuple(map(len, kept_Q))
        return CochainPair(
            cells_M, cells_Q,
            *(tuple(m.matrix() for m in ms) for ms in (delta_M, delta_Q)),
            tuple(_conjugate(*args) for args in zip(
                f_Q, self.theta, g_M, cells_Q, cells_M)),
            tuple(_conjugate(*args) for args in zip(
                f_M, self.iota, g_M, cells_M, cells_M)),
            tuple(f_M))

    def to_json(self) -> dict:
        return {
            "cells_M": list(self.cells_M),
            "cells_Q": list(self.cells_Q),
            "delta_M": [m.to_json() for m in self.delta_M],
            "delta_Q": [m.to_json() for m in self.delta_Q],
            "orbit": [
                {"cell": [e.degree, e.index], "image": e.image,
                 "fixed": e.fixed, "sign": e.sign}
                for e in self.orbit
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "EquivariantCWData":
        """Parse :meth:`to_json` output, as ``spinc --input`` reads it.

        A malformed field is InvalidInput naming it.  The data then takes
        the constructor's checks, in their order, and last the body's
        ``delta_Q`` must be the derived one: a wrong count or shape is
        ShapeMismatch, and wrong entries are NotChainMap, since they are
        exactly the delta_Q with which Theta fails to commute.
        """

        def counts(v):
            out = tuple(input_int(n) for n in input_list(v))
            if not out:
                raise ValueError("no cell count, not even of degree 0")
            if min(out) < 0:
                raise ValueError(f"a cell count is negative: {min(out)}")
            return out

        def matrices(v):
            return tuple(IntMatrix.from_json(m) for m in input_list(v))

        def flag(v):
            if not isinstance(v, bool):
                raise TypeError(f"'fixed' must be a boolean, got "
                                f"{json_words(v)}")
            return v

        def orbit(v):
            return tuple(
                OrbitEntry(*input_pair(o["cell"]), image=input_int(o["image"]),
                           fixed=flag(o["fixed"]), sign=input_int(o["sign"]))
                for o in map(input_object, input_list(v)))

        cells_M = input_field(obj, "cells_M", counts)
        cells_Q = input_field(obj, "cells_Q", counts)
        delta_M = input_field(obj, "delta_M", matrices)
        delta_Q = input_field(obj, "delta_Q", matrices)
        data = EquivariantCWData(cells_M, cells_Q, delta_M,
                                 input_field(obj, "orbit", orbit))
        if len(delta_Q) != data.dim:
            raise ShapeMismatch(f"dimension {data.dim} needs {data.dim} "
                                f"coboundaries for Q, got {len(delta_Q)}")
        for n, (given, derived) in enumerate(zip(delta_Q, data.delta_Q)):
            if (given.rows, given.cols) != (derived.rows, derived.cols):
                raise ShapeMismatch(f"delta_Q[{n}] has wrong shape")
            if given != derived:
                raise NotChainMap(f"Theta does not commute with the "
                                  f"coboundaries in degree {n}")
        return data


def _commutes(d: IntMatrix, src: list, tgt: list) -> bool:
    """Whether d iota* = iota* d, for the rows ``src`` and ``tgt`` of
    iota* on the columns and on the rows of d.  Row e of iota* is
    ((iota e, s_e),), iota an involution and s_(iota e) = s_e, so the two
    sides agree iff every nonzero d[r][c] = x has d[iota r][iota c] =
    s_r s_c x; (r, c) -> (iota r, iota c) then permutes the nonzeros."""
    rows = d.entries
    for row, ((ir, sr),) in zip(rows, tgt):
        other = dict(rows[ir])
        for c, x in row:
            (ic, sc), = src[c]
            if other.get(ic) != sr * sc * x:
                return False
    return True


def verify_theta_chain_map(data: EquivariantCWData, degree: int) -> bool:
    """delta_Q . Theta = Theta . delta_M in the given degree: true for all
    data that constructs, and kept as a check of that."""
    if degree >= data.dim:
        return True
    return (data.delta_Q[degree] @ data.theta[degree]
            == data.theta[degree + 1] @ data.delta_M[degree])


def verify_naturality(data: EquivariantCWData, degree: int) -> bool:
    """pi* . Theta = 1 + iota* on cochains in the given degree."""
    return (data.pullback[degree] @ data.theta[degree]
            == IntMatrix.identity(data.cells_M[degree]) + data.iota[degree])


class CochainPair:
    """The complexes of M and Q, and Theta and iota* per degree, that the
    census reads: :attr:`EquivariantCWData.reduced`.  ``f_M`` gives, per
    degree n, f_M: C^n(M) -> C'^n(M) by columns, each cell of M that it
    does not send to 0 mapped to {reduced cell: coefficient}."""

    __slots__ = ("cells_M", "cells_Q", "delta_M", "delta_Q", "theta", "iota",
                 "f_M", "__dict__")

    def __init__(self, cells_M: tuple, cells_Q: tuple, delta_M: tuple,
                 delta_Q: tuple, theta: tuple, iota: tuple, f_M: tuple):
        self.cells_M, self.cells_Q = cells_M, cells_Q
        self.delta_M, self.delta_Q = delta_M, delta_Q
        self.theta, self.iota, self.f_M = theta, iota, f_M

    @cached_property
    def z1_M(self) -> IntMatrix:
        """Z^1(M), computed on first read: both census answers read it."""
        return cocycles(self.delta_M, self.cells_M, 1)


class _Sparse:
    """A mutable integer matrix as row dicts and column dicts, keyed by
    the original indices, so that a row is added or dropped in time linear
    in its nonzeros; ``T`` is the transpose, on the same dicts."""

    def __init__(self, row: dict, col: dict):
        self.row, self.col = row, col

    @staticmethod
    def of(m: IntMatrix) -> "_Sparse":
        col = {j: {} for j in range(m.cols)}
        for i, r in enumerate(m.entries):
            for j, x in r:
                col[j][i] = x
        return _Sparse(dict(enumerate(map(dict, m.entries))), col)

    @property
    def T(self) -> "_Sparse":
        return _Sparse(self.col, self.row)

    def add_row(self, dst, src, k: int) -> None:
        out, col = self.row[dst], self.col
        for j, x in self.row[src].items():
            v = out.get(j, 0) + k * x
            if v:
                out[j] = col[j][dst] = v
            else:
                del out[j], col[j][dst]

    def drop_row(self, i) -> None:
        for j in self.row.pop(i):
            del self.col[j][i]

    def matrix(self) -> IntMatrix:
        """The matrix, its rows and columns renumbered in their order."""
        cols = {j: k for k, j in enumerate(sorted(self.col))}
        return IntMatrix(len(self.row), len(cols), tuple(
            tuple(sorted((cols[j], x) for j, x in r.items()))
            for _, r in sorted(self.row.items())))


def _reduce(deltas: list) -> list:
    """Eliminate unit entries of the complex ``deltas`` in place and
    return the eliminations in order, each as (n, b, a, gamma, rest) for
    the unit phi = delta^n[b][a]: gamma the pairs (e, -phi delta^n[e][a])
    over the other rows of column a, rest the pairs (j, -phi delta^n[b][j])
    over the other columns of row b.  delta^n takes the Schur update,
    which also empties column a, delta^(n-1) loses row a and delta^(n+1)
    column b.  A sweep takes the rows of each degree in order and, in a
    row with a unit entry, the unit of shortest column; sweeps repeat
    until one eliminates nothing, which ends since each elimination
    removes two cells (Skoldberg, Trans. AMS 358, 2006; Mrozek and Batko,
    Discrete Comput. Geom. 41, 2009).  Only the coboundaries take row
    operations: f and g are read off the log afterwards."""
    log = []
    progress = True
    while progress:
        progress = False
        # an elimination drops, of its degree or later, only its own row
        for n, b in [(n, b) for n, d in enumerate(deltas) for b in d.row]:
            d = deltas[n]
            units = [a for a, x in d.row[b].items() if x in (1, -1)]
            if not units:
                continue
            a = min(units, key=lambda j: len(d.col[j]))
            phi = d.row[b][a]
            gamma = [(e, -phi * x) for e, x in d.col[a].items() if e != b]
            rest = [(j, -phi * x) for j, x in d.row[b].items() if j != a]
            if n:
                deltas[n - 1].drop_row(a)
            for e, k in gamma:
                d.add_row(e, b, k)
            d.drop_row(b)
            del d.col[a]  # emptied by the Schur update
            if n + 1 < len(deltas):
                deltas[n + 1].T.drop_row(b)
            log.append((n, b, a, gamma, rest))
            progress = True
    return log


def _kept(deltas: list, cells: Sequence[int]) -> list:
    """Per degree, the cells that the reduction of ``deltas`` kept, in
    order: the columns of each coboundary and the rows of the last."""
    if not deltas:
        return [range(cells[0])]
    return [sorted(d.col) for d in deltas] + [sorted(deltas[-1].row)]


def _replay(steps: list, kept: list) -> list:
    """Where each cell goes under a map of the reduction, per degree: the
    cell mapped to {index among the kept cells: coefficient}, absent if
    it goes to 0.  That is column c of f, or row c of g.  A kept cell goes
    to itself; ``steps`` are the eliminations, last first, as (n, c,
    pairs), and the eliminated cell c of degree n goes to the sum of k
    times where e goes, over the pairs (e, k).  One pass moves every kept
    cell at once, as algebraic Morse theory reads its comparison maps off
    the matching (Skoldberg)."""
    out = [{c: {i: 1} for i, c in enumerate(cs)} for cs in kept]
    for n, c, pairs in steps:
        moved, acc = out[n], {}
        for e, k in pairs:
            if e in moved:
                for i, x in moved[e].items():
                    acc[i] = acc.get(i, 0) + k * x
        col = {i: x for i, x in acc.items() if x}
        if col:
            moved[c] = col
    return out


def _conjugate(f: dict, x: IntMatrix, g: dict, rows: int,
               cols: int) -> IntMatrix:
    """f x g, for f by columns and g by rows as :func:`_replay` gives
    them, and x of one or two entries a row, so that the cost follows the
    surviving cells."""
    out = [{} for _ in range(rows)]
    for q, fq in f.items():
        for c, t in x.entries[q]:
            if c in g:
                for j, y in g[c].items():
                    for i, u in fq.items():
                        acc = out[i]
                        acc[j] = acc.get(j, 0) + u * t * y
    return IntMatrix(rows, cols, tuple(
        tuple(sorted((j, v) for j, v in r.items() if v)) for r in out))


# ---------------------------------------------------------------------------
# Cochain lattices
# ---------------------------------------------------------------------------


def cocycles(deltas: Sequence[IntMatrix], cells: Sequence[int],
             n: int) -> IntMatrix:
    """Z^n as columns: a basis of ker(delta^n), all of C^n in the top
    degree."""
    if n < len(deltas):
        return int_kernel_basis(deltas[n]).transpose()
    return IntMatrix.identity(cells[n])


def _hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ShapeMismatch("hstack row mismatch")
    return IntMatrix(a.rows, a.cols + b.cols, tuple(
        ra + tuple((j + a.cols, x) for j, x in rb)
        for ra, rb in zip(a.entries, b.entries)))


def _preimage(image: IntMatrix, z: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Columns spanning the combinations of the columns of z whose images,
    the columns of ``image``, lie in span(b): [z | 0] ker [image | b] reads
    the first z.cols coordinates, so the sign of b does not matter."""
    kern = int_kernel_basis(_hstack(image, b))
    return _hstack(z, IntMatrix.zero(z.rows, b.cols)) @ kern.transpose()


def subquotient_invariants(gens: IntMatrix, rels: IntMatrix) -> list[int]:
    """Invariants of (column span of gens) / (column span of rels).

    With U gens V = D of rank r, x -> ((U x)_i / d_i)_{i<r} maps the span
    of gens onto Z^r, so the answer is the cokernel of the first r rows of
    D^-1 U rels; U is read off the Smith form of gens^T.  The relation
    columns must lie in the generator span.
    """
    snf = smith_normal_form(gens.transpose())
    y = _diagonal_solve(snf, rels)
    if y is None:
        raise ShapeMismatch("relations do not lie in the generator span")
    r = sum(1 for x in snf.diagonal if x)
    return cokernel_invariants(IntMatrix(r, rels.cols, tuple(y[:r])))


# ---------------------------------------------------------------------------
# Census operations
# ---------------------------------------------------------------------------


class RealStructureCensus:
    """Existence plus the torsor structure of real spin-c structures."""

    __slots__ = ("exists", "kernel_invariants", "h1_invariants")

    def __init__(self, exists: bool, kernel_invariants: tuple,
                 h1_invariants: tuple):
        self.exists, self.kernel_invariants = exists, kernel_invariants
        self.h1_invariants = h1_invariants

    @property
    def torsor_invariants(self) -> tuple:
        return self.kernel_invariants + self.h1_invariants

    def size(self) -> int:
        """Number of real spin-c structures; 0 encodes infinite."""
        out = 1
        for x in self.torsor_invariants:
            if x == 0:
                return 0
            out *= x
        return out


def _require_cells(data: EquivariantCWData, degree: int, what: str):
    if data.dim < degree:
        raise ShapeMismatch(
            f"{what} needs {degree}-cells; the complex has "
            f"dimension {data.dim}"
        )


def admits_real_structure(data: EquivariantCWData,
                          c1: Sequence[int]) -> bool:
    """True iff the class of Theta(c1) vanishes in H^2(Q).  c1 is checked
    closed on the data as given; on the reduced pair that class is
    [f_Q][Theta c1] = [Theta' f_M c1], which vanishes iff Theta' f_M c1
    lies in the column lattice of the reduced delta_Q[1]."""
    _require_cells(data, 2, "a first Chern class")
    if len(c1) != data.cells_M[2]:
        raise ShapeMismatch("c1 has wrong length for the 2-cells of M")
    if 2 < data.dim:
        if any(x != 0 for x in data.delta_M[2].mul_vec(list(c1))):
            raise NotCocycle("c1 is not closed")
    red = data.reduced
    pushed = [0] * red.cells_M[2]
    for c, x in enumerate(c1):
        for i, y in red.f_M[2].get(c, {}).items():
            pushed[i] += x * y
    image = red.theta[2].mul_vec(pushed)
    rhs = IntMatrix.from_grid(1, len(image), [image]).transpose()
    snf = smith_normal_form(red.delta_Q[1].transpose())
    return _diagonal_solve(snf, rhs) is not None


def real_structure_classes(data: EquivariantCWData) -> list[int]:
    """Invariants of H^1(Q) / Im Theta: classes on a fixed line bundle,
    Z^1(Q) / (B^1(Q) + Theta Z^1(M)), B^1(Q) the columns of delta_Q[0]."""
    _require_cells(data, 1, "H^1(Q) / Im Theta")
    data = data.reduced
    image = data.theta[1] @ data.z1_M
    return subquotient_invariants(cocycles(data.delta_Q, data.cells_Q, 1),
                                  _hstack(data.delta_Q[0], image))


def real_spinc_torsor(data: EquivariantCWData) -> RealStructureCensus:
    """Census of real spin-c structures on the trivial bundle.

    The trivial bundle always admits a real structure, and the census is
    a torsor over ker(Theta on H^2) x H^1(M)^inv / Im(1 + iota*).  For a
    c1 that :func:`admits_real_structure` accepts the torsor is the same
    group.  The kernel is the cocycles of M that Theta maps to
    coboundaries of Q, modulo B^2(M); the invariant part is the cocycles
    z with iota* z - z a coboundary, modulo B^1(M) + (1 + iota*) Z^1(M).
    """
    _require_cells(data, 2, "a first Chern class")
    data = data.reduced
    # B^n is the column lattice of delta[n - 1]
    z2 = cocycles(data.delta_M, data.cells_M, 2)
    kernel = _preimage(data.theta[2] @ z2, z2, data.delta_Q[1])

    z1, b1 = data.z1_M, data.delta_M[0]
    iz = data.iota[1] @ z1
    invariant = _preimage(iz + z1.scale(-1), z1, b1)
    return RealStructureCensus(
        exists=True,
        kernel_invariants=tuple(
            subquotient_invariants(kernel, data.delta_M[1])),
        h1_invariants=tuple(subquotient_invariants(
            invariant, _hstack(b1, iz + z1))),
    )


# ---------------------------------------------------------------------------
# Branched double covers from Seifert matrices
# ---------------------------------------------------------------------------


class SeifertMatrix:
    """A Seifert matrix of a link (possibly 0x0 for the unknot)."""

    __slots__ = ("A",)

    def __init__(self, A: IntMatrix):
        if A.rows != A.cols:
            raise ShapeMismatch("Seifert matrix must be square")
        self.A = A


def branched_cover_invariants(a: SeifertMatrix) -> tuple[int, int]:
    """(|H_1| with 0 for infinite, b_1) of the double branched cover.

    Both read off the symmetrized matrix A + A^t: the determinant is the
    Alexander polynomial at -1 up to sign, and the nullity is b_1.
    """
    sym = a.A + a.A.transpose()
    if sym.rows == 0:
        return (1, 0)
    det = int_det_sign_unimodular(sym)
    # a nonsingular form has full rank, so only a singular one is
    # eliminated again; for a knot det = Delta(-1) is odd
    b1 = sym.rows - int_rank(sym) if det == 0 else 0
    return (abs(det), b1)
