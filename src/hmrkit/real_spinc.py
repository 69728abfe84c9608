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
ker(Theta on H^2) x H^1(M)^inv / Im(1 + iota*).  No cohomology group is
presented in generator coordinates.

Constructing :class:`EquivariantCWData` is the one validation.  It builds
the matrices of Theta, iota* and pi* once per degree from the validated
orbit map, and derives delta_Q from them, 2 delta_Q = Theta delta_M pi*:
data that constructs has d.d = 0, a consistent orbit map, and chain maps
iota* and Theta, so the census functions below read those matrices and
do not check them again.

Branched double covers of links enter through their Seifert matrices:
|H_1| = |det(A + A^t)| and b_1 = nullity(A + A^t).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    MalformedOrbitMap,
    NotChainMap,
    NotCocycle,
    ShapeMismatch,
    input_field,
    input_int,
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


@dataclass(frozen=True)
class OrbitEntry:
    """Where one cell of M goes in the quotient."""

    degree: int
    index: int
    image: int
    fixed: bool
    sign: int


@dataclass(frozen=True)
class EquivariantCWData:
    """Cochain complexes of M and Q plus the cell-orbit pairing.

    ``delta_M[n]`` is the coboundary C^n(M) -> C^{n+1}(M) (rows indexed by
    (n+1)-cells), one per degree below the top dimension.

    Construction checks the shapes, d.d = 0 and the orbit map, then builds
    per degree n the matrices ``theta[n]`` of Theta: C^n(M) -> C^n(Q),
    ``iota[n]`` of iota* on C^n(M), and ``pullback[n]`` of
    pi*: C^n(Q) -> C^n(M), checks that iota* commutes with delta_M (else
    MalformedOrbitMap), and derives the coboundaries ``delta_Q`` of Q.
    Then pi* Theta = 1 + iota* and Theta is a chain map by construction.
    Errors name the degree or cell at fault.
    """

    cells_M: tuple
    cells_Q: tuple
    delta_M: tuple
    orbit: tuple
    delta_Q: tuple = field(init=False, compare=False, repr=False)
    theta: tuple = field(init=False, compare=False, repr=False)
    iota: tuple = field(init=False, compare=False, repr=False)
    pullback: tuple = field(init=False, compare=False, repr=False)
    # (space, degree) -> Z^n, filled by cocycle_lattice
    _cocycles: dict = field(init=False, compare=False, repr=False,
                            default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "cells_M", tuple(self.cells_M))
        object.__setattr__(self, "cells_Q", tuple(self.cells_Q))
        object.__setattr__(self, "delta_M", tuple(self.delta_M))
        object.__setattr__(self, "orbit", tuple(self.orbit))
        # the grids are sized by the cell counts, so validate them first
        preimages = self._validate()
        theta = [[[0] * m for _ in range(q)]
                 for m, q in zip(self.cells_M, self.cells_Q)]
        iota = [[[0] * m for _ in range(m)] for m in self.cells_M]
        pullback = [[[0] * q for _ in range(m)]
                    for m, q in zip(self.cells_M, self.cells_Q)]
        # lift[n][q]: the cell over q on which pi* has the factor +1
        lift = [[0] * q for q in self.cells_Q]
        # one pass over the orbits, which _validate has checked in range
        for (n, image), pre in preimages.items():
            lift[n][image] = min(pre[0].index, pre[-1].index)
            for e in pre:
                other = pre[-1] if pre[0] is e else pre[0]
                # the orientation factor of pi*: +1 on a fixed cell and on
                # the lower index of a free orbit, the listed sign on the
                # other cell
                sigma = 1 if e.index <= other.index else e.sign
                # (Theta beta)(image) = beta(e) + beta(iota e)
                theta[n][image][e.index] = 2 if e.fixed else sigma
                # (iota* beta)(e) = sign(e) * beta(other)
                iota[n][e.index][other.index] = e.sign
                # (pi* gamma)(e) = sigma(e) * gamma(image)
                pullback[n][e.index][image] = sigma
        for name, grids, cols in (("theta", theta, self.cells_M),
                                  ("iota", iota, self.cells_M),
                                  ("pullback", pullback, self.cells_Q)):
            object.__setattr__(self, name, tuple(
                IntMatrix(len(g), c, tuple(map(tuple, g)))
                for g, c in zip(grids, cols)))
        delta_Q = []
        for n, dm in enumerate(self.delta_M):
            if (dm @ self.iota[n]).data != (self.iota[n + 1] @ dm).data:
                raise MalformedOrbitMap(
                    f"iota* does not commute with delta_M in degree {n}")
            # row q of delta_Q is row lift[n + 1][q] of delta_M pi*
            rows = (dm @ self.pullback[n]).data
            delta_Q.append(IntMatrix(self.cells_Q[n + 1], self.cells_Q[n],
                                     tuple(rows[e] for e in lift[n + 1])))
        object.__setattr__(self, "delta_Q", tuple(delta_Q))

    # -- validation ---------------------------------------------------

    def _validate(self) -> dict:
        """Check shapes and the orbit map; return the preimages of each
        quotient cell, keyed by (degree, image)."""
        dim = len(self.cells_M) - 1
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
        for n in range(dim + 1):
            for i in range(self.cells_M[n]):
                if (n, i) not in seen:
                    raise MalformedOrbitMap(f"cell {(n, i)} missing")
            for q in range(self.cells_Q[n]):
                pre = preimages.get((n, q), [])
                if len(pre) == 1 and pre[0].fixed:
                    continue
                if len(pre) == 2 and not pre[0].fixed and not pre[1].fixed:
                    if pre[0].sign != pre[1].sign:
                        raise MalformedOrbitMap(
                            f"free orbit over ({n},{q}) has unequal signs"
                        )
                    continue
                raise MalformedOrbitMap(
                    f"quotient cell ({n},{q}) covered by {len(pre)} cells "
                    "with inconsistent fixed flags"
                )
        return preimages

    # -- derived structure -------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.cells_M) - 1

    def cocycle_lattice(self, space: str, n: int) -> IntMatrix:
        """Z^n of M or Q (``space`` "M" or "Q") by :func:`cocycles`,
        computed on first use and kept on this object."""
        key = (space, n)
        if key not in self._cocycles:
            cochains = ((self.delta_M, self.cells_M) if space == "M"
                        else (self.delta_Q, self.cells_Q))
            self._cocycles[key] = cocycles(*cochains, n)
        return self._cocycles[key]

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
        """Parse :meth:`to_json` output; a malformed field is InvalidInput."""

        def counts(v):
            return tuple(input_int(n) for n in v)

        def matrices(v):
            return tuple(IntMatrix.from_json(m) for m in v)

        def flag(v):
            if not isinstance(v, bool):
                raise TypeError(f"'fixed' must be a boolean, got {v!r}")
            return v

        def orbit(v):
            return tuple(
                OrbitEntry(degree=input_int(o["cell"][0]),
                           index=input_int(o["cell"][1]),
                           image=input_int(o["image"]), fixed=flag(o["fixed"]),
                           sign=input_int(o["sign"]))
                for o in v)

        cells_M = input_field(obj, "cells_M", counts)
        cells_Q = input_field(obj, "cells_Q", counts)
        delta_M = input_field(obj, "delta_M", matrices)
        delta_Q = input_field(obj, "delta_Q", matrices)
        data = EquivariantCWData(cells_M, cells_Q, delta_M,
                                 input_field(obj, "orbit", orbit))
        # the body's delta_Q must be the derived one: with the orbit map
        # checked, that is Theta commuting with the coboundaries, so wrong
        # entries are NotChainMap
        if len(delta_Q) != data.dim:
            raise ShapeMismatch(f"dimension {data.dim} needs {data.dim} "
                                f"coboundaries for Q, got {len(delta_Q)}")
        for n, (given, derived) in enumerate(zip(delta_Q, data.delta_Q)):
            if (given.rows, given.cols) != (derived.rows, derived.cols):
                raise ShapeMismatch(f"delta_Q[{n}] has wrong shape")
            if given.data != derived.data:
                raise NotChainMap(f"Theta does not commute with the "
                                  f"coboundaries in degree {n}")
        return data


def verify_theta_chain_map(data: EquivariantCWData, degree: int) -> bool:
    """delta_Q . Theta = Theta . delta_M in the given degree: true for all
    data that constructs, and kept as a check of that."""
    if degree >= data.dim:
        return True
    lhs = data.delta_Q[degree] @ data.theta[degree]
    rhs = data.theta[degree + 1] @ data.delta_M[degree]
    return lhs.data == rhs.data


def verify_naturality(data: EquivariantCWData, degree: int) -> bool:
    """pi* . Theta = 1 + iota* on cochains in the given degree."""
    lhs = data.pullback[degree] @ data.theta[degree]
    rhs = IntMatrix.identity(data.cells_M[degree]) + data.iota[degree]
    return lhs.data == rhs.data


# ---------------------------------------------------------------------------
# Cochain lattices
# ---------------------------------------------------------------------------


def cocycles(deltas: Sequence[IntMatrix], cells: Sequence[int],
             n: int) -> IntMatrix:
    """Z^n as columns: a basis of ker(delta^n), all of C^n in the top
    degree."""
    if n < len(deltas):
        return IntMatrix.from_columns(cells[n], int_kernel_basis(deltas[n]))
    return IntMatrix.identity(cells[n])


def coboundaries(deltas: Sequence[IntMatrix], cells: Sequence[int],
                 n: int) -> IntMatrix:
    """B^n as columns: delta^{n-1}, no columns in degree 0."""
    return deltas[n - 1] if n else IntMatrix.zero(cells[0], 0)


def _hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ShapeMismatch("hstack row mismatch")
    return IntMatrix(a.rows, a.cols + b.cols,
                     tuple(ra + rb for ra, rb in zip(a.data, b.data)))


def _preimage(t: IntMatrix, z: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Columns spanning the combinations of the columns of z that t maps
    into span(b): the first z.cols coordinates of ker [t z | b], so the
    sign of b does not matter."""
    kern = int_kernel_basis(_hstack(t @ z, b))
    return z @ IntMatrix.from_columns(z.cols, [v[:z.cols] for v in kern])


def subquotient_invariants(gens: IntMatrix, rels: IntMatrix) -> list[int]:
    """Invariants of (column span of gens) / (column span of rels).

    With U gens V = D of rank r, x -> ((U x)_i / d_i)_{i<r} maps the span
    of gens onto Z^r, so the answer is the cokernel of the first r rows of
    D^-1 U rels.  The relation columns must lie in the generator span.
    """
    snf = smith_normal_form(gens)
    y = _diagonal_solve(snf, rels)
    if y is None:
        raise ShapeMismatch("relations do not lie in the generator span")
    r = sum(1 for x in snf.diagonal() if x)
    return cokernel_invariants(IntMatrix(r, rels.cols, tuple(y[:r])))


# ---------------------------------------------------------------------------
# Census operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealStructureCensus:
    """Existence plus the torsor structure of real spin-c structures."""

    exists: bool
    kernel_invariants: tuple
    h1_invariants: tuple

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
    """True iff the class of Theta(c1) vanishes in H^2(Q): Theta(c1) lies
    in B^2(Q), the column lattice of delta_Q[1]."""
    _require_cells(data, 2, "a first Chern class")
    if len(c1) != data.cells_M[2]:
        raise ShapeMismatch("c1 has wrong length for the 2-cells of M")
    if 2 < data.dim:
        if any(x != 0 for x in data.delta_M[2].mul_vec(list(c1))):
            raise NotCocycle("c1 is not closed")
    image = data.theta[2].mul_vec(list(c1))
    rhs = IntMatrix.from_columns(len(image), [image])
    return _diagonal_solve(smith_normal_form(data.delta_Q[1]), rhs) is not None


def real_structure_classes(data: EquivariantCWData) -> list[int]:
    """Invariants of H^1(Q) / Im Theta: classes on a fixed line bundle,
    Z^1(Q) / (B^1(Q) + Theta Z^1(M))."""
    _require_cells(data, 1, "H^1(Q) / Im Theta")
    q = (data.delta_Q, data.cells_Q)
    image = data.theta[1] @ data.cocycle_lattice("M", 1)
    return subquotient_invariants(data.cocycle_lattice("Q", 1),
                                  _hstack(coboundaries(*q, 1), image))


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
    m = (data.delta_M, data.cells_M)
    kernel = _preimage(data.theta[2], data.cocycle_lattice("M", 2),
                       coboundaries(data.delta_Q, data.cells_Q, 2))

    z1, b1 = data.cocycle_lattice("M", 1), coboundaries(*m, 1)
    iota, one = data.iota[1], IntMatrix.identity(data.cells_M[1])
    invariant = _preimage(iota + one.scale(-1), z1, b1)
    return RealStructureCensus(
        exists=True,
        kernel_invariants=tuple(
            subquotient_invariants(kernel, coboundaries(*m, 2))),
        h1_invariants=tuple(subquotient_invariants(
            invariant, _hstack(b1, (iota + one) @ z1))),
    )


# ---------------------------------------------------------------------------
# Branched double covers from Seifert matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeifertMatrix:
    """A Seifert matrix of a link (possibly 0x0 for the unknot)."""

    A: IntMatrix

    def __post_init__(self):
        if self.A.rows != self.A.cols:
            raise ShapeMismatch("Seifert matrix must be square")


def branched_cover_invariants(a: SeifertMatrix) -> tuple[int, int]:
    """(|H_1| with 0 for infinite, b_1) of the double branched cover.

    Both read off the symmetrized matrix A + A^t: the determinant is the
    Alexander polynomial at -1 up to sign, and the nullity is b_1.
    """
    sym = a.A + a.A.transpose()
    if sym.rows == 0:
        return (1, 0)
    det = int_det_sign_unimodular(sym)
    b1 = sym.rows - int_rank(sym)
    return (abs(det), b1)
