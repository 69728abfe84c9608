"""Three-flavor chain complexes over F2 and their long exact sequence.

Generators come in three kinds — interior (o), boundary-stable (s) and
boundary-unstable (u) — and carry an integer grading ``gr`` plus, for
boundary generators, a second grading ``bar_gr`` (equal to ``gr`` for the
stable kind and ``gr - 1`` for the unstable kind).  Eight block matrices
between the kind-subspaces assemble into three total differentials:

    check_d = [[d_oo,        d_uo . bar_su        ],
               [d_os,        bar_ss + d_us . bar_su]]   on C_o + C_s

    hat_d   = [[d_oo,        d_uo                  ],
               [bar_su . d_os, bar_uu + bar_su . d_us]] on C_o + C_u

    bar_d   = [[bar_ss, bar_us],
               [bar_su, bar_uu]]                        on C_s + C_u

(all signs are immaterial over F2).  Block naming convention: superscript
source / subscript target turns into ``d_<src><tgt>`` for the four blocks
counting trajectories through the interior, and ``bar_<src><tgt>`` for the
four counting boundary trajectories.  The connecting block ``bar_su`` is the
boundary-obstructed one: it lowers ``bar_gr`` by 1 while raising nothing.

The maps i: bar -> check, j: check -> hat and p: hat -> bar (p lowers
the grading by one) are chain maps, and induce the long exact sequence of
the three homologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CompositionNonzero, GradingViolation, ShapeMismatch
# f2_rank is unused here, but the benchmark's tracing test reads it as
# complexes.f2_rank
from .f2lin import (F2Matrix, f2_block, f2_rank,  # noqa: F401
                    reduced_echelon, xor_of)

KINDS = ("o", "s", "u")
#: the (cycles, boundaries) of a grading with no generators
_EMPTY_LEVEL: tuple = ((), {})


@dataclass(frozen=True)
class Generator:
    """A labeled chain-group generator with kind and grading."""

    id: str
    kind: str
    gr: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeMismatch(f"unknown generator kind {self.kind!r}")

    @property
    def bar_gr(self) -> int:
        """Boundary grading; only meaningful for the s/u kinds."""
        if self.kind == "u":
            return self.gr - 1
        return self.gr


@dataclass(frozen=True)
class BlockDifferentials:
    """The eight differential blocks between the kind-subspaces.

    Shapes: ``d_oo``: o->o, ``d_os``: o->s, ``d_uo``: u->o, ``d_us``: u->s,
    ``bar_ss``: s->s, ``bar_us``: u->s, ``bar_su``: s->u, ``bar_uu``: u->u,
    each stored rows-by-target, columns-by-source.
    """

    gens_o: tuple
    gens_s: tuple
    gens_u: tuple
    d_oo: F2Matrix
    d_os: F2Matrix
    d_uo: F2Matrix
    d_us: F2Matrix
    bar_ss: F2Matrix
    bar_us: F2Matrix
    bar_su: F2Matrix
    bar_uu: F2Matrix

    def __post_init__(self):
        # every shape first: the grading checks index by the one-positions
        for name, tgt, src in self._named_blocks():
            m = getattr(self, name)
            if (m.rows, m.cols) != (len(tgt), len(src)):
                raise ShapeMismatch(f"{name} has shape {m.rows}x{m.cols}, "
                                    f"expected {len(tgt)}x{len(src)}")
        # the d blocks lower gr by one, the bar blocks lower bar_gr by one
        for name, tgt, src in self._named_blocks():
            grading = "bar_gr" if name.startswith("bar") else "gr"
            for (r, c) in getattr(self, name).ones:
                top = getattr(src[c], grading)
                bottom = getattr(tgt[r], grading)
                if top - bottom != 1:
                    raise GradingViolation(
                        f"{name}[{r},{c}] connects {grading} {top} "
                        f"to {grading} {bottom}")

    def _named_blocks(self):
        """(block name, target generators, source generators) per block."""
        o, s, u = self.gens_o, self.gens_s, self.gens_u
        return (("d_oo", o, o), ("d_os", s, o), ("d_uo", o, u),
                ("d_us", s, u), ("bar_ss", s, s), ("bar_us", s, u),
                ("bar_su", u, s), ("bar_uu", u, u))

    @cached_property
    def complexes(self) -> "ThreeComplexes":
        """Built on first read; see :func:`assemble`."""
        check_d = f2_block([
            [self.d_oo, self.d_uo @ self.bar_su],
            [self.d_os, self.bar_ss + (self.d_us @ self.bar_su)],
        ])
        hat_d = f2_block([
            [self.d_oo, self.d_uo],
            [self.bar_su @ self.d_os,
             self.bar_uu + (self.bar_su @ self.d_us)],
        ])
        bar_d = f2_block([
            [self.bar_ss, self.bar_us],
            [self.bar_su, self.bar_uu],
        ])
        o, s, u = self.gens_o, self.gens_s, self.gens_u
        return ThreeComplexes(
            blocks=self,
            check=GradedComplex(tuple(g.gr for g in o + s), check_d),
            hat=GradedComplex(tuple(g.gr for g in o + u), hat_d),
            bar=GradedComplex(tuple(g.bar_gr for g in s + u), bar_d),
        )

    @staticmethod
    def zero(gens_o, gens_s, gens_u) -> "BlockDifferentials":
        no, ns, nu = len(gens_o), len(gens_s), len(gens_u)
        z = F2Matrix.zero
        return BlockDifferentials(
            tuple(gens_o), tuple(gens_s), tuple(gens_u),
            z(no, no), z(ns, no), z(no, nu), z(ns, nu),
            z(ns, ns), z(ns, nu), z(nu, ns), z(nu, nu),
        )


@dataclass(frozen=True)
class GradedComplex:
    """One flavor: the grading of each generator, plus a degree -1
    differential.

    Chains are bitmasks over all generators.  The columns of d are read
    once, on first use of :attr:`columns`, and each grading is eliminated
    once, on first use of :attr:`levels`; homology ranks and the LES check
    read those two tables.  d . d is multiplied out once, for both checks.
    """

    gradings: tuple  # integer grading per generator (gr or bar_gr)
    d: F2Matrix

    @cached_property
    def d_squared_zero(self) -> bool:
        return (self.d @ self.d).is_zero()

    @cached_property
    def columns(self) -> tuple:
        """Column c of d as a bitmask over all generators: the boundary of
        generator c."""
        return self.d.transpose().masks

    def cycle_matrix(self, j: int) -> tuple[list[int], dict[int, int]]:
        """Z_j (bitmasks over all generators) and B_{j-1} (a reduced echelon
        basis ``{pivot: row}``) from one elimination of the columns of
        grading j, column c tagged with bit n + c (n = d.rows).  A pivot is
        a lowest bit, so a row with a tag pivot has no boundary left and its
        tags are a cycle; the other rows, tags masked off, span B_{j-1}, in
        grading j - 1 as d has degree -1 (:func:`assemble` checks it)."""
        n = self.d.rows
        echelon = reduced_echelon(self.columns[c] | 1 << n + c for c, g
                                  in enumerate(self.gradings) if g == j)
        return ([row >> n for pivot, row in echelon.items() if pivot >= n],
                {pivot: row & (1 << n) - 1
                 for pivot, row in echelon.items() if pivot < n})

    @cached_property
    def levels(self) -> dict[int, tuple[list[int], dict[int, int]]]:
        """Per grading j: Z_j, and B_j as ``{pivot: row}``, from the
        eliminations of gradings j and j + 1 (:meth:`cycle_matrix`)."""
        reduced = {j: self.cycle_matrix(j) for j in sorted(set(self.gradings))}
        return {j: (cycles, reduced.get(j + 1, _EMPTY_LEVEL)[1])
                for j, (cycles, _) in reduced.items()}

    def rank_mod_boundaries(self, j: int, vectors: list[int]) -> int:
        """rank(vectors + B_j) - rank(B_j): zero iff each vector bounds."""
        boundaries = self.levels.get(j, _EMPTY_LEVEL)[1]
        return (len(reduced_echelon([*boundaries.values(), *vectors]))
                - len(boundaries))

    def homology_rank(self, j: int) -> int:
        cycles, boundaries = self.levels.get(j, _EMPTY_LEVEL)
        return len(cycles) - len(boundaries)


@dataclass(frozen=True)
class ThreeComplexes:
    """Assembled check/hat/bar complexes sharing one block-differential set."""

    blocks: BlockDifferentials
    check: GradedComplex
    hat: GradedComplex
    bar: GradedComplex

    def flavor(self, name: str) -> GradedComplex:
        try:
            return {"check": self.check, "hat": self.hat,
                    "bar": self.bar}[name]
        except KeyError:
            raise ShapeMismatch(f"unknown flavor {name!r}") from None


def assemble(blocks: BlockDifferentials) -> ThreeComplexes:
    """The three total differentials of the eight blocks, built on the
    first call per ``blocks`` and returned by every later one.

    Raises CompositionNonzero downstream if the result fails d^2 = 0;
    shape and grading problems surface here.
    """
    return blocks.complexes


def verify_d_squared(c: ThreeComplexes) -> bool:
    """True iff all three total differentials square to zero."""
    return all(f.d_squared_zero for f in (c.check, c.hat, c.bar))


def homology(c: ThreeComplexes, flavor: str) -> dict[int, int]:
    """Graded F2 homology ranks of the chosen flavor (zero ranks dropped)."""
    f = c.flavor(flavor)
    if not f.d_squared_zero:
        raise CompositionNonzero(f"{flavor} differential does not square to 0")
    ranks = {j: f.homology_rank(j) for j in f.levels}
    return {j: r for j, r in ranks.items() if r}


@dataclass(frozen=True)
class LesMaps:
    """The three chain maps of the long exact sequence, with their degrees."""

    i: F2Matrix  # bar -> check, degree 0
    j: F2Matrix  # check -> hat, degree 0
    p: F2Matrix  # hat -> bar, degree -1


def les_maps(blocks: BlockDifferentials) -> LesMaps:
    """Assemble i, j, p and verify the chain-map identities f d = d f,
    by comparing the two sides, on the complexes that :func:`assemble`
    built for ``blocks``.

        i = [[0, d_uo], [1, d_us]]     (C_s + C_u  ->  C_o + C_s)
        j = [[1, 0], [0, bar_su]]      (C_o + C_s  ->  C_o + C_u)
        p = [[d_os, d_us], [0, 1]]     (C_o + C_u  ->  C_s + C_u)
    """
    b = blocks
    no, ns, nu = len(b.gens_o), len(b.gens_s), len(b.gens_u)
    z = F2Matrix.zero
    imat = f2_block([
        [z(no, ns), b.d_uo],
        [F2Matrix.identity(ns), b.d_us],
    ])
    jmat = f2_block([
        [F2Matrix.identity(no), z(no, ns)],
        [z(nu, no), b.bar_su],
    ])
    pmat = f2_block([
        [b.d_os, b.d_us],
        [z(nu, no), F2Matrix.identity(nu)],
    ])
    c = assemble(blocks)
    for name, f, src, tgt in (("i", imat, c.bar, c.check),
                              ("j", jmat, c.check, c.hat),
                              ("p", pmat, c.hat, c.bar)):
        if f @ src.d != tgt.d @ f:
            raise ShapeMismatch(f"{name} fails the chain-map identity")
    return LesMaps(i=imat, j=jmat, p=pmat)


def _induced_ranks(f_cols: tuple, src: GradedComplex, tgt: GradedComplex,
                   deg: int) -> dict[int, tuple[list[int], int]]:
    """Per grading j of src, the images f(Z_j) under the map with columns
    ``f_cols``, and the rank of the map H_j(src) -> H_{j+deg}(tgt) they
    induce.

    f(Z_j) is taken in all of tgt, which is the grading j + deg part only
    because the map respects the gradings; :func:`les_maps` builds i, j and
    p so that they do.
    """
    induced = {}
    for j, (cycles, _) in src.levels.items():
        images = [xor_of(f_cols, z) for z in cycles]
        induced[j] = images, tgt.rank_mod_boundaries(j + deg, images)
    return induced


def verify_les_exact(c: ThreeComplexes, maps: LesMaps) -> bool:
    """Check exactness of ... -> H(bar) -i-> H(check) -j-> H(hat) -p-> H(bar) -> ...

    At H_j of the middle term between f and g, g . f induces zero, and
    rank f + rank g is the rank of H_j, at every grading j of the middle
    term (at a grading with no generators every term is zero).  The
    composite is g applied to the images f(Z) that the rank of f is read
    from, so no product of maps is formed.
    """
    # arrow k runs from spaces[k] to spaces[k + 1]; the sequence has period 3
    spaces = (c.bar, c.check, c.hat, c.bar, c.check)
    arrows = ((maps.i, 0), (maps.j, 0), (maps.p, -1))
    cols = [f.transpose().masks for f, _ in arrows]
    induced = [_induced_ranks(cols[k], spaces[k], spaces[k + 1], deg)
               for k, (_, deg) in enumerate(arrows)]
    for k in range(3):  # exactness at spaces[k + 1], between arrows k and g
        g = (k + 1) % 3
        deg_f, deg_g = arrows[k][1], arrows[g][1]
        for j in spaces[k + 1].levels:
            images, into = induced[k].get(j - deg_f, ((), 0))
            composite = [xor_of(cols[g], y) for y in images]
            if spaces[k + 2].rank_mod_boundaries(j + deg_g, composite) or \
                    into + induced[g][j][1] != spaces[k + 1].homology_rank(j):
                return False
    return True
