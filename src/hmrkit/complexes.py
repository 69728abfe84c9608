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

The maps i: bar -> check, j: check -> hat, p: hat -> bar are chain maps
(p lowers the grading by one) and induce the long exact sequence relating
the three homologies; :func:`verify_les_exact` checks exactness per grading
by plain rank arithmetic.  Each flavor reduces each of its gradings once,
to its cycles and an echelon basis of its boundaries, and :func:`homology`
and the LES check share that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import CompositionNonzero, GradingViolation, ShapeMismatch
# f2_rank is unused here, but the benchmark's tracing test reads it as
# complexes.f2_rank
from .f2lin import (F2Matrix, f2_block, f2_kernel_basis,  # noqa: F401
                    f2_rank, reduced_echelon, xor_of)

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
    """One flavor: generators with a grading, plus a degree -1 differential.

    Chains are bitmasks over all generators.  The columns of d are read
    once, on first use of :attr:`columns`, and each grading is reduced
    once, on first use of :attr:`levels`; homology ranks and the LES check
    read those two tables.
    """

    name: str
    gens: tuple
    gradings: tuple  # integer grading per generator (gr or bar_gr)
    d: F2Matrix

    def indices(self, j: int) -> list[int]:
        return [k for k, g in enumerate(self.gradings) if g == j]

    @cached_property
    def columns(self) -> tuple:
        """Column c of d as a bitmask over all generators: the boundary of
        generator c."""
        return self.d.transpose().masks

    def cycle_matrix(self, j: int) -> list[int]:
        """A basis of the cycles in grading j, as bitmasks over all
        generators."""
        idx = self.indices(j)
        d_j = F2Matrix(len(idx), self.d.rows,
                       tuple(self.columns[c] for c in idx)).transpose()
        units = [1 << c for c in idx]
        return [xor_of(units, z) for z in f2_kernel_basis(d_j)]

    @cached_property
    def levels(self) -> dict[int, tuple[list[int], dict[int, int]]]:
        """Per grading j: the cycles Z_j, and B_j as a reduced echelon
        basis ``{pivot: row}``.  The columns of d in grading j + 1 span
        B_j, and they lie in grading j only because d has degree -1, which
        :func:`assemble` guarantees."""
        return {j: (self.cycle_matrix(j), reduced_echelon(
                    self.columns[c] for c in self.indices(j + 1)))
                for j in sorted(set(self.gradings))}

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
    """Build the three total differentials from the eight blocks.

    Raises CompositionNonzero downstream if the result fails d^2 = 0;
    shape and grading problems surface here.
    """
    b = blocks
    check_d = f2_block([
        [b.d_oo, b.d_uo @ b.bar_su],
        [b.d_os, b.bar_ss + (b.d_us @ b.bar_su)],
    ])
    hat_d = f2_block([
        [b.d_oo, b.d_uo],
        [b.bar_su @ b.d_os, b.bar_uu + (b.bar_su @ b.d_us)],
    ])
    bar_d = f2_block([
        [b.bar_ss, b.bar_us],
        [b.bar_su, b.bar_uu],
    ])
    check_gens = b.gens_o + b.gens_s
    hat_gens = b.gens_o + b.gens_u
    bar_gens = b.gens_s + b.gens_u
    return ThreeComplexes(
        blocks=b,
        check=GradedComplex("check", check_gens,
                            tuple(g.gr for g in check_gens), check_d),
        hat=GradedComplex("hat", hat_gens,
                          tuple(g.gr for g in hat_gens), hat_d),
        bar=GradedComplex("bar", bar_gens,
                          tuple(g.bar_gr for g in bar_gens), bar_d),
    )


def verify_d_squared(c: ThreeComplexes) -> bool:
    """True iff all three total differentials square to zero."""
    return all((f.d @ f.d).is_zero() for f in (c.check, c.hat, c.bar))


def homology(c: ThreeComplexes, flavor: str) -> dict[int, int]:
    """Graded F2 homology ranks of the chosen flavor (zero ranks dropped)."""
    f = c.flavor(flavor)
    if not (f.d @ f.d).is_zero():
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
    """Assemble i, j, p and verify the chain-map identities.

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
    if not ((imat @ c.bar.d) + (c.check.d @ imat)).is_zero():
        raise ShapeMismatch("i fails the chain-map identity")
    if not ((jmat @ c.check.d) + (c.hat.d @ jmat)).is_zero():
        raise ShapeMismatch("j fails the chain-map identity")
    if not ((pmat @ c.hat.d) + (c.bar.d @ pmat)).is_zero():
        raise ShapeMismatch("p fails the chain-map identity")
    return LesMaps(i=imat, j=jmat, p=pmat)


def _induced_ranks(fmat: F2Matrix, src: GradedComplex, tgt: GradedComplex,
                   deg: int) -> dict[int, int]:
    """Per grading j of src, the rank of H_j(src) -> H_{j+deg}(tgt) induced
    by fmat: rank(f(Z_j) + B_{j+deg}) - rank(B_{j+deg}).

    f(Z_j) is taken in all of tgt, which is the grading j + deg part only
    because fmat respects the gradings; :func:`les_maps` builds i, j and p
    so that they do.
    """
    f_cols = fmat.transpose().masks
    ranks = {}
    for j, (cycles, _) in src.levels.items():
        boundaries = tgt.levels.get(j + deg, _EMPTY_LEVEL)[1]
        images = [xor_of(f_cols, z) for z in cycles]
        span = reduced_echelon([*boundaries.values(), *images])
        ranks[j] = len(span) - len(boundaries)
    return ranks


def verify_les_exact(c: ThreeComplexes, maps: LesMaps,
                     window: Optional[tuple[int, int]] = None) -> bool:
    """Check exactness of ... -> H(bar) -i-> H(check) -j-> H(hat) -p-> H(bar) -> ...

    At H_j of the middle term between f and g, g . f induces zero, and
    rank f + rank g is the rank of H_j.  The two extreme gradings of the
    window are skipped: truncating an infinite tower breaks exactness there
    by construction, and that is a truncation artifact, not a failure of
    the sequence.
    """
    all_gradings = (c.check.gradings + c.hat.gradings + c.bar.gradings)
    if not all_gradings:
        return True
    lo = min(all_gradings) if window is None else window[0]
    hi = max(all_gradings) if window is None else window[1]
    # arrow k runs from spaces[k] to spaces[k + 1]; the sequence has period 3
    spaces = (c.bar, c.check, c.hat, c.bar, c.check)
    arrows = ((maps.i, 0), (maps.j, 0), (maps.p, -1))
    ranks = [_induced_ranks(f, spaces[k], spaces[k + 1], deg)
             for k, (f, deg) in enumerate(arrows)]
    for k in range(3):  # exactness at spaces[k + 1]
        (f, deg_f), (g, deg_g) = arrows[k], arrows[(k + 1) % 3]
        composite = _induced_ranks(g @ f, spaces[k], spaces[k + 2],
                                   deg_f + deg_g)
        for j in range(lo + 1, hi):
            into = ranks[k].get(j - deg_f, 0)
            out_of = ranks[(k + 1) % 3].get(j, 0)
            if composite.get(j - deg_f, 0) or \
                    into + out_of != spaces[k + 1].homology_rank(j):
                return False
    return True
