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
by plain rank arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CompositionNonzero, GradingViolation, ShapeMismatch
from .f2lin import (F2Matrix, bits, f2_block, f2_kernel_basis, f2_rank,
                    reduced_echelon, row_masks)

KINDS = ("o", "s", "u")


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
        no, ns, nu = len(self.gens_o), len(self.gens_s), len(self.gens_u)
        expected = {
            "d_oo": (no, no), "d_os": (ns, no),
            "d_uo": (no, nu), "d_us": (ns, nu),
            "bar_ss": (ns, ns), "bar_us": (ns, nu),
            "bar_su": (nu, ns), "bar_uu": (nu, nu),
        }
        for name, (r, c) in expected.items():
            m = getattr(self, name)
            if (m.rows, m.cols) != (r, c):
                raise ShapeMismatch(
                    f"{name} has shape {m.rows}x{m.cols}, expected {r}x{c}"
                )
        self._check_gradings()

    def _check_gradings(self):
        gr_pairs = [
            ("d_oo", self.gens_o, self.gens_o),
            ("d_os", self.gens_s, self.gens_o),
            ("d_uo", self.gens_o, self.gens_u),
            ("d_us", self.gens_s, self.gens_u),
        ]
        for name, tgt, src in gr_pairs:
            m = getattr(self, name)
            for (r, c) in m.ones:
                if src[c].gr - tgt[r].gr != 1:
                    raise GradingViolation(
                        f"{name}[{r},{c}] connects gr {src[c].gr} "
                        f"to gr {tgt[r].gr}"
                    )
        bar_pairs = [
            ("bar_ss", self.gens_s, self.gens_s),
            ("bar_us", self.gens_s, self.gens_u),
            ("bar_su", self.gens_u, self.gens_s),
            ("bar_uu", self.gens_u, self.gens_u),
        ]
        for name, tgt, src in bar_pairs:
            m = getattr(self, name)
            for (r, c) in m.ones:
                if src[c].bar_gr - tgt[r].bar_gr != 1:
                    raise GradingViolation(
                        f"{name}[{r},{c}] connects bar_gr {src[c].bar_gr} "
                        f"to bar_gr {tgt[r].bar_gr}"
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
    """One flavor: generators with a grading, plus a degree -1 differential."""

    name: str
    gens: tuple
    gradings: tuple  # integer grading per generator (gr or bar_gr)
    d: F2Matrix

    def indices(self, j: int) -> list[int]:
        return [k for k, g in enumerate(self.gradings) if g == j]

    def d_out(self, j: int) -> F2Matrix:
        """The differential restricted to grading j (landing in j-1)."""
        return _submatrix(self.d, self.indices(j - 1), self.indices(j))

    def d_in(self, j: int) -> F2Matrix:
        """The differential from grading j+1 landing in grading j."""
        return _submatrix(self.d, self.indices(j), self.indices(j + 1))

    def cycle_matrix(self, j: int) -> list[int]:
        """A basis of the cycles in grading j, as bitmasks over indices(j)."""
        return f2_kernel_basis(self.d_out(j))

    def homology_rank(self, j: int) -> int:
        return len(self.cycle_matrix(j)) - f2_rank(self.d_in(j))


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


def _submatrix(m: F2Matrix, rows: Sequence[int], cols: Sequence[int]) -> F2Matrix:
    rmap = {r: i for i, r in enumerate(rows)}
    cmap = {c: i for i, c in enumerate(cols)}
    ones = [(rmap[r], cmap[c]) for (r, c) in m.ones
            if r in rmap and c in cmap]
    return F2Matrix(len(rows), len(cols), frozenset(ones))


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
    ranks = {j: f.homology_rank(j) for j in sorted(set(f.gradings))}
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


def _induced_map_rank(fmat: F2Matrix, src: GradedComplex, tgt: GradedComplex,
                      j: int, deg: int) -> int:
    """Rank of the map H_j(src) -> H_{j+deg}(tgt) induced by fmat.

    That is rank(f(cycles) + boundaries) - rank(boundaries), on bitmasks.
    """
    f = _submatrix(fmat, tgt.indices(j + deg), src.indices(j))
    f_cols = row_masks(f.transpose())
    images = [_xor_of(f_cols, z) for z in src.cycle_matrix(j)]
    d_in = tgt.d_in(j + deg)
    boundaries = row_masks(d_in.transpose())
    return len(reduced_echelon(images + boundaries)) - f2_rank(d_in)


def _xor_of(vectors: Sequence[int], mask: int) -> int:
    """The sum of the vectors picked by the set bits of ``mask``."""
    out = 0
    for k in bits(mask):
        out ^= vectors[k]
    return out


def _exact_at(middle: GradedComplex, j: int,
              fmat: F2Matrix, src: GradedComplex, deg_f: int,
              gmat: F2Matrix, tgt: GradedComplex, deg_g: int) -> bool:
    """Exactness of H(src) -f-> H_j(middle) -g-> H(tgt) at grading j."""
    rank_f = _induced_map_rank(fmat, src, middle, j - deg_f, deg_f)
    rank_g = _induced_map_rank(gmat, middle, tgt, j, deg_g)
    comp = _induced_map_rank(gmat @ fmat, src, tgt,
                             j - deg_f, deg_f + deg_g)
    if comp != 0:
        return False
    return rank_f + rank_g == middle.homology_rank(j)


def verify_les_exact(c: ThreeComplexes, maps: LesMaps,
                     window: Optional[tuple[int, int]] = None) -> bool:
    """Check exactness of ... -> H(bar) -i-> H(check) -j-> H(hat) -p-> H(bar) -> ...

    The two extreme gradings of the window are skipped: truncating an
    infinite tower breaks exactness there by construction, and that is a
    truncation artifact, not a failure of the sequence.
    """
    all_gradings = (c.check.gradings + c.hat.gradings + c.bar.gradings)
    if not all_gradings:
        return True
    lo = min(all_gradings) if window is None else window[0]
    hi = max(all_gradings) if window is None else window[1]
    for j in range(lo + 1, hi):
        ok = (
            _exact_at(c.check, j, maps.i, c.bar, 0, maps.j, c.hat, 0)
            and _exact_at(c.hat, j, maps.j, c.check, 0, maps.p, c.bar, -1)
            and _exact_at(c.bar, j, maps.p, c.hat, -1, maps.i, c.check, 0)
        )
        if not ok:
            return False
    return True
