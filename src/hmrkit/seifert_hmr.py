"""Tower modules and assembled Floer packages for Seifert-fibered families.

The three homology flavors of the blow-up model decompose, for the
manifolds handled here, into a finite F2 part plus infinite "towers":
F2[v] (a *down* tower, v of degree -1), F2[v^-1,v]/F2[v] (an *up* tower)
and F2[v^-1,v] (a *full* tower).  :class:`TowerModule` records such a
decomposition symbolically; the truncated chain-level realizations are
handed to :mod:`hmrkit.complexes` for finite verification.

Supported inputs:

* manifolds with positive scalar curvature metrics (:func:`psc_hmr`),
  where everything is reducible and the answer is H^*(T^b1) tensored
  with a tower;
* lens spaces (:func:`lens_hmr`), the same three-sphere answer for
  each of the p real spin-c structures;
* five families of Brieskorn spheres with their branched-double-cover
  involutions, where the irreducible critical points are tabulated
  (:func:`brieskorn_irreducibles`) and cross-checked against a
  brute-force orbifold-line-bundle enumeration (:func:`divisor_count`).

:func:`brieskorn_hmr` is the one entry point for a Brieskorn answer: it
tabulates the spectrum, takes the default window or checks the given
one, and assembles the flavor triple.  The answer builds its explicit
chain model, and imports :mod:`hmrkit.complexes`, only when
``BrieskornResult.complexes`` is read.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import InvalidInput, NotCoprime, UnknownFamily

TOWER_KINDS = ("down", "up", "full")


# ---------------------------------------------------------------------------
# tower modules
# ---------------------------------------------------------------------------


class Tower:
    """One infinite summand: kind and anchor grading.

    A down tower occupies gradings anchor, anchor-1, ...; an up tower
    occupies anchor+1, anchor+2, ...; a full tower occupies everything.
    """

    __slots__ = ("kind", "anchor")

    def __init__(self, kind: str, anchor: int):
        if kind not in TOWER_KINDS:
            raise UnknownFamily(f"unknown tower kind {kind!r}")
        self.kind, self.anchor = kind, anchor

    def __eq__(self, other):
        if type(other) is not Tower:
            return NotImplemented
        return (self.kind, self.anchor) == (other.kind, other.anchor)

    def supports(self, g: int) -> bool:
        if self.kind == "down":
            return g <= self.anchor
        if self.kind == "up":
            return g >= self.anchor + 1
        return True


class TowerModule:
    """Finite part plus towers; ``undetermined`` flags an unknown answer.
    ``finite`` is sorted ((grading, multiplicity), ...), and ``towers`` a
    tuple of :class:`Tower`."""

    __slots__ = ("finite", "towers", "undetermined")

    def __init__(self, finite: tuple = (), towers: tuple = (),
                 undetermined: bool = False):
        self.finite, self.towers = finite, towers
        self.undetermined = undetermined

    def __eq__(self, other):
        if type(other) is not TowerModule:
            return NotImplemented
        return (self.finite, self.towers, self.undetermined) == \
            (other.finite, other.towers, other.undetermined)

    @staticmethod
    def from_parts(finite: dict, towers=()) -> "TowerModule":
        """The module of ``finite`` {grading: multiplicity} and ``towers``."""
        fin = tuple(sorted((g, m) for g, m in finite.items() if m))
        return TowerModule(fin, tuple(towers))

    def rank_at(self, g: int) -> int:
        """Total F2 rank in grading g (finite part + tower occupancies)."""
        rank = dict(self.finite).get(g, 0)
        rank += sum(1 for t in self.towers if t.supports(g))
        return rank

    def to_json(self) -> dict:
        return {
            "finite": [[g, m] for g, m in self.finite],
            "towers": [{"type": t.kind, "anchor": t.anchor}
                       for t in sorted(self.towers,
                                       key=lambda t: (t.kind, t.anchor))],
            "undetermined": self.undetermined,
        }


# ---------------------------------------------------------------------------
# positive scalar curvature and lens spaces
# ---------------------------------------------------------------------------


def psc_hmr(b1_inv: int, torsion: bool):
    """Flavor triple (hat, check, bar) for a PSC manifold.

    With non-torsion first Chern class everything vanishes.  Otherwise
    the answer is H^*(T^b1) tensored with the flavor's tower: binomial(b1, d)
    towers shifted up by d, for d = 0..b1.
    """
    if b1_inv < 0:
        raise InvalidInput(f"b1 must be nonnegative, got {b1_inv}")
    if not torsion:
        zero = TowerModule()
        return zero, zero, zero

    def towers(kind, base_anchor):
        out = []
        for d in range(b1_inv + 1):
            out.extend([Tower(kind, base_anchor + d)] * math.comb(b1_inv, d))
        return TowerModule(towers=tuple(out))

    return towers("down", 0), towers("up", -1), towers("full", 0)


def lens_hmr(p: int, q: int):
    """(count, triple) for L(p, q): its p real spin-c structures each carry
    the three-sphere flavor triple.  p below 1 or q outside [0, p) is
    InvalidInput; a common factor of p and q is NotCoprime."""
    if p < 1:
        raise InvalidInput(f"p must be a positive integer, got {p}")
    if not 0 <= q < p:
        raise InvalidInput(f"q must satisfy 0 <= q < p = {p}, got {q}")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"lens parameters ({p}, {q}) are not coprime")
    return p, psc_hmr(0, True)


# ---------------------------------------------------------------------------
# Brieskorn families
# ---------------------------------------------------------------------------

FAMILIES = ("2,3,+1", "2,3,-1", "2,5,-1", "2,5,+1", "2,7,29")


class BrieskornInput:
    """A family label, the parameter k, and an optional truncation window."""

    __slots__ = ("family", "k", "truncation")

    def __init__(self, family: str, k: int = 1,
                 truncation: tuple | None = None):
        if family not in FAMILIES:
            raise UnknownFamily(f"unknown family {family!r}")
        if k < 1:
            raise InvalidInput(f"k must be a positive integer, got {k}")
        self.family, self.k, self.truncation = family, k, truncation

    @property
    def pqr(self) -> tuple:
        p, q, tail = self.family.split(",")
        p, q = int(p), int(q)
        if tail in ("+1", "-1"):
            r = 2 * q * self.k + (1 if tail == "+1" else -1)
        else:
            r = int(tail)
        return p, q, r


class IrreducibleSpectrum:
    """Gradings/counts of irreducible generators plus reducible data.

    ``counts`` is sorted ((grading, count), ...).  ``hat_ambiguous`` marks
    configurations where a differential from the boundary-unstable
    reducible into the irreducibles cannot be excluded, so the hat flavor
    stays undetermined.
    """

    __slots__ = ("counts", "theta_minus1_grading", "hat_ambiguous")

    def __init__(self, counts: tuple, theta_minus1_grading: int,
                 hat_ambiguous: bool = False):
        if any(c <= 0 or c % 2 for _, c in counts):
            raise UnknownFamily("irreducibles must come in pairs")
        self.counts, self.hat_ambiguous = counts, hat_ambiguous
        self.theta_minus1_grading = theta_minus1_grading


def brieskorn_irreducibles(inp: BrieskornInput) -> IrreducibleSpectrum:
    """Tabulated irreducible spectrum for the supported families."""
    k = inp.k
    paired = 2 * (k // 2)
    if inp.family in ("2,3,+1", "2,3,-1"):
        counts = {0: paired}
        theta = -1
        ambiguous = inp.family == "2,3,-1"
    elif inp.family in ("2,5,-1", "2,5,+1"):
        counts = {i: 2 for i in range(k)}
        counts[k] = counts.get(k, 0) + paired
        theta = k + 1 if inp.family == "2,5,-1" else k
        ambiguous = False
    else:  # 2,7,29
        counts = {0: 2, 2: 2, 4: 2, 5: 4, 6: 2}
        theta = 7
        ambiguous = False
    spectrum = tuple(sorted((g, c) for g, c in counts.items() if c))
    return IrreducibleSpectrum(spectrum, theta, ambiguous)


def __getattr__(name):
    """``DIVISOR_MARGIN``, the Fraction 1/4 unless it has been set, made
    on first read so that of this module only :func:`divisor_count`, which
    reads it here, loads :mod:`fractions`.

    It is the margin of the window of :func:`divisor_count`: an orbifold
    line bundle E = (e; b1, b2, b3) on S^2(p, q, r) is counted when it has
    a holomorphic section (floor degree e >= 0) and 0 <= deg E < deg(K)/2
    - margin / r, with r the largest cone order.  The margin encodes which
    bundles pull back to the background bundle of the spin structure; it
    was calibrated on the (2,3,.) families and cross-checked against the
    (2,5,.) families and (2,7,29).  It is data, not a theorem: changing it
    changes counts.
    """
    if name != "DIVISOR_MARGIN":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from fractions import Fraction

    return globals().setdefault(name, Fraction(1, 4))


def divisor_count(p: int, q: int, r: int) -> int:
    """Brute-force count of orbifold line bundles carrying irreducibles.

    Enumerates E = (e; b1, b2, b3) with 0 <= e < 4 and 0 <= b_i < cone
    order, and keeps those in the window of DIVISOR_MARGIN (e >= 0 gives a
    holomorphic section on the sphere).  Each counted bundle carries one
    pair of irreducibles.
    """
    from fractions import Fraction

    for a, b in ((p, q), (p, r), (q, r)):
        if math.gcd(a, b) != 1:
            raise NotCoprime(f"cone orders {p},{q},{r} are not coprime")
    half_canonical = Fraction(1, 2) * (1 - Fraction(1, p) - Fraction(1, q)
                                       - Fraction(1, r))
    bound = half_canonical - __getattr__("DIVISOR_MARGIN") / max(p, q, r)
    count = 0
    for e in range(4):
        for b1 in range(p):
            for b2 in range(q):
                for b3 in range(r):
                    deg = (e + Fraction(b1, p) + Fraction(b2, q)
                           + Fraction(b3, r))
                    if 0 <= deg < bound:
                        count += 1
    return count


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


class BrieskornResult:
    """Flavor triple plus the explicit truncated chain-level model."""

    __slots__ = ("hat", "check", "bar", "spectrum", "truncation", "__dict__")

    def __init__(self, hat: TowerModule, check: TowerModule, bar: TowerModule,
                 spectrum: IrreducibleSpectrum, truncation: tuple):
        self.hat, self.check, self.bar = hat, check, bar
        self.spectrum, self.truncation = spectrum, truncation

    @cached_property
    def complexes(self):
        """The model on the truncation window, a
        :class:`hmrkit.complexes.ThreeComplexes` built on first read: the
        irreducibles and the two reducible towers, every differential zero.
        ``hmrkit.complexes`` is imported here, so that the other answers
        of this module do not load it.
        """
        from .complexes import BlockDifferentials, Generator, assemble

        lo, hi = self.truncation
        g0 = self.spectrum.theta_minus1_grading
        gens_o = tuple(Generator(f"irr{g}_{i}", "o", g)
                       for g, c in self.spectrum.counts for i in range(c))
        gens_s = tuple(Generator(f"th{i}", "s", g0 + i)
                       for i in range(hi - g0 + 1) if lo <= g0 + i <= hi)
        gens_u = tuple(Generator(f"th-{j}", "u", g0 - j + 1)
                       for j in range(1, g0 - lo + 2)
                       if lo <= g0 - j + 1 <= hi)
        return assemble(BlockDifferentials.zero(gens_o, gens_s, gens_u))


def brieskorn_hmr(inp: BrieskornInput) -> BrieskornResult:
    """Tabulate the spectrum and build the flavor triple; its truncated
    explicit complex is lazy.

    The reducible tower sits at gradings g, g+1, ... (boundary-stable
    side, g the grading shared by theta_0 and theta_-1) and g, g-1, ...
    (boundary-unstable side).  The trajectory-exclusion arguments behind
    the tabulated families force every differential to vanish, except
    possibly the unstable-to-irreducible piece flagged on the spectrum;
    in that case the hat flavor is reported undetermined.  Without a
    window in ``inp`` the truncation runs from 2 below the lowest grading
    of the spectrum to 10 above the highest.
    """
    spec = brieskorn_irreducibles(inp)
    gradings = [g for g, _ in spec.counts] + [spec.theta_minus1_grading]
    truncation = inp.truncation or (min(gradings) - 2, max(gradings) + 10)
    lo, hi = truncation
    if not (lo <= min(gradings) and max(gradings) <= hi):
        raise InvalidInput(f"truncation window {truncation} does not "
                           f"contain the spectrum")
    g0 = spec.theta_minus1_grading

    finite = dict(spec.counts)
    check = TowerModule.from_parts(finite, (Tower("up", g0 - 1),))
    bar = TowerModule.from_parts({}, (Tower("full", g0),))
    if spec.hat_ambiguous:
        hat = TowerModule(undetermined=True)
    else:
        hat = TowerModule.from_parts(finite, (Tower("down", g0),))
    return BrieskornResult(hat, check, bar, spec, (lo, hi))
