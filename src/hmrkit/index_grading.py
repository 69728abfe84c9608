"""Closed-form index and grading arithmetic.

The three ingredients: the index of the deformation operator on a closed
4-manifold with involution, the grading shift picked up along a loop of
configurations, and the structure of the grading set J as a Z-set,
with its stabilizers.  The recurring 1/2-factor (half the ordinary
monopole degree) means parity failures indicate input that no real
spin-c structure can realize — they raise, they are never rounded away.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .errors import InvalidInput, NotDivisibleBy8, OddPairing


class TopologicalData4:
    """Characteristic numbers of a closed 4-manifold with involution.

    ``c1_sq`` is c1(S+)^2 evaluated on the fundamental class, ``sigma``
    the signature; the Betti fields are dimensions of the (-1)-eigenspaces
    of the induced involution on H^1, H^+, H^0.
    """

    __slots__ = ("c1_sq", "sigma", "b1_inv", "bplus_inv", "b0_inv")

    def __init__(self, c1_sq: int, sigma: int, b1_inv: int, bplus_inv: int,
                 b0_inv: int):
        self.c1_sq, self.sigma = c1_sq, sigma
        self.b1_inv, self.bplus_inv, self.b0_inv = b1_inv, bplus_inv, b0_inv
        for name in ("b1_inv", "bplus_inv", "b0_inv"):
            if getattr(self, name) < 0:
                raise InvalidInput(f"{name} is a dimension; it is negative")


class GradingSetInfo:
    """Whether Z acts freely on the grading set, and the stabilizer index."""

    __slots__ = ("free", "stabilizer_index")

    def __init__(self, free: bool, stabilizer_index: int):
        self.free, self.stabilizer_index = free, stabilizer_index

    def __eq__(self, other):
        if type(other) is not GradingSetInfo:
            return NotImplemented
        return (self.free, self.stabilizer_index) == \
            (other.free, other.stabilizer_index)


def closed4_index(d: TopologicalData4) -> int:
    """Index = (c1^2 - sigma)/8 + (b1 - b+ - b0), invariant parts throughout.

    Raises NotDivisibleBy8 when c1^2 - sigma is not a multiple of 8; such
    input cannot come from a spin-c structure on a closed 4-manifold.
    """
    num = d.c1_sq - d.sigma
    if num % 8 != 0:
        raise NotDivisibleBy8(f"c1^2 - sigma = {num} is not divisible by 8")
    return num // 8 + d.b1_inv - d.bplus_inv - d.b0_inv


def loop_grading_shift(pairing: int) -> int:
    """Grading shift of a loop: half its cup-product pairing with c1.

    The pairing must be even; odd values cannot arise from classes
    compatible with the real structure.
    """
    if pairing % 2 != 0:
        raise OddPairing(f"pairing {pairing} is odd")
    return pairing // 2


def j_structure(c1_pairings: Sequence[int]) -> GradingSetInfo:
    """Structure of the grading set J from the pairings of c1 with the
    anti-invariant 2-cycles.

    J is a free Z-set exactly when all pairings vanish (c1 torsion);
    otherwise the stabilizer of the Z-action is generated by the gcd of
    the halved pairings.
    """
    halved = [loop_grading_shift(p) for p in c1_pairings]
    stab = 0
    for h in halved:
        stab = gcd(stab, abs(h))
    return GradingSetInfo(free=(stab == 0), stabilizer_index=stab)
