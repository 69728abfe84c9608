"""Tests for three-flavor complex assembly, homology and the LES checker."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmrkit import complexes
from hmrkit.complexes import (
    BlockDifferentials,
    Generator,
    LesMaps,
    assemble,
    homology,
    les_maps,
    verify_d_squared,
    verify_les_exact,
)
from hmrkit.errors import CompositionNonzero, GradingViolation, ShapeMismatch
from hmrkit.f2lin import F2Matrix
from hmrkit.morse_blowup import (BaseMorseData, BasePoint, LinearFlowModel,
                                 build_model_complexes)


def zero_blocks(gens_o=(), gens_s=(), gens_u=()):
    return BlockDifferentials.zero(gens_o, gens_s, gens_u)


def test_generator_bar_grading_convention():
    assert Generator("a", "s", 3).bar_gr == 3
    assert Generator("b", "u", 3).bar_gr == 2


def test_generator_rejects_bad_kind():
    with pytest.raises(ShapeMismatch):
        Generator("x", "q", 0)


def test_assemble_all_zero():
    gens_s = (Generator("s0", "s", 0), Generator("s1", "s", 1))
    gens_u = (Generator("u0", "u", 0),)
    c = assemble(zero_blocks((), gens_s, gens_u))
    assert c.check.d.is_zero()
    assert c.hat.d.is_zero()
    assert c.bar.d.is_zero()
    assert verify_d_squared(c)


def test_assemble_truncated_alternating_tower():
    # a boundary tower: u generators in gradings 1..5, s in 5..9, no
    # differentials anywhere — each flavor is just its chain group
    gens_u = tuple(Generator(f"u{g}", "u", g) for g in range(1, 6))
    gens_s = tuple(Generator(f"s{g}", "s", g) for g in range(5, 10))
    c = assemble(zero_blocks((), gens_s, gens_u))
    assert verify_d_squared(c)
    assert homology(c, "check") == {g: 1 for g in range(5, 10)}
    assert homology(c, "hat") == {g: 1 for g in range(1, 6)}
    assert homology(c, "bar") == {g: 1 for g in range(0, 10)}


def test_shape_mismatch_detected():
    gens_s = (Generator("s0", "s", 0),)
    with pytest.raises(ShapeMismatch):
        BlockDifferentials(
            (), gens_s, (),
            F2Matrix.zero(0, 0), F2Matrix.zero(2, 0),  # wrong d_os
            F2Matrix.zero(0, 0), F2Matrix.zero(1, 0),
            F2Matrix.zero(1, 1), F2Matrix.zero(1, 0),
            F2Matrix.zero(0, 1), F2Matrix.zero(0, 0),
        )


def test_grading_violation_detected():
    gens_s = (Generator("a", "s", 0), Generator("b", "s", 5))
    with pytest.raises(GradingViolation):
        BlockDifferentials(
            (), gens_s, (),
            F2Matrix.zero(0, 0), F2Matrix.zero(2, 0),
            F2Matrix.zero(0, 0), F2Matrix.zero(2, 0),
            F2Matrix.from_entries(2, 2, [(0, 1)]),  # gr 5 -> 0
            F2Matrix.zero(2, 0), F2Matrix.zero(0, 2), F2Matrix.zero(0, 0),
        )


def boundary_pair_blocks():
    """One stable and one unstable generator joined by the obstructed block.

    This is the cancelling reducible pair: bar homology dies, check and
    hat each keep one class, and the j map carries one to the other.
    """
    gens_s = (Generator("top", "s", 1),)
    gens_u = (Generator("bot", "u", 1),)  # bar_gr 0
    z = F2Matrix.zero
    return BlockDifferentials(
        (), gens_s, gens_u,
        z(0, 0), z(1, 0), z(0, 1), z(1, 1),
        z(1, 1), z(1, 1),
        F2Matrix.from_entries(1, 1, [(0, 0)]),  # bar_su
        z(1, 1),
    )


def test_obstructed_pair_homology():
    c = assemble(boundary_pair_blocks())
    assert verify_d_squared(c)
    assert homology(c, "check") == {1: 1}
    assert homology(c, "hat") == {1: 1}
    assert homology(c, "bar") == {}


def test_obstructed_pair_les():
    blocks = boundary_pair_blocks()
    c = assemble(blocks)
    maps = les_maps(blocks)
    assert verify_les_exact(c, maps, window=(-1, 3))


def level_pair_blocks():
    """An o and an s generator in grading 0 and no differentials.

    check_0 = <o, s>; i carries bar's s onto check's s, which j kills, and
    j carries o onto hat's o: exact, with ranks 1 + 1 = 2 at check_0.
    """
    return zero_blocks((Generator("o", "o", 0),), (Generator("s", "s", 0),))


def test_les_checker_rejects_a_zero_map():
    blocks = level_pair_blocks()
    c, maps = assemble(blocks), les_maps(blocks)
    assert verify_les_exact(c, maps, window=(-2, 2))
    broken = LesMaps(i=maps.i, j=F2Matrix.zero(maps.j.rows, maps.j.cols),
                     p=maps.p)
    assert not verify_les_exact(c, broken, window=(-2, 2))


def test_les_checker_rejects_a_nonzero_composite():
    # swapping o and s is a chain automorphism of check, so j . swap has
    # the rank of j and every rank sum still holds; but it sends the image
    # of i onto o, so the composite H(bar) -> H(hat) is no longer zero
    blocks = level_pair_blocks()
    c, maps = assemble(blocks), les_maps(blocks)
    swap = F2Matrix.from_entries(2, 2, [(0, 1), (1, 0)])
    assert (swap @ c.check.d).ones == (c.check.d @ swap).ones
    broken = LesMaps(i=maps.i, j=maps.j @ swap, p=maps.p)
    assert not verify_les_exact(c, broken, window=(-2, 2))


def two_point_base_blocks(eta=1):
    """Two base points of index 0 and 1, shared two-eigenvalue fiber."""
    gens_s = (Generator("q0:s", "s", 1), Generator("q1:s", "s", 2))
    gens_u = (Generator("q0:u", "u", 1), Generator("q1:u", "u", 2))
    z = F2Matrix.zero
    ent = [(0, 1)] if eta else []
    return BlockDifferentials(
        (), gens_s, gens_u,
        z(0, 0), z(2, 0), z(0, 2), z(2, 2),
        F2Matrix.from_entries(2, 2, ent), z(2, 2),
        z(2, 2), F2Matrix.from_entries(2, 2, ent),
    )


def test_two_point_base_squares_and_les():
    blocks = two_point_base_blocks()
    c = assemble(blocks)
    assert verify_d_squared(c)
    assert homology(c, "check") == {}
    assert homology(c, "hat") == {}
    assert homology(c, "bar") == {}
    assert verify_les_exact(c, les_maps(blocks), window=(-2, 4))


def test_les_maps_chain_identities_zero_blocks():
    gens_s = (Generator("s0", "s", 0),)
    gens_u = (Generator("u0", "u", 0),)
    maps = les_maps(zero_blocks((), gens_s, gens_u))
    # with zero differentials the maps are the bare inclusion/projection
    assert (0, 0) in maps.i.ones   # s -> s inclusion
    assert maps.j.is_zero()        # no interior part, bar_su = 0
    assert (1, 0) in maps.p.ones   # u -> u projection


def corrupted_bar_chain_blocks():
    # a three-step bar chain with both counts 1 does not square to zero
    gens_s = (Generator("a", "s", 0), Generator("b", "s", 1),
              Generator("c", "s", 2))
    z = F2Matrix.zero
    return BlockDifferentials(
        (), gens_s, (),
        z(0, 0), z(3, 0), z(0, 0), z(3, 0),
        F2Matrix.from_entries(3, 3, [(0, 1), (1, 2)]),
        z(3, 0), z(0, 3), z(0, 0),
    )


def test_verify_d_squared_detects_corruption():
    assert not verify_d_squared(assemble(corrupted_bar_chain_blocks()))


def test_homology_rejects_nonzero_d_squared():
    c = assemble(corrupted_bar_chain_blocks())
    with pytest.raises(CompositionNonzero):
        homology(c, "bar")
    with pytest.raises(CompositionNonzero):
        homology(c, "check")


def test_homology_with_zero_differentials_counts_generators():
    gens_o = (Generator("o0", "o", 0), Generator("o1", "o", 0))
    gens_s = (Generator("s0", "s", 2),)
    c = assemble(zero_blocks(gens_o, gens_s, ()))
    assert homology(c, "check") == {0: 2, 2: 1}


# ---------------------------------------------------------------------------
# metamorphic: acyclic pairs change neither the ranks nor exactness
# ---------------------------------------------------------------------------

BLOCK_SHAPES = {  # block name -> (target kind, source kind)
    "d_oo": ("o", "o"), "d_os": ("s", "o"), "d_uo": ("o", "u"),
    "d_us": ("s", "u"), "bar_ss": ("s", "s"), "bar_us": ("s", "u"),
    "bar_su": ("u", "s"), "bar_uu": ("u", "u"),
}
PAIR_BLOCK = {"o": "d_oo", "s": "bar_ss", "u": "bar_uu"}


def with_acyclic_pairs(blocks, pairs):
    """``blocks`` plus, per (kind, g) in ``pairs``, a pair x -> y of that
    kind with gr y = g and gr x = g + 1, joined by a count of 1."""
    gens = {k: list(getattr(blocks, f"gens_{k}")) for k in "osu"}
    ones = {name: set(getattr(blocks, name).ones) for name in BLOCK_SHAPES}
    for n, (kind, g) in enumerate(pairs):
        y = len(gens[kind])
        gens[kind] += [Generator(f"y{n}", kind, g),
                       Generator(f"x{n}", kind, g + 1)]
        ones[PAIR_BLOCK[kind]].add((y, y + 1))
    return BlockDifferentials(
        *(tuple(gens[k]) for k in "osu"),
        *(F2Matrix.from_entries(len(gens[t]), len(gens[src]), ones[name])
          for name, (t, src) in BLOCK_SHAPES.items()))


def interior_to_stable_blocks():
    """An interior generator of gr 1 whose one trajectory ends on a stable
    boundary generator of gr 0: check is acyclic, and p carries hat's
    class onto bar's, so only the d_os block is nonzero."""
    z = F2Matrix.zero
    return BlockDifferentials(
        (Generator("x", "o", 1),), (Generator("y", "s", 0),), (),
        z(1, 1), F2Matrix.from_entries(1, 1, [(0, 0)]), z(1, 0), z(1, 0),
        z(1, 1), z(1, 0), z(0, 1), z(0, 0),
    )


def morse_pair_blocks():
    """A blow-up model over a base of a cancelling pair and a free point."""
    fiber = LinearFlowModel(np.diag([-1.0, 2.0, 3.0]))
    points = (BasePoint("a", 1, fiber), BasePoint("b", 0, fiber),
              BasePoint("c", 2, fiber))
    return build_model_complexes(
        BaseMorseData(points, F2Matrix.from_entries(3, 3, [(1, 0)])))


BASES = {
    "obstructed_pair": boundary_pair_blocks,
    "two_point_base": two_point_base_blocks,
    "interior_to_stable": interior_to_stable_blocks,
    "morse_pair": morse_pair_blocks,
}
WINDOW = (-5, 9)


def ranks_and_exactness(blocks):
    c = assemble(blocks)
    assert verify_d_squared(c)
    ranks = {f: homology(c, f) for f in ("check", "hat", "bar")}
    return ranks, verify_les_exact(c, les_maps(blocks), window=WINDOW)


@pytest.mark.parametrize("base", sorted(BASES))
def test_bases_have_nonzero_differentials_and_exact_les(base):
    blocks = BASES[base]()
    assert any(not getattr(blocks, name).is_zero() for name in BLOCK_SHAPES)
    assert ranks_and_exactness(blocks)[1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BASES)),
       st.lists(st.tuples(st.sampled_from("osu"), st.integers(-3, 6)),
                min_size=1, max_size=6))
def test_acyclic_pairs_keep_ranks_and_exactness(base, pairs):
    blocks = BASES[base]()
    assert ranks_and_exactness(with_acyclic_pairs(blocks, pairs)) == \
        ranks_and_exactness(blocks)


# ---------------------------------------------------------------------------
# metamorphic: a grading-preserving change of basis changes nothing
# ---------------------------------------------------------------------------


def change_of_basis(rng, gens):
    """A random invertible 0/1 matrix P on the span of ``gens`` that maps
    each generator into the span of those of its grading, and P^-1.

    P is a product of elementary row additions within one grading; each
    is its own inverse over F2, so P^-1 is the same product reversed.
    """
    n = len(gens)
    p, p_inv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    for _ in range(4 * n):
        i, j = (int(x) for x in rng.integers(0, max(n, 1), 2))
        if i != j and gens[i].gr == gens[j].gr:
            e = np.eye(n, dtype=np.int64)
            e[i, j] = 1
            p, p_inv = e @ p % 2, p_inv @ e % 2
    return p, p_inv


def conjugated(blocks, seed):
    """``blocks`` with each kind-subspace re-based: block B from kind s to
    kind t becomes P_t B P_s^-1 (dense products mod 2, not hmrkit's)."""
    rng = np.random.default_rng(seed)
    bases = {k: change_of_basis(rng, getattr(blocks, f"gens_{k}"))
             for k in "osu"}
    out = []
    for name, (t, src) in BLOCK_SHAPES.items():
        b = getattr(blocks, name)
        dense = np.zeros((b.rows, b.cols), dtype=np.int64)
        for r, c in b.ones:
            dense[r, c] = 1
        dense = bases[t][0] @ dense @ bases[src][1] % 2
        out.append(F2Matrix.from_entries(b.rows, b.cols,
                                         zip(*np.nonzero(dense))))
    return BlockDifferentials(blocks.gens_o, blocks.gens_s, blocks.gens_u,
                              *out)


def test_change_of_basis_mixes_generators():
    blocks = with_acyclic_pairs(morse_pair_blocks(), [("s", 2), ("u", 1)])
    assert any(conjugated(blocks, seed) != blocks for seed in range(5))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BASES)),
       st.lists(st.tuples(st.sampled_from("osu"), st.integers(-3, 6)),
                max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_change_of_basis_keeps_ranks_and_exactness(base, pairs, seed):
    blocks = with_acyclic_pairs(BASES[base](), pairs)
    assert ranks_and_exactness(conjugated(blocks, seed)) == \
        ranks_and_exactness(blocks)


# ---------------------------------------------------------------------------
# an independent oracle for the LES checker: dense mod-2 numpy arrays
# ---------------------------------------------------------------------------


def dense(m):
    out = np.zeros((m.rows, m.cols), dtype=np.uint8)
    for r, c in m.ones:
        out[r, c] = 1
    return out


def rref2(a):
    """Reduced row echelon form of ``a`` mod 2, and its pivot columns."""
    a, pivots = a.copy() % 2, []
    for col in range(a.shape[1]):
        below = np.flatnonzero(a[len(pivots):, col])
        if not below.size:
            continue
        r = len(pivots)
        a[[r, r + below[0]]] = a[[r + below[0], r]]
        for h in np.flatnonzero(a[:, col]):
            if h != r:
                a[h] ^= a[r]
        pivots.append(col)
    return a[:len(pivots)], pivots


def rank2(a):
    return len(rref2(a)[1])


def kernel2(a):
    """A null space basis of ``a`` mod 2, as columns."""
    red, pivots = rref2(a)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((a.shape[1], len(free)), dtype=np.uint8)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for row, p in zip(red, pivots):
            basis[p, k] = row[f]
    return basis


def oracle_les_exact(c, maps, window):
    """Exactness of the LES by dense rank arithmetic in the coordinates of
    each grading: no hmrkit linear algebra."""
    d = {f: (dense(c.flavor(f).d), np.array(c.flavor(f).gradings, dtype=int))
         for f in ("check", "hat", "bar")}

    def part(flavor, j):
        return np.flatnonzero(d[flavor][1] == j)

    def cycles(flavor, j):
        dm = d[flavor][0]
        return kernel2(dm[np.ix_(part(flavor, j - 1), part(flavor, j))])

    def boundaries(flavor, j):
        dm = d[flavor][0]
        return dm[np.ix_(part(flavor, j), part(flavor, j + 1))]

    def h_rank(flavor, j):
        return cycles(flavor, j).shape[1] - rank2(boundaries(flavor, j))

    def induced(fm, src, tgt, deg, j):
        f_j = fm[np.ix_(part(tgt, j + deg), part(src, j))]
        b = boundaries(tgt, j + deg)
        return rank2(np.hstack([f_j @ cycles(src, j) % 2, b])) - rank2(b)

    seq = ("bar", "check", "hat", "bar", "check")
    arrows = ((dense(maps.i), 0), (dense(maps.j), 0), (dense(maps.p), -1))
    for k in range(3):
        (f, deg_f), (g, deg_g) = arrows[k], arrows[(k + 1) % 3]
        for j in range(window[0] + 1, window[1]):
            into = induced(f, seq[k], seq[k + 1], deg_f, j - deg_f)
            out_of = induced(g, seq[k + 1], seq[k + 2], deg_g, j)
            composite = induced(g @ f % 2, seq[k], seq[k + 2],
                                deg_f + deg_g, j - deg_f)
            if composite or into + out_of != h_rank(seq[k + 1], j):
                return False
    return True


def graded_map(rng, src, tgt, deg):
    """A random 0/1 map from src to tgt that shifts the grading by deg."""
    return F2Matrix.from_entries(len(tgt.gradings), len(src.gradings), (
        (r, col) for r, gr in enumerate(tgt.gradings)
        for col, gc in enumerate(src.gradings)
        if gr == gc + deg and rng.random() < 0.5))


def swapped_j(rng, c, maps):
    """j composed with a swap of two check generators of one grading."""
    gr = c.check.gradings
    pairs = [(a, b) for a in range(len(gr)) for b in range(a)
             if gr[a] == gr[b]]
    if not pairs:
        return maps.j
    a, b = rng.choice(pairs)
    perm = {a: b, b: a}
    return F2Matrix.from_entries(maps.j.rows, maps.j.cols, (
        (r, perm.get(col, col)) for r, col in maps.j.ones))


#: map name -> (source flavor, target flavor, degree)
ARROWS = {"i": ("bar", "check", 0), "j": ("check", "hat", 0),
          "p": ("hat", "bar", -1)}
VARIANTS = ("intact", "zero_i", "zero_j", "zero_p", "swap_j",
            "random_i", "random_j", "random_p")


def broken(variant, rng, c, maps):
    """``maps`` with one map replaced by zero, by j . swap, or by a random
    map that respects the gradings."""
    if variant == "intact":
        return maps
    kind, name = variant.split("_")
    m = getattr(maps, name)
    if kind == "zero":
        m = F2Matrix.zero(m.rows, m.cols)
    elif kind == "swap":
        m = swapped_j(rng, c, maps)
    else:
        src, tgt, deg = ARROWS[name]
        m = graded_map(rng, c.flavor(src), c.flavor(tgt), deg)
    return LesMaps(**{"i": maps.i, "j": maps.j, "p": maps.p, name: m})


def checker_and_oracle(blocks, variant, seed):
    c = assemble(blocks)
    maps = broken(variant, random.Random(seed), c, les_maps(blocks))
    return (verify_les_exact(c, maps, window=WINDOW),
            oracle_les_exact(c, maps, WINDOW))


def test_les_checker_agrees_with_dense_oracle_on_every_base():
    bases = {**BASES, "level_pair": level_pair_blocks}
    verdicts = []
    for base in sorted(bases):
        for variant in VARIANTS:
            for seed in range(3):
                ours, oracle = checker_and_oracle(bases[base](), variant,
                                                  seed)
                assert ours == oracle, (base, variant, seed)
                verdicts.append(ours)
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 10


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BASES)),
       st.lists(st.tuples(st.sampled_from("osu"), st.integers(-3, 6)),
                max_size=6),
       st.sampled_from(VARIANTS), st.integers(0, 2 ** 32 - 1))
def test_les_checker_agrees_with_dense_oracle(base, pairs, variant, seed):
    ours, oracle = checker_and_oracle(
        with_acyclic_pairs(BASES[base](), pairs), variant, seed)
    assert ours == oracle


def test_each_grading_is_reduced_once(monkeypatch):
    reduced = []
    kernel_basis = complexes.f2_kernel_basis
    monkeypatch.setattr(complexes, "f2_kernel_basis",
                        lambda m: reduced.append(m) or kernel_basis(m))
    blocks = with_acyclic_pairs(morse_pair_blocks(),
                                [("o", 0), ("s", 2), ("u", 1), ("u", 4)])
    c = assemble(blocks)
    for flavor in ("check", "hat", "bar"):
        homology(c, flavor)
    assert verify_les_exact(c, les_maps(blocks))
    levels = sum(len(set(f.gradings)) for f in (c.check, c.hat, c.bar))
    assert 0 < len(reduced) <= levels
