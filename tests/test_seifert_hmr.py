"""Tests for tower modules and the Seifert-fibered calculators."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from hmrkit import seifert_hmr
from hmrkit.complexes import homology, les_maps, verify_d_squared, \
    verify_les_exact
from hmrkit.errors import InvalidInput, NotCoprime, UnknownFamily
from hmrkit.seifert_hmr import (
    BrieskornInput,
    IrreducibleSpectrum,
    Tower,
    TowerModule,
    brieskorn_hmr,
    brieskorn_irreducibles,
    divisor_count,
    lens_hmr,
    psc_hmr,
)

FAMILIES_K = [(fam, k) for fam in ("2,3,+1", "2,3,-1", "2,5,-1", "2,5,+1")
              for k in range(1, 7)]


# ---------------------------------------------------------------------------
# tower modules
# ---------------------------------------------------------------------------


def test_tower_support():
    assert Tower("down", 0).supports(0) and Tower("down", 0).supports(-5)
    assert not Tower("down", 0).supports(1)
    assert Tower("up", -1).supports(0) and not Tower("up", -1).supports(-1)
    assert all(Tower("full", 3).supports(g) for g in range(-5, 5))


def test_tower_module_rank():
    m = TowerModule.from_parts({0: 2, 3: 1}, (Tower("up", -1),))
    assert m.rank_at(0) == 3
    assert m.rank_at(3) == 2
    assert m.rank_at(-2) == 0


def test_bad_tower_kind_rejected():
    with pytest.raises(UnknownFamily):
        Tower("sideways", 0)


# ---------------------------------------------------------------------------
# positive scalar curvature
# ---------------------------------------------------------------------------


def test_psc_nontorsion_vanishes():
    for b1 in range(4):
        assert all(m == TowerModule() for m in psc_hmr(b1, False))


def test_psc_b1_zero_single_towers():
    hat, check, bar = psc_hmr(0, True)
    assert hat.towers == (Tower("down", 0),)
    assert check.towers == (Tower("up", -1),)
    assert bar.towers == (Tower("full", 0),)
    assert hat.finite == check.finite == ()


def test_psc_b1_one_two_towers_shifted():
    _, check, _ = psc_hmr(1, True)
    assert sorted(t.anchor for t in check.towers) == [-1, 0]


@pytest.mark.parametrize("b1", range(4))
def test_psc_rank_is_binomial_convolution(b1):
    hat, check, bar = psc_hmr(b1, True)
    for g in range(-8, 9):
        expect_check = sum(math.comb(b1, d) for d in range(b1 + 1) if g >= d)
        expect_hat = sum(math.comb(b1, d) for d in range(b1 + 1) if g <= d)
        assert check.rank_at(g) == expect_check
        assert hat.rank_at(g) == expect_hat
        assert bar.rank_at(g) == 2 ** b1


def lens_triples(p: int, q: int) -> list:
    """The list form of ``lens_hmr``: one flavor triple per real spin-c
    structure of L(p, q)."""
    count, triple = lens_hmr(p, q)
    return [triple] * count


def test_lens_copies():
    assert len(lens_triples(3, 1)) == 3
    assert len(lens_triples(5, 2)) == 5
    assert len(lens_triples(1, 0)) == 1
    assert lens_triples(3, 1)[0] == psc_hmr(0, True)


def test_lens_rejects_bad_input():
    with pytest.raises(NotCoprime):
        lens_hmr(4, 2)
    with pytest.raises(InvalidInput, match="q must .* got 5"):
        lens_hmr(3, 5)


# ---------------------------------------------------------------------------
# Brieskorn spectra and the divisor-count oracle
# ---------------------------------------------------------------------------


def test_family_parameters():
    assert BrieskornInput("2,3,+1", 4).pqr == (2, 3, 25)
    assert BrieskornInput("2,5,-1", 2).pqr == (2, 5, 19)
    assert BrieskornInput("2,7,29").pqr == (2, 7, 29)
    with pytest.raises(UnknownFamily):
        BrieskornInput("3,4,5")
    with pytest.raises(InvalidInput, match="k must be"):
        BrieskornInput("2,3,+1", 0)


@pytest.mark.parametrize("fam,k", FAMILIES_K)
def test_counts_match_divisor_enumeration(fam, k):
    inp = BrieskornInput(fam, k)
    spec = brieskorn_irreducibles(inp)
    assert sum(c for _, c in spec.counts) == 2 * divisor_count(*inp.pqr)


def test_counts_2_7_29():
    spec = brieskorn_irreducibles(BrieskornInput("2,7,29"))
    assert spec.counts == ((0, 2), (2, 2), (4, 2), (5, 4), (6, 2))
    assert spec.theta_minus1_grading == 7
    total = sum(c for _, c in spec.counts)
    assert total == 2 * divisor_count(2, 7, 29) == 12


def test_small_family_members():
    # k = 1 members of the (2,3,.) families have no irreducibles at all
    for fam in ("2,3,+1", "2,3,-1"):
        spec = brieskorn_irreducibles(BrieskornInput(fam, 1))
        assert spec.counts == ()
        assert spec.theta_minus1_grading == -1


def test_divisor_margin_is_made_on_first_read(monkeypatch):
    # lens and psc answers load no fractions; the margin is still the
    # Fraction 1/4, and divisor_count reads the module's value
    assert type(seifert_hmr.DIVISOR_MARGIN) is Fraction
    assert seifert_hmr.DIVISOR_MARGIN == Fraction(1, 4)
    with pytest.raises(AttributeError):
        seifert_hmr.NO_SUCH_NAME
    monkeypatch.setattr(seifert_hmr, "DIVISOR_MARGIN", Fraction(12))
    assert divisor_count(2, 3, 25) == 0


def test_divisor_count_not_coprime():
    with pytest.raises(NotCoprime):
        divisor_count(2, 4, 7)


def test_spectrum_rejects_odd_counts():
    with pytest.raises(UnknownFamily):
        IrreducibleSpectrum(((0, 3),), -1)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fam,k", FAMILIES_K + [("2,7,29", 1)])
def test_assembled_complex_is_valid(fam, k):
    res = brieskorn_hmr(BrieskornInput(fam, k))
    assert verify_d_squared(res.complexes)


def test_brieskorn_complexes_built_on_first_read():
    res = brieskorn_hmr(BrieskornInput("2,3,+1", 4, (-5, 10**6)))
    assert "complexes" not in vars(res)
    small = brieskorn_hmr(BrieskornInput("2,3,+1", 4))
    assert small.complexes is small.complexes
    assert "complexes" in vars(small)


@pytest.mark.parametrize("fam,k", FAMILIES_K + [("2,7,29", 1)])
def test_assembled_les_exact(fam, k):
    # every grading is checked, the two extreme ones of the window included
    res = brieskorn_hmr(BrieskornInput(fam, k))
    maps = les_maps(res.complexes.blocks)
    assert verify_les_exact(res.complexes, maps)


def test_hat_answer_6kplus1():
    # k = 4: four irreducibles at grading 0 plus a down tower at -1
    res = brieskorn_hmr(BrieskornInput("2,3,+1", 4))
    assert res.hat.finite == ((0, 4),)
    assert res.hat.towers == (Tower("down", -1),)
    assert res.check.finite == ((0, 4),)
    assert res.check.towers == (Tower("up", -2),)


def test_check_answer_2_5_families():
    for fam in ("2,5,-1", "2,5,+1"):
        for k in (1, 2, 3):
            res = brieskorn_hmr(BrieskornInput(fam, k))
            assert sum(c for _, c in res.check.finite) == 2 * k + 2 * (k // 2)
            assert res.hat.towers == \
                (Tower("down", k + 1 if fam == "2,5,-1" else k),)


def test_6kminus1_hat_undetermined():
    res = brieskorn_hmr(BrieskornInput("2,3,-1", 2))
    assert res.hat.undetermined
    assert res.hat.finite == () and res.hat.towers == ()
    assert not res.check.undetermined


def test_check_rank_matches_truncated_homology():
    # chain-level oracle: homology of the explicit complex per grading
    for fam, k in (("2,3,+1", 4), ("2,5,+1", 2), ("2,7,29", 1)):
        res = brieskorn_hmr(BrieskornInput(fam, k))
        lo, hi = res.truncation
        got = homology(res.complexes, "check")
        for g in range(lo + 1, hi):
            assert got.get(g, 0) == res.check.rank_at(g)


def test_hat_rank_matches_truncated_homology():
    res = brieskorn_hmr(BrieskornInput("2,5,-1", 3))
    lo, hi = res.truncation
    got = homology(res.complexes, "hat")
    for g in range(lo + 1, hi):
        assert got.get(g, 0) == res.hat.rank_at(g)


def test_bar_is_single_full_tower():
    res = brieskorn_hmr(BrieskornInput("2,3,+1", 2))
    assert res.bar.towers == (Tower("full", -1),)
    lo, hi = res.truncation
    got = homology(res.complexes, "bar")
    assert all(got.get(g, 0) == 1 for g in range(lo + 1, hi - 1))


def test_truncation_window_validation():
    assert brieskorn_hmr(BrieskornInput("2,7,29")).truncation == (-2, 17)
    with pytest.raises(InvalidInput, match="window"):
        brieskorn_hmr(BrieskornInput("2,7,29", 1, (0, 5)))


def test_to_json_is_sorted_and_plain():
    res = brieskorn_hmr(BrieskornInput("2,7,29"))
    blob = res.check.to_json()
    assert blob["finite"] == sorted(blob["finite"])
    assert blob["towers"] == [{"type": "up", "anchor": 6}]
    assert blob["undetermined"] is False
