"""Negative controls for the ``verify`` checks: each one must be able to fail.

Every perturbation below replaces one function in the namespace that the
suites read (``characters`` and ``zhu`` as ``suites`` imports them, or a
name ``suites`` binds itself) by a wrapper that changes its result.  With
every package cache emptied before and after, ``run_suite("all", 1)`` must
then fail exactly the expected checks: a check that stays green under its
perturbation could never have caught the fault, and one that fails under
every perturbation would show a broken harness, not a sensitive check.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from supertriplet import characters, suites, zhu
from supertriplet.arith import UniPoly
from supertriplet.characters import ModuleLabel
from supertriplet.qseries import QExpansion
from supertriplet.specialfn import _as_index
from supertriplet.suites import run_suite

CUTOFF = Fraction(20)

SHIFT = "supercharacter-shift-consistency"
PERIODICITY = "theta-periodicity-in-first-index"
INTEGRALITY = "character-integrality-and-positivity"
SPECTRUM = "even-generator-relation-vanishes-on-spectrum"
CONFORMAL = "zhu-relation: conformal-square: g0^2 = l0 - c/24"
MIXED = "zhu-relation: mixed: (g0 h0)^2 = ((2m+1)/4) hhat0^2"
MIXED_SIGN = "zhu-relation: mixed sign: (t-m) C(t-1/2,2m) = -(2m+1) hhat0"
EVEN = "zhu-relation: even generator square: h0^2 = C_m prod (l0 - heads)^2"
HATTED = "zhu-relation: hatted square: hhat0^2 = (4/(2m+1)) C_m (l0 - c/24) prod (l0 - heads)^2"
FORMS = "zhu-relation: even generator square, binomial vs product form"
ZHU_RELATIONS = {CONFORMAL, MIXED, MIXED_SIGN, EVEN, HATTED, FORMS}


def _wrap(module, name, change):
    """A perturbation: ``module.name`` returning ``change(result, *args)``."""

    def install(monkeypatch):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: change(real(*args), *args))

    return install


def _above_lead(series, coeff, step=1):
    """``series`` plus ``coeff`` q^(lead + step), inside every window the suites read."""
    return series + QExpansion.monomial(series.min_exponent + step, coeff)


def _on_row(row, change):
    """``change`` applied to the series of one (label, flavor) row only."""
    return lambda series, label, flavor, cutoff: change(series) if (label, flavor) == row else series


def _past_period(idx):
    """True for a theta index (j, k) with j >= 2k, which the suites read only as the image of j."""
    idx = _as_index(idx)
    return idx.j >= 2 * idx.k


SPI_SUPER = (ModuleLabel("SPi", 1, 1), "supercharacter")
RLAMBDA = (ModuleLabel("RLambda", 1, 1), "character")

CONTROLS = {
    # one term added to one supercharacter inside the 12-term window of the float shift law
    "supercharacter term": (
        _wrap(characters, "untwisted_char", _on_row(SPI_SUPER, lambda s: _above_lead(s, 1))),
        {SHIFT},
    ),
    # theta_{j,k} changed only at j + 2k, so the periodicity in j breaks and nothing else
    "theta past one period": (
        _wrap(suites, "theta", lambda s, idx, cutoff: _above_lead(s, 1) if _past_period(idx) else s),
        {PERIODICITY},
    ),
    "negative character coefficient": (
        _wrap(characters, "character_series", _on_row(RLAMBDA, lambda s: _above_lead(s, -2 * s.leading()[1], 0))),
        {INTEGRALITY},
    ),
    "half-integral supercharacter coefficient": (
        _wrap(characters, "character_series", _on_row(SPI_SUPER, lambda s: _above_lead(s, Fraction(1, 2)))),
        {INTEGRALITY},
    ),
    "g0^2 doubled": (_wrap(zhu, "_g0sq_poly", lambda p, m: p * 2), {CONFORMAL, MIXED}),
    "l0 plus 1": (_wrap(zhu, "_l0_poly", lambda p, m: p + UniPoly.one()), {CONFORMAL, EVEN, HATTED}),
    "C(t - 1/2, 2m) doubled": (_wrap(zhu, "_binom_shift_poly", lambda p, m: p * 2), {MIXED, MIXED_SIGN, EVEN}),
    "c plus 1 as zhu binds it": (_wrap(zhu, "central_charge", lambda c, m: c + 1), {CONFORMAL, HATTED}),
    "C_m doubled": (
        _wrap(zhu, "hab_polynomial", lambda hab, m: replace(hab, c_m=2 * hab.c_m)),
        {EVEN, HATTED, FORMS, SPECTRUM},
    ),
}


def _failed():
    return {check.name for check in run_suite("all", 1, CUTOFF) if not check.passed}


def test_unperturbed_run_passes_every_named_check(cleared_caches):
    names = {check.name for check in run_suite("all", 1, CUTOFF) if check.passed}
    assert set().union(*(expected for _, expected in CONTROLS.values())) <= names


def test_every_targeted_check_has_a_control():
    flipped = set().union(*(expected for _, expected in CONTROLS.values()))
    assert {SHIFT, PERIODICITY, INTEGRALITY} | ZHU_RELATIONS <= flipped


@pytest.mark.parametrize("control", list(CONTROLS))
def test_perturbation_fails_exactly_its_checks(cleared_caches, monkeypatch, control):
    install, expected = CONTROLS[control]
    install(monkeypatch)
    assert _failed() == expected
