"""Negative controls for the ``verify`` checks: each one must be able to fail.

Every perturbation below replaces one function in the namespace that the
suites read (``characters`` and ``zhu`` as ``suites`` imports them, or a
name ``suites`` binds itself) by a wrapper that changes its result.  With
every package cache emptied before and after, ``run_suite("all", 1)`` must
then fail exactly the expected checks: a check that stays green under its
perturbation could never have caught the fault, and one that fails under
every perturbation would show a broken harness, not a sensitive check.

The gates of acceptance criteria 07, 08 and 11 get the same kind of control
at the end of this file, each perturbing the namespace ``modular`` reads.
"""

import cmath
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from supertriplet import characters, modular, suites, zhu
from supertriplet.characters import ModuleLabel
from supertriplet.modular import (
    character_theta_indices,
    closure_rank,
    closure_under_s_t,
    find_mde,
    s_transform_residual,
    standard_grid,
    theta_transform_grid,
)
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
    "l0 plus 1": (_wrap(zhu, "_l0_poly", lambda p, m: p + 1), {CONFORMAL, EVEN, HATTED}),
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


# ----------------------------------------------------------------------
# controls beside acceptance criteria 07, 08 and 11, at m = 1 and small cutoffs
# ----------------------------------------------------------------------

S_PHASES = {
    # e^{+i pi j j'/k}, the opposite sign convention: theta sums are even in j', so only derivatives see it
    "conjugated": (lambda z: cmath.exp(z.conjugate()), {("1", "theta_deriv"), ("1/2", "theta_deriv")}),
    # every image phase off by e^{i pi/8}; theta_deriv at j = 0 and j = k is the zero series
    "rotated by pi/8": (
        lambda z: cmath.exp(z + 1j * cmath.pi / 8),
        {("0", "theta"), ("3/2", "theta"), ("1", "theta"), ("1", "theta_deriv"), ("1/2", "theta"), ("1/2", "theta_deriv")},
    ),
}


def _s_residuals_over(threshold):
    grid = theta_transform_grid(Fraction(40))
    return {
        (str(idx.j), variant)
        for idx in character_theta_indices(1)
        for variant in ("theta", "theta_deriv")
        if s_transform_residual(idx, variant, grid) > threshold
    }


def test_criterion_07_control_unperturbed_s_law_holds(cleared_caches):
    assert _s_residuals_over(1e-9) == set()


@pytest.mark.parametrize("phase", list(S_PHASES))
def test_criterion_07_control_wrong_s_phase(cleared_caches, monkeypatch, phase):
    exp, expected = S_PHASES[phase]
    monkeypatch.setattr(modular, "cmath", SimpleNamespace(exp=exp))
    assert _s_residuals_over(1e-9) == expected


@pytest.mark.parametrize("dropped", [0, 4, 11])
def test_criterion_08_control_dropped_basis_member(cleared_caches, monkeypatch, dropped):
    real = modular.basis_functions
    monkeypatch.setattr(modular, "basis_functions", lambda m: real(m)[:dropped] + real(m)[dropped + 1 :])
    grid = standard_grid(1, Fraction(100))
    # the gap rank reads the basis together with its S-images, which span the dropped
    # member again, so it stays 12; the plain-basis count and the S fit see the hole
    assert closure_rank(1, grid).threshold_rank == 11
    assert closure_under_s_t(1, grid).worst_s_residual > 1e-6


def _on_first_twisted(change):
    first = ModuleLabel("RLambda", 1, 1)
    real = modular.twisted_char
    return lambda label, cutoff: change(real(label, cutoff)) if label == first else real(label, cutoff)


MDE_CONTROLS = {
    "lowest weight one too high": lambda s: s.shifted(1),
    "term at q^(lead+1)": lambda s: s + QExpansion.monomial(s.min_exponent + 1, 1),
}


def test_criterion_11_control_unperturbed_operator_found(cleared_caches):
    assert find_mde(1, q_order=4).success


@pytest.mark.parametrize("control", list(MDE_CONTROLS))
def test_criterion_11_control_perturbed_character_has_no_operator(cleared_caches, monkeypatch, control):
    real = modular._certifies
    verdicts = []
    monkeypatch.setattr(modular, "twisted_char", _on_first_twisted(MDE_CONTROLS[control]))
    monkeypatch.setattr(modular, "_certifies", lambda aug, ys: verdicts.append(real(aug, ys)) or verdicts[-1])
    result = find_mde(1, q_order=4)
    assert not result.success
    # success False is returned only with a certificate y (yA = 0, yb != 0) that passed
    assert verdicts and verdicts[-1]
