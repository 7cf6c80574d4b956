"""Named runtime verification suites behind the command-line interface.

Each check returns a :class:`CheckResult`; a suite is a list of checks run
for a given m and cutoff.  The same checks back the pytest modules, so the
CLI report and the test suite cannot drift apart.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

from . import characters as ch
from . import fermion as fm
from . import zhu
from .arith import QuadRational
from .modular import character_theta_indices
from .qseries import QExpansion, _exponent
from .specialfn import ThetaIndex, eisenstein, eta, frak_f2, g_series, theta, theta_deriv

SUITE_NAMES = ("theta", "characters", "zhu", "fermion", "all")

__all__ = ["CheckResult", "run_suite", "SUITE_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _ok(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ----------------------------------------------------------------------
# theta suite
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _theta_suite(m: int, cutoff: Fraction) -> Tuple[CheckResult, ...]:
    checks: List[CheckResult] = []
    indices = character_theta_indices(m)

    ok = True
    for idx in indices:
        shifted = ThetaIndex(idx.j + 2 * idx.k, idx.k)
        if not (theta(idx, cutoff) - theta(shifted, cutoff)).is_zero():
            ok = False
        if not (theta_deriv(idx, cutoff) - theta_deriv(shifted, cutoff)).is_zero():
            ok = False
    checks.append(_ok("theta-periodicity-in-first-index", ok))

    ok = True
    for idx in indices:
        lhs = theta(idx, cutoff)
        rhs = theta((2 * idx.j, 4 * idx.k), cutoff) + theta(
            (2 * idx.j - 4 * idx.k, 4 * idx.k), cutoff
        )
        if not (lhs - rhs).is_zero():
            ok = False
    checks.append(_ok("theta-half-index-decomposition", ok))

    ok = True
    for idx in indices:
        if not idx.j_is_integer:
            continue
        lhs = theta(idx, cutoff) + g_series(idx, cutoff)
        rhs = theta((2 * idx.j, 4 * idx.k), cutoff).scale(2)
        if not (lhs - rhs).is_zero():
            ok = False
    checks.append(_ok("theta-plus-alternating-is-even-part", ok))

    worst = 0.0
    for idx in indices:
        phase = cmath.exp(1j * math.pi * float(idx.j * idx.j / (2 * idx.k) % 2))
        target = g_series(idx, cutoff) if idx.j_is_integer else theta(idx, cutoff)
        worst = max(worst, theta(idx, cutoff).shift_tau_deviation(target, phase))
    checks.append(
        _ok("theta-shift-law", worst < 1e-12, f"max coefficient deviation {worst:.2e}")
    )
    return (*checks, *_cutoff_checks(cutoff))


@lru_cache(maxsize=None)
def _cutoff_checks(cutoff: Fraction) -> Tuple[CheckResult, ...]:
    """The theta-suite checks that do not depend on m, run once per cutoff."""
    checks: List[CheckResult] = []
    # eta against the pentagonal-number expansion: s(3s-1)/2 >= s^2, so |s|^2 < cutoff
    r = math.isqrt(math.ceil(cutoff))
    pent = {Fraction(1, 24) + Fraction(s * (3 * s - 1), 2): (-1) ** (s & 1) for s in range(-r, r + 1)}
    ok = (eta(cutoff) - QExpansion(pent, cutoff=cutoff)).is_zero()
    checks.append(_ok("eta-pentagonal-expansion", ok))

    # f2 = eta(2 tau) / eta(tau) as exact series
    doubled = eta(cutoff / 2 + 1).double_exponents()
    ratio = doubled / eta(cutoff + 2)
    ok = (ratio.truncated(cutoff) - frak_f2(cutoff)).is_zero()
    checks.append(_ok("f2-is-eta-doubling-quotient", ok))

    ok = True
    for kk in (1, 2, 3):
        series = eisenstein(kk, "full", cutoff)
        for n in range(1, int(cutoff)):
            sigma = sum(d ** (2 * kk - 1) for d in range(1, n + 1) if n % d == 0)
            expected = Fraction(2 * sigma, math.factorial(2 * kk - 1))
            if series.coeff(n) != expected:
                ok = False
    checks.append(_ok("eisenstein-divisor-sum-coefficients", ok))
    return tuple(checks)


# ----------------------------------------------------------------------
# characters suite
# ----------------------------------------------------------------------


# under the scale sn/sd in lowest terms, c sn/sd is an integer iff sd | c, and nonnegative iff c sn >= 0
def _is_nonneg_int_series(series: QExpansion) -> bool:
    sn = series.lattice[3].numerator
    return _is_int_series(series) and all(c * sn >= 0 for c in series.lattice[2])


def _is_int_series(series: QExpansion) -> bool:
    sd = series.lattice[3].denominator
    return not any(c % sd for c in series.lattice[2])


@lru_cache(maxsize=None)
def _characters_suite(m: int, cutoff: Fraction) -> Tuple[CheckResult, ...]:
    checks: List[CheckResult] = []
    c = ch.central_charge(m)

    ok = True
    for label, flavor in ch.all_labels(m):
        series = ch.character_series(label, flavor, cutoff)
        if flavor == "character" and not _is_nonneg_int_series(series):
            ok = False
        if flavor == "supercharacter" and not _is_int_series(series):
            ok = False
    checks.append(_ok("character-integrality-and-positivity", ok))

    ok = True
    details = []
    for rec in zhu.classify_twisted(m):
        expected_exp = rec.lowest_weight - c / 24
        # built past the expected lead, which may lie at or above the cutoff
        series = ch.twisted_char(ch.ModuleLabel(rec.family, rec.index, m), max(cutoff, expected_exp + 1))
        lead = series.leading()
        if lead is None or lead[0] != expected_exp or lead[1] != rec.top_dim_graded:
            ok = False
            details.append(f"{rec.family}({rec.index})")
    checks.append(
        _ok(
            "twisted-leading-terms-match-classification",
            ok,
            "mismatches: " + ", ".join(details) if details else "",
        )
    )

    ok = True
    for i in range(m):
        lhs = ch.fock_char(i, m, cutoff)
        rhs = ch.twisted_char(ch.ModuleLabel("RLambda", i + 1, m), cutoff) + ch.twisted_char(
            ch.ModuleLabel("RPi", m - i, m), cutoff
        )
        if not (lhs - rhs).is_zero():
            ok = False
    top = (
        ch.fock_char(2 * m, m, cutoff)
        - ch.twisted_char(ch.ModuleLabel("RPi", m + 1, m), cutoff)
    ).is_zero()
    checks.append(_ok("fock-additivity", ok and top))

    ok = True
    N = 6
    for i in range(m):
        window = min(cutoff, ch.conformal_weight(i, N, m) - c / 24)
        total = QExpansion.zero(cutoff)
        for n in range(N + 1):
            total = total + ch.ramond_irred_char(i, n, m, cutoff).scale(2 * n + 1)
        target = ch.twisted_char(ch.ModuleLabel("RLambda", i + 1, m), cutoff)
        if not (total - target).truncated(window).is_zero():
            ok = False
    checks.append(_ok("ramond-telescoping-safe-window", ok))

    # chi(tau + 1) = eps e^{2 pi i L} schi(tau): L the leading exponent, eps the sign of schi's lead
    worst = 0.0
    shift_window = min(cutoff, Fraction(12))  # float phases scale with coefficient size
    for label, flavor in ch.all_labels(m):
        if flavor == "supercharacter":
            chi, schi = (ch.untwisted_char(label, f, cutoff).truncated(shift_window) for f in ("character", flavor))
            lead = chi.min_exponent
            if lead is not None:  # an empty window deviates by 0.0
                eps = 1 if schi.leading()[1] > 0 else -1
                phase = eps * cmath.exp(2j * math.pi * float(lead - math.floor(lead)))
                worst = max(worst, chi.shift_tau_deviation(schi, phase))
    checks.append(
        _ok(
            "supercharacter-shift-consistency",
            worst < 1e-12,
            f"max deviation {worst:.2e}",
        )
    )
    return tuple(checks)


# ----------------------------------------------------------------------
# zhu suite
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _zhu_checks(m: int) -> Tuple[CheckResult, ...]:
    checks: List[CheckResult] = []
    for rel in zhu.relation_suite(m):
        checks.append(_ok(f"zhu-relation: {rel.name}", rel.passed, rel.detail))

    pts = 6 * m + 3
    ok = True
    for idx in range(pts):
        t = Fraction(idx - 3, 3) + Fraction(1, 7)
        if zhu.binomial_sum_lhs(t, m) != zhu.Fm(t, m):
            ok = False
    checks.append(_ok("screening-square-binomial-identity", ok, f"{pts} sample points"))

    records = zhu.classify_twisted(m)
    poly = zhu.fmr_polynomial(m)
    ok = len(records) == 2 * m + 1
    ok = ok and all(poly.eval_at(rec.lowest_weight) == 0 for rec in records)
    ok = ok and poly.eval_at(ch.central_charge(m) / 24) != 0
    checks.append(_ok("classification-weights-annihilated", ok))

    hab = zhu.hab_polynomial(m)
    rng = random.Random(20260808)
    ok = True
    for _ in range(20):
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        eig = zhu.singlet_eigen(t, m)
        if hab.evaluate(eig.g0_squared, eig.h0_sq) != 0:
            ok = False
    checks.append(_ok("even-generator-relation-vanishes-on-spectrum", ok))
    return tuple(checks)


# ----------------------------------------------------------------------
# fermion suite
# ----------------------------------------------------------------------


@lru_cache(maxsize=1)
def _fermion_checks() -> Tuple[CheckResult, ...]:
    grade = 6
    fock_cut = grade + 10
    basis = [fm.FockVector({mono: 1}, fock_cut) for mono in fm.basis_monomials(grade)]

    ok = True
    inner = {(b, i): fm.phi(b, v) for b in range(-4, 5) for i, v in enumerate(basis)}
    for a in range(-4, 5):
        for b in range(a, 5):  # the anti-bracket is symmetric in a and b
            for i, v in enumerate(basis):
                lhs = fm.phi(a, inner[b, i]) + fm.phi(b, inner[a, i])
                if not lhs.truncated and not (lhs - v.scale(int(a + b == 0))).is_zero():
                    ok = False
    checks = [_ok("clifford-anticommutators", ok)]

    ok = all((fm.phi(0, fm.phi(0, v)) - v.scale(Fraction(1, 2))).is_zero() for v in basis)
    checks.append(_ok("zero-mode-squares-to-half", ok))

    ground = {sign: fm.vacuum_pm(sign, fock_cut) for sign in (1, -1)}
    ok = all(
        (fm.phi(0, v) - v.scale(QuadRational(0, Fraction(sign, 2)))).is_zero() for sign, v in ground.items()
    )
    checks.append(_ok("parity-ground-states-are-zero-mode-eigenvectors", ok))

    L = fm.virasoro_mode
    ok = True
    for v in basis:
        bracket = L(1, L(-1, v)) - L(-1, L(1, v))
        if not bracket.truncated and not (bracket - L(0, v).scale(2)).is_zero():
            ok = False
    checks.append(_ok("virasoro-bracket-l1-lm1", ok))

    ok = all((fm.virasoro_mode_quadratic(0, v) - fm.virasoro_mode(0, v)).is_zero() for v in basis)
    checks.append(_ok("quadratic-vs-diagonal-conformal-weight", ok))

    table_check = fm.cmn_generating_check(12)
    checks.append(
        _ok(
            "lowering-table-generating-function",
            table_check.matches,
            f"total degree {table_check.max_total_degree}",
        )
    )

    ok = all(fm.cmn(a, b) == -fm.cmn(b, a) for a in range(9) for b in range(9))
    checks.append(_ok("lowering-table-antisymmetry", ok))

    report = fm.delta_apply_to_omega()
    checks.append(
        _ok(
            "lowering-operator-on-conformal-vector",
            report.matches_conformal_correction and report.second_order_vanishes,
            "single (1/16) x^-2 component, second application vanishes",
        )
    )

    dim_cut = Fraction(12)
    lhs = fm.graded_dimension_M(dim_cut)
    rhs = frak_f2(dim_cut).scale(2)
    checks.append(_ok("twisted-module-graded-dimension", (lhs - rhs).is_zero()))

    half = fm.graded_dimension_M_half(dim_cut)
    checks.append(
        _ok(
            "parity-half-graded-dimension",
            (half - frak_f2(dim_cut)).is_zero() and (half.scale(2) - lhs).is_zero(),
        )
    )
    return tuple(checks)


# memoised per (m, cutoff), per m (zhu) or once (fermion), the m-free theta checks once per
# cutoff (_cutoff_checks); run_suite copies results into a fresh list
_SUITES: Dict[str, Callable[[int, Fraction], Tuple[CheckResult, ...]]] = {
    "theta": _theta_suite,
    "characters": _characters_suite,
    "zhu": lambda m, cutoff: _zhu_checks(m),
    "fermion": lambda m, cutoff: _fermion_checks(),
}


def run_suite(name: str, m: int, cutoff=Fraction(30)) -> List[CheckResult]:
    """Run one named suite (or all of them) and return the check results."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if m < 1:
        raise ValueError("m must be >= 1")
    cutoff = _exponent(cutoff)
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    names = ["theta", "characters", "zhu", "fermion"] if name == "all" else [name]
    results: List[CheckResult] = []
    for suite in names:
        results.extend(_SUITES[suite](m, cutoff))
    return results
