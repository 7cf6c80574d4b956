from fractions import Fraction

import pytest

from supertriplet.arith import QuadRational
from supertriplet.fermion import (
    DeltaReport,
    FockVector,
    basis_monomials,
    cmn,
    cmn_generating_check,
    delta_apply_to_omega,
    delta_x,
    graded_dimension_M,
    graded_dimension_M_half,
    phi,
    u_annihilate,
    u_create,
    untwisted_omega,
    untwisted_vacuum,
    vacuum,
    vacuum_pm,
    virasoro_mode,
    virasoro_mode_quadratic,
)
from supertriplet.qseries import QSeriesError
from supertriplet.specialfn import frak_f2


CUT = 20


def monomials_up_to(grade):
    return [FockVector({mono: 1}, CUT) for mono in basis_monomials(grade)]


class TestCliffordAction:
    def test_contraction(self):
        v = phi(-1, vacuum(CUT))  # phi(-1) ground
        assert (phi(1, v) - vacuum(CUT)).is_zero()

    def test_annihilates_ground(self):
        assert phi(3, vacuum(CUT)).is_zero()

    def test_duplicate_creation_vanishes(self):
        v = phi(-2, vacuum(CUT))
        assert phi(-2, v).is_zero()

    def test_sign_bookkeeping(self):
        # phi(-1) phi(-3) ground = -(3,1) since modes store in decreasing order
        v = phi(-1, phi(-3, vacuum(CUT)))
        assert v.coeff((3, 1)) == QuadRational(-1)

    def test_anticommutators_exhaustive(self):
        basis = monomials_up_to(8)
        for a in range(-6, 7):
            for b in range(-6, 7):
                target = Fraction(1) if a + b == 0 else Fraction(0)
                for v in basis:
                    lhs = phi(a, phi(b, v)) + phi(b, phi(a, v))
                    assert not lhs.truncated
                    assert (lhs - v.scale(target)).is_zero(), (a, b, v)

    def test_zero_mode_squares_to_half(self):
        for v in monomials_up_to(8):
            assert (phi(0, phi(0, v)) - v.scale(Fraction(1, 2))).is_zero()

    @pytest.mark.parametrize("value", [0.5, 0.25j])
    def test_inexact_coefficient_refused(self, value):
        with pytest.raises(TypeError):
            FockVector({(1,): value})

    @pytest.mark.parametrize("vector", [vacuum(), FockVector()])
    def test_inexact_scalar_refused(self, vector):
        with pytest.raises(TypeError):
            vector.scale(0.25)

    def test_exact_coefficients_kept(self):
        v = FockVector({(1,): Fraction(1, 2), (2,): QuadRational(0, 1), (3,): -2})
        assert v.scale(Fraction(1, 3)).coeff((1,)) == QuadRational(Fraction(1, 6))

    @pytest.mark.parametrize("cutoff", [-1, 1.5, Fraction(3), "3"])
    def test_bad_grade_cutoff_refused(self, cutoff):
        # a negative cutoff drops even the vacuum, and a float one never equals the int cutoff of a vector to add
        with pytest.raises(ValueError, match="grade cutoff"):
            vacuum(cutoff)

    @pytest.mark.parametrize("cutoff", [0, 3, None])
    def test_grade_cutoff_kept(self, cutoff):
        v = FockVector({(): 1}, cutoff)
        assert v.cutoff == cutoff and not v.truncated and v.coeff(()) == QuadRational(1)

    def test_truncation_flagged(self):
        v = phi(-CUT, phi(-(CUT - 1), vacuum(CUT)))
        assert v.truncated
        assert v.is_zero()


class TestSuiteParameters:
    """``suites._fermion_checks`` skips a truncated anti-bracket or L(+-1)
    bracket without failing; at its parameters (basis grade 6, grade cutoff
    16, modes -4..4) no such case exists, so the skip never fires."""

    BASIS = [FockVector({mono: 1}, 16) for mono in basis_monomials(6)]

    def test_no_anticommutator_truncated(self):
        for a in range(-4, 5):
            for b in range(-4, 5):
                for v in self.BASIS:
                    assert not (phi(a, phi(b, v)) + phi(b, phi(a, v))).truncated, (a, b, v)

    def test_no_virasoro_bracket_truncated(self):
        for v in self.BASIS:
            bracket = virasoro_mode(1, virasoro_mode(-1, v)) - virasoro_mode(-1, virasoro_mode(1, v))
            assert not bracket.truncated, v


class TestParityGroundStates:
    def test_eigenvalues(self):
        for sign in (1, -1):
            v = vacuum_pm(sign, CUT)
            eig = QuadRational(0, Fraction(sign, 2))  # +- 1/sqrt2
            assert (phi(0, v) - v.scale(eig)).is_zero()

    def test_halves_span_in_all_grades(self):
        # words in phi(-n), n >= 1, applied to the two parity ground states
        # stay independent: their monomial matrix has full rank over Q(sqrt2)
        grade = 6
        words = [m for m in basis_monomials(grade) if 0 not in m]
        vectors = []
        for sign in (1, -1):
            ground = vacuum_pm(sign, CUT)
            for word in words:
                v = ground
                for mode in reversed(word):
                    v = phi(-mode, v)
                vectors.append(v)
        keys = sorted({mono for v in vectors for mono in v.terms})
        matrix = [[v.coeff(k) for k in keys] for v in vectors]
        rank = _quad_rank(matrix)
        assert rank == len(vectors)

    def test_plus_minus_sum_is_ground_pair(self):
        total = vacuum_pm(1, CUT) + vacuum_pm(-1, CUT)
        assert (total - vacuum(CUT).scale(2)).is_zero()


def _quad_rank(matrix):
    rows = [list(r) for r in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        norm = p.a * p.a - 2 * p.b * p.b  # (a + b sqrt2)^-1 = (a - b sqrt2) / (a^2 - 2 b^2)
        inv = QuadRational(p.a / norm, -p.b / norm)
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestVirasoro:
    def test_ground_weight(self):
        v = virasoro_mode(0, vacuum(CUT))
        assert (v - vacuum(CUT).scale(Fraction(1, 16))).is_zero()

    def test_grading(self):
        w = phi(-2, vacuum(CUT))
        assert (virasoro_mode(0, w) - w.scale(Fraction(2) + Fraction(1, 16))).is_zero()

    def test_bracket_l1_lm1(self):
        for v in monomials_up_to(6):
            bracket = virasoro_mode(1, virasoro_mode(-1, v)) - virasoro_mode(
                -1, virasoro_mode(1, v)
            )
            assert not bracket.truncated
            assert (bracket - virasoro_mode(0, v).scale(2)).is_zero()

    def test_quadratic_matches_diagonal(self):
        for v in monomials_up_to(6):
            assert (virasoro_mode_quadratic(0, v) - virasoro_mode(0, v)).is_zero()

    def test_lowering_ground(self):
        # L(-1) on the ground state is (1/2) phi(-1) phi(0)
        v = virasoro_mode(-1, vacuum(CUT))
        assert v.coeff((1, 0)) == QuadRational(Fraction(1, 2))
        assert len(v.terms) == 1


class TestLoweringTable:
    def test_diagonal_vanishes(self):
        assert cmn(0, 0) == 0
        assert cmn(3, 3) == 0

    def test_first_entry(self):
        assert cmn(1, 0) == Fraction(-1, 8)

    def test_antisymmetry(self):
        for a in range(11):
            for b in range(11):
                assert cmn(a, b) == -cmn(b, a)

    def test_generating_function_to_degree_16(self):
        report = cmn_generating_check(16)
        assert report.matches
        assert report.max_total_degree == 16
        assert report.mismatches == ()


class TestUntwistedSpace:
    def test_contraction(self):
        v = u_create(2, untwisted_vacuum())
        assert (u_annihilate(2, v) - untwisted_vacuum()).is_zero()

    def test_vacuum_annihilated(self):
        assert u_annihilate(0, untwisted_vacuum()).is_zero()

    def test_omega_structure(self):
        assert untwisted_omega().coeff((1, 0)) == Fraction(1, 2)

    def test_delta_on_vacuum_vanishes(self):
        assert delta_x(untwisted_vacuum()) == {}

    def test_delta_on_single_mode_vanishes(self):
        v = u_create(0, untwisted_vacuum())
        assert delta_x(v) == {}

    def test_delta_on_omega(self):
        report = delta_apply_to_omega()
        assert isinstance(report, DeltaReport)
        assert report.matches_conformal_correction
        assert report.second_order_vanishes
        img = report.first_order
        assert set(img) == {-2}
        assert (img[-2] - untwisted_vacuum().scale(Fraction(1, 16))).is_zero()

    @pytest.mark.parametrize("mode", [-1, 0, 1])
    def test_phi_refused(self, mode):
        with pytest.raises(ValueError, match="untwisted"):
            phi(mode, untwisted_omega())

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_virasoro_mode_refused(self, n):
        with pytest.raises(ValueError, match="untwisted"):
            virasoro_mode(n, untwisted_omega())

    def test_virasoro_mode_quadratic_refused(self):
        with pytest.raises(ValueError, match="untwisted"):
            virasoro_mode_quadratic(0, untwisted_omega())


class TestGradedDimension:
    def test_leading_term(self):
        s = graded_dimension_M(3)
        assert s.leading() == (Fraction(1, 24), Fraction(2))

    def test_equals_twice_f2(self):
        cutoff = Fraction(12)
        assert (graded_dimension_M(cutoff) - frak_f2(cutoff).scale(2)).is_zero()

    @pytest.mark.parametrize("build", [graded_dimension_M, graded_dimension_M_half])
    def test_float_cutoff_refused(self, build):
        with pytest.raises(QSeriesError, match="float"):
            build(12.0)
        assert build(Fraction(12)).cutoff == 12

    def test_halves(self):
        cutoff = Fraction(12)
        half = graded_dimension_M_half(cutoff)
        assert (half - frak_f2(cutoff)).is_zero()
        assert (half.scale(2) - graded_dimension_M(cutoff)).is_zero()
