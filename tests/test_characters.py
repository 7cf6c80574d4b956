import cmath
import json
import math
from fractions import Fraction

import pytest

from supertriplet import cli
from supertriplet.characters import (
    ModuleLabel,
    all_labels,
    central_charge,
    character_series,
    character_terms,
    conformal_weight,
    fock_char,
    ramond_irred_char,
    theta_rows,
    triplet_char_bridge,
    twisted_char,
    untwisted_char,
)
from supertriplet.qseries import QExpansion, QSeriesError
from supertriplet.specialfn import frak_f2, frak_f, eta, theta
from supertriplet.zhu import classify_twisted

from oracles import char_table_rows, shift_law_violations, w_algebra_char_oracle


class TestConformalData:
    def test_central_charge_m1(self):
        assert central_charge(1) == Fraction(-5, 2)

    def test_central_charge_general(self):
        assert central_charge(2) == Fraction(3, 2) - Fraction(48, 5)

    def test_weight_examples(self):
        assert conformal_weight(0, 0, 1) == Fraction(-1, 16)
        assert conformal_weight(2, 0, 1) == Fraction(13, 48)
        assert conformal_weight(3, 0, 1) == Fraction(15, 16)

    def test_weight_negative_second_index(self):
        # h(2, -1) for m=1
        assert conformal_weight(0, -1, 1) == Fraction(15, 16)

    def test_row_reflection(self):
        # rows i and 2m-1-i carry the same head weight
        for m in (1, 2, 3):
            for i in range(m):
                assert conformal_weight(i, 0, m) == conformal_weight(2 * m - 1 - i, 0, m)


class TestLabels:
    def test_valid_ranges(self):
        ModuleLabel("RLambda", 1, 1)
        ModuleLabel("RPi", 2, 1)
        ModuleLabel("SLambda", 2, 1)
        ModuleLabel("SPi", 1, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ModuleLabel("RLambda", 2, 1)
        with pytest.raises(ValueError):
            ModuleLabel("RPi", 3, 1)
        with pytest.raises(ValueError):
            ModuleLabel("SPi", 0, 1)

    def test_bad_family(self):
        with pytest.raises(ValueError):
            ModuleLabel("Nope", 1, 1)

    def test_bad_m(self):
        with pytest.raises(ValueError):
            ModuleLabel("RLambda", 1, 0)

    @pytest.mark.parametrize("m", [0, -1, -5])
    def test_no_label_table_below_m1(self, m):
        # at m <= -1 every index range is empty, so no ModuleLabel would refuse the m
        with pytest.raises(ValueError, match="m must be >= 1"):
            all_labels(m)

    def test_row_count(self):
        for m in (1, 2, 3):
            assert len(all_labels(m)) == 3 * (2 * m + 1)


class TestTwistedCharacters:
    def test_rlambda1_leading(self):
        chi = twisted_char(ModuleLabel("RLambda", 1, 1), 4)
        assert chi.leading() == (Fraction(1, 24), Fraction(2))

    def test_rpi2_leading(self):
        chi = twisted_char(ModuleLabel("RPi", 2, 1), 4)
        assert chi.leading() == (Fraction(3, 8), Fraction(4))

    def test_rpi1_leading_after_cancellation(self):
        chi = twisted_char(ModuleLabel("RPi", 1, 1), 4)
        assert chi.leading() == (Fraction(25, 24), Fraction(4))

    def test_derivative_terms_cancel_in_sum(self):
        # RLambda(1) + RPi(1) = 2 (f2/eta) Theta_{1/2,3/2} for m=1
        cutoff = Fraction(15)
        lhs = twisted_char(ModuleLabel("RLambda", 1, 1), cutoff) + twisted_char(
            ModuleLabel("RPi", 1, 1), cutoff
        )
        pref = (frak_f2(cutoff + 2) / eta(cutoff + 2)).truncated(cutoff + 1)
        rhs = (pref * theta((Fraction(1, 2), Fraction(3, 2)), cutoff + 1)).scale(2)
        assert (lhs - rhs.truncated(lhs.cutoff)).is_zero()

    def test_leading_term_dictionary(self):
        for m in (1, 2, 3):
            c = central_charge(m)
            for rec in classify_twisted(m):
                chi = twisted_char(ModuleLabel(rec.family, rec.index, m), rec.lowest_weight - c / 24 + 2)
                assert chi.leading() == (rec.lowest_weight - c / 24, rec.top_dim_graded)

    def test_halving_flag(self):
        chi = twisted_char(ModuleLabel("RLambda", 1, 2), 10)
        half = twisted_char(ModuleLabel("RLambda", 1, 2), 10, halve=True)
        assert (half.scale(2) - chi).is_zero()
        # split characters stay integral: the graded coefficients are even
        assert all(c.denominator == 1 for _, c in half.terms)

    def test_positivity_and_integrality(self):
        for m in (1, 2, 3):
            for label, flavor in all_labels(m):
                series = character_series(label, flavor, 40)
                if flavor == "character":
                    assert all(c >= 0 and c.denominator == 1 for _, c in series.terms), (label, flavor)
                else:
                    assert all(c.denominator == 1 for _, c in series.terms), (label, flavor)


class TestMemoisedCharacters:
    @pytest.mark.parametrize("m", [1, 2])
    def test_cached_characters_match_recomputation(self, m):
        calls = [(label, flavor, cutoff) for label, flavor in all_labels(m) for cutoff in (Fraction(1, 2), 7, 12)]
        cached = [character_series(*call) for call in calls]
        twisted = [label for label, _ in all_labels(m) if label.twisted]
        halves = [twisted_char(label, 12, halve=True) for label in twisted]
        # a repeated call shares the result, also for an equal cutoff of another type
        assert all(character_series(label, flavor, Fraction(cutoff)) is series
                   for (label, flavor, cutoff), series in zip(calls, cached))
        twisted_char.cache_clear()
        untwisted_char.cache_clear()
        fresh = [character_series(*call) for call in calls]
        assert all(a is not b and a == b for a, b in zip(fresh, cached))
        assert [twisted_char(label, 12, halve=True) for label in twisted] == halves

    def test_label_and_theta_row_tables_built_once(self):
        all_labels.cache_clear()
        theta_rows.cache_clear()
        labels = all_labels(300)
        for label, flavor in all_labels(300):
            character_terms(label, flavor)
        assert all_labels(300) is labels and len(labels) == 3 * 601
        assert all_labels.cache_info().misses == 1
        assert theta_rows.cache_info().misses == 1
        assert theta_rows.cache_info().hits == len(labels) - 1


class TestUntwistedCharacters:
    def test_slambda_top_leading_exponent(self):
        chi = untwisted_char(ModuleLabel("SLambda", 2, 1), "character", 4)
        assert chi.min_exponent == Fraction(-1, 16)
        assert chi.leading()[1] == 1

    def test_spi_m_leading_coefficient(self):
        chi = untwisted_char(ModuleLabel("SPi", 1, 1), "character", 4)
        assert chi.leading()[1] == 2

    def test_even_subspace_positivity(self):
        # (char + superchar)/2 is the even-subspace trace
        for m in (1, 2):
            for family, indices in (("SLambda", range(1, m + 2)), ("SPi", range(1, m + 1))):
                for index in indices:
                    label = ModuleLabel(family, index, m)
                    chi = untwisted_char(label, "character", 15)
                    schi = untwisted_char(label, "supercharacter", 15)
                    even = (chi + schi).scale(Fraction(1, 2))
                    assert all(
                        c >= 0 and c.denominator == 1 for _, c in even.terms
                    ), (family, index, m)

    def test_twisted_label_rejected(self):
        with pytest.raises(ValueError):
            untwisted_char(ModuleLabel("RPi", 1, 1), "character", 4)

    def test_supercharacter_flavor_of_twisted_rejected(self):
        with pytest.raises(ValueError):
            character_series(ModuleLabel("RLambda", 1, 1), "supercharacter", 4)


class TestRamondIrreducible:
    def test_head_term(self):
        chi = ramond_irred_char(0, 0, 1, 3)
        assert chi.leading() == (Fraction(1, 24), Fraction(2))

    def test_first_subtraction_gap(self):
        # the subtracted Verma sits one full power above for (m,i,n)=(1,0,0)
        chi = ramond_irred_char(0, 0, 1, 3)
        verma_pref = (frak_f2(5) / eta(5)).truncated(4)
        # coefficient at 1/24 + 1 is (overpartition coefficient at 1) - 2
        assert chi.coeff(Fraction(1, 24) + 1) == 2 * verma_pref.coeff(1) - 2

    def test_nonnegative_coefficients(self):
        for m in (1, 2):
            for i in range(2 * m + 1):
                for n in range(3):
                    chi = ramond_irred_char(i, n, m, 25)
                    assert all(c >= 0 for _, c in chi.terms), (m, i, n)

    def test_negative_second_index_ordering(self):
        # the documented convention: label (i, n<0) coincides with (i, -n-1)
        for m in (1, 2):
            for i in range(m):
                for n in (-1, -2):
                    lhs = ramond_irred_char(i, n, m, 20)
                    rhs = ramond_irred_char(i, -n - 1, m, 20)
                    assert (lhs - rhs).is_zero()

    def test_telescoping_to_rlambda(self):
        cutoff = Fraction(30)
        for m in (1, 2):
            c = central_charge(m)
            for i in range(m):
                N = 8
                window = min(cutoff, conformal_weight(i, N, m) - c / 24)
                total = QExpansion.zero(cutoff)
                for n in range(N + 1):
                    total = total + ramond_irred_char(i, n, m, cutoff).scale(2 * n + 1)
                target = twisted_char(ModuleLabel("RLambda", i + 1, m), cutoff)
                diff = total - target
                assert not any(e < window and c2 != 0 for e, c2 in diff.terms), (m, i)


class TestFockCharacters:
    def test_leading(self):
        chi = fock_char(0, 1, 4)
        assert chi.leading() == (Fraction(1, 24), Fraction(2))

    def test_additivity(self):
        cutoff = Fraction(40)
        for m in (1, 2):
            for i in range(m):
                lhs = fock_char(i, m, cutoff)
                rhs = twisted_char(ModuleLabel("RLambda", i + 1, m), cutoff) + twisted_char(
                    ModuleLabel("RPi", m - i, m), cutoff
                )
                assert (lhs - rhs).is_zero(), (m, i)

    def test_top_row_is_rpi_top(self):
        for m in (1, 2):
            lhs = fock_char(2 * m, m, 25)
            rhs = twisted_char(ModuleLabel("RPi", m + 1, m), 25)
            assert (lhs - rhs).is_zero()

    @pytest.mark.parametrize("i, m", [(0, 0), (0, -1)])
    def test_m_below_1_refused(self, i, m):
        with pytest.raises(ValueError, match="m must be >= 1"):
            fock_char(i, m, 5)

    def test_reflected_rows_match(self):
        for m in (2, 3):
            for i in range(m, 2 * m):
                assert (fock_char(i, m, 15) - fock_char(2 * m - 1 - i, m, 15)).is_zero()


class TestBridge:
    def test_matches_closed_form_oracle(self):
        cutoff = Fraction(30)
        for m in (1, 2):
            p = 2 * m + 1
            table = triplet_char_bridge(m, cutoff)
            for kind in ("Lambda", "Pi"):
                assert sorted(table[kind]) == list(range(1, p + 1))
                for s, series in table[kind].items():
                    oracle = QExpansion(
                        w_algebra_char_oracle(kind, s, p, cutoff), cutoff=cutoff
                    )
                    assert (series - oracle).is_zero(), (m, kind, s)

    def test_nonnegative_integer_coefficients(self):
        table = triplet_char_bridge(1, 30)
        for kind in ("Lambda", "Pi"):
            for series in table[kind].values():
                assert all(c >= 0 and c.denominator == 1 for _, c in series.terms)

    def test_defining_relations_reproduce_characters(self):
        # reading each relation back: f * chi_twisted / 2 equals the half-
        # exponent relabel of the derived W-character
        m, cutoff = 1, Fraction(12)
        table = triplet_char_bridge(m, 2 * cutoff + 2)
        f = frak_f(cutoff + 1)
        for i in range(m):
            chi = twisted_char(ModuleLabel("RLambda", i + 1, m), cutoff + 1)
            lhs = (f * chi).scale(Fraction(1, 2))
            rhs = table["Lambda"][2 * i + 2].half_exponents()
            assert ((lhs - rhs.truncated(lhs.cutoff))).is_zero()

    def test_supercharacter_route_consistency(self):
        # evaluating the derived W-character at (tau+1)/2 is tau -> tau+1 on
        # the tau/2 series; it reproduces f2 * supercharacter up to the automorphy
        # phase e^{i pi s0} (s0 the W-character's leading exponent) and the
        # top-parity sign
        for m in (1, 2):
            cutoff = Fraction(12)
            f2 = frak_f2(cutoff + 1)
            untwisted = [("SLambda", i + 1) for i in range(m + 1)] + [
                ("SPi", m - i) for i in range(m)
            ]
            for family, index in untwisted:
                label = ModuleLabel(family, index, m)
                chi = untwisted_char(label, "character", cutoff + 1)
                schi = untwisted_char(label, "supercharacter", cutoff + 1)
                half_w = f2 * chi
                s0 = 2 * half_w.min_exponent
                eps = 1 if schi.leading()[1] > 0 else -1
                phase = eps * cmath.exp(1j * math.pi * float(s0 - 2 * math.floor(s0 / 2)))
                deviation = half_w.shift_tau_deviation(f2 * schi, phase)
                assert deviation < 1e-12, (family, index, m)


def _shift_law_violations(label, cutoff):
    """Where chi(tau + 1) = eps e^{2 pi i L} schi(tau) fails for the module of ``label``,
    L the leading exponent of chi and eps the sign of schi's leading coefficient."""
    chi, schi = (untwisted_char(label, flavor, cutoff) for flavor in ("character", "supercharacter"))
    return shift_law_violations(chi, schi, chi.min_exponent, 1 if schi.leading()[1] > 0 else -1)


class TestSuperVsT:
    def test_slambda_top(self):
        assert not _shift_law_violations(ModuleLabel("SLambda", 2, 1), 12)

    def test_spi(self):
        assert not _shift_law_violations(ModuleLabel("SPi", 1, 1), 12)

    def test_all_untwisted_labels_m2(self):
        for family, indices in (("SLambda", range(1, 4)), ("SPi", range(1, 3))):
            for index in indices:
                assert not _shift_law_violations(ModuleLabel(family, index, 2), 12)

    def test_shift_twice_matches_squared_phase(self):
        # exact form of chi(tau+1) = eps e^{2 pi i L} schi(tau), L the leading
        # exponent: schi_e = eps (-1)^{2(e - L)} chi_e with 2(e - L) integral,
        # so tau -> tau+2 multiplies chi by the constant phase e^{4 pi i L}
        for m in (1, 2, 3):
            for family, indices in (("SLambda", range(1, m + 2)), ("SPi", range(1, m + 1))):
                for index in indices:
                    label = ModuleLabel(family, index, m)
                    chi = untwisted_char(label, "character", 40)
                    schi = untwisted_char(label, "supercharacter", 40)
                    eps = 1 if schi.leading()[1] > 0 else -1
                    assert not shift_law_violations(chi, schi, chi.min_exponent, eps), label


class TestExport:
    def test_rows_shape(self):
        rows = char_table_rows(1, 6)
        assert len(rows) == 9
        sample = rows[0]
        assert sample["family"] == "RLambda"
        assert sample["series"]["terms"]
        assert sample["leading_exponent"] == ["1", "24"]
        reply = cli._char_payload(Fraction(6), tuple(all_labels(1)), "json")
        assert json.loads(reply) == {"schema": "1", "rows": rows}


class TestFloatCutoffRefused:
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: twisted_char(ModuleLabel("RLambda", 1, 1), x),
            lambda x: untwisted_char(ModuleLabel("SLambda", 1, 1), "character", x),
            lambda x: character_series(ModuleLabel("SPi", 1, 1), "supercharacter", x),
            lambda x: ramond_irred_char(0, 0, 1, x),
            lambda x: fock_char(0, 1, x),
            lambda x: triplet_char_bridge(1, x)["Lambda"][1],
        ],
    )
    def test_builders_refuse_a_float_cutoff(self, build):
        with pytest.raises(QSeriesError, match="float"):
            build(2.5)
        assert build(Fraction(5, 2)).cutoff == Fraction(5, 2)
