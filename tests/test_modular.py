import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supertriplet import modular
from supertriplet.characters import ModuleLabel, _quotient, _theta_series, twisted_char
from supertriplet.modular import (
    _ROW_PRIME,
    MdeResult,
    SampleGrid,
    _aligned_runs,
    _eisenstein_monomials,
    _evaluation_matrix,
    _normalize_columns,
    _q_derivative,
    _solve_exact,
    _violated,
    basis_functions,
    character_theta_indices,
    closure_rank,
    closure_under_s_t,
    find_mde,
    s_transform_residual,
    standard_grid,
    t_transform_residual,
    theta_transform_grid,
)
from supertriplet.qseries import QExpansion, QSeriesError
from supertriplet.specialfn import ThetaIndex, theta
from supertriplet.zhu import classify_twisted

from oracles import apply_operator, eisenstein_monomials, gauss_jordan_solve, rounding_bound, termwise_evaluate

UNIT_CUTOFF = Fraction(200)


@pytest.fixture(scope="module")
def small_grid():
    return theta_transform_grid(UNIT_CUTOFF)


@pytest.fixture(scope="module")
def rank_grid_m1():
    return standard_grid(1, UNIT_CUTOFF)


@pytest.fixture(scope="module")
def mde_m1():
    return find_mde(1)


class TestBasis:
    def test_count(self):
        assert len(basis_functions(1)) == 12
        assert len(basis_functions(2)) == 21
        assert len(basis_functions(3)) == 30

    def test_tau_members(self):
        fns = basis_functions(1)
        assert sum(fn.tau_power for fn in fns) == 3

    def test_names_unique(self):
        names = [fn.name for fn in basis_functions(2)]
        assert len(set(names)) == len(names)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            SampleGrid((0.2j,), Fraction(100))

    def test_standard_grid_size(self):
        for m in (1, 2):
            assert len(standard_grid(m).points) >= 3 * (9 * m + 3)

    @pytest.mark.parametrize("build", [lambda x: standard_grid(1, x), theta_transform_grid])
    def test_grid_refuses_a_float_cutoff(self, build):
        with pytest.raises(QSeriesError, match="float"):
            build(100.0)
        assert build(Fraction(100)).cutoff == 100


class TestThetaTransforms:
    def test_s_half_odd_block(self, small_grid):
        # indices with both entries half-odd map onto the alternating family
        res = s_transform_residual((Fraction(1, 2), Fraction(3, 2)), "theta", small_grid)
        assert res < 1e-9

    def test_s_integer_block(self, small_grid):
        res = s_transform_residual((Fraction(1), Fraction(3, 2)), "theta", small_grid)
        assert res < 1e-9

    def test_s_derivative_blocks(self, small_grid):
        for j in (Fraction(1, 2), Fraction(1)):
            res = s_transform_residual((j, Fraction(3, 2)), "theta_deriv", small_grid)
            assert res < 1e-9

    def test_s_generic_integer_k(self, small_grid):
        for variant in ("theta", "theta_deriv"):
            res = s_transform_residual((Fraction(1), Fraction(1)), variant, small_grid)
            assert res < 1e-9, variant

    def test_all_character_indices(self, small_grid):
        for m in (1, 2):
            for idx in character_theta_indices(m):
                for variant in ("theta", "theta_deriv"):
                    assert s_transform_residual(idx, variant, small_grid) < 1e-9
                    assert t_transform_residual(idx, variant, small_grid) < 1e-9

    def test_s_fixed_point_consistency(self, small_grid):
        # at tau = i the S-law relates values at the same point
        idx = (Fraction(1, 2), Fraction(3, 2))
        grid = SampleGrid((1j,), small_grid.cutoff)
        assert s_transform_residual(idx, "theta", grid) < 1e-9

    @pytest.mark.parametrize("law", [s_transform_residual, t_transform_residual])
    def test_unknown_variant_refused(self, small_grid, law):
        # a misspelt variant must not fall back to the plain theta law
        with pytest.raises(ValueError, match="variant must be 'theta' or 'theta_deriv'"):
            law((Fraction(1), Fraction(3, 2)), "bogus", small_grid)

    def test_insufficient_cutoff_detected(self):
        grid = theta_transform_grid(Fraction(4))
        with pytest.raises(ValueError):
            s_transform_residual(
                (Fraction(1, 2), Fraction(3, 2)), "theta", grid, tolerance=1e-40
            )

    def test_insufficient_cutoff_names_first_failing_point(self):
        # the left side is summed at the S-images 2.5i, 0.667i and 0.5i: the
        # last two fail, and the last has the largest tail bound
        grid = SampleGrid((0.4j, 1.5j, 2j), Fraction(4))
        images = -1 / np.asarray(grid.points)
        bounds = theta(ThetaIndex(Fraction(1, 2), Fraction(3, 2)), grid.cutoff).evaluate(images).error_bound
        assert bounds[0] < 1e-6 < bounds[1] < bounds[2]
        with pytest.raises(ValueError) as info:
            s_transform_residual((Fraction(1, 2), Fraction(3, 2)), "theta", grid, tolerance=1e-5)
        assert f"bound {bounds[2]:.3e} exceeds" in str(info.value)
        assert str(info.value).endswith(f"at tau={images[1]}")

    def test_eval_bound_refuses_when_any_series_exceeds(self):
        # one short series among long ones refuses the batch, naming the first point it fails at
        idx = ThetaIndex(Fraction(1, 2), Fraction(3, 2))
        taus = np.array([2j, 0.5j])
        with pytest.raises(ValueError, match=r"at tau=0\.5j$"):
            modular._check_eval_bound([theta(idx, 400), theta(idx, 4), theta(idx, 400)], taus, 1.0)
        assert modular._check_eval_bound([theta(idx, 400)] * 2, taus, 1.0).shape == (2, 2)

    def test_t_swaps_prefactor_families(self, small_grid):
        # (f/eta) Theta_{j,k} at tau+1 equals e^{-i pi/8} e^{i pi j^2/2k}
        # (f1/eta) G_{j,k} at tau: the plus-product swaps to the minus-product
        # while eta and the theta part contribute their own phases
        import cmath
        import math as _math

        from supertriplet.characters import _quotient
        from supertriplet.modular import _theta_series

        j, k = Fraction(1), Fraction(3, 2)
        phase = cmath.exp(1j * _math.pi * (-0.125 + float(j * j / (2 * k))))
        lhs_pref = _quotient("f", small_grid.cutoff)
        lhs_theta = _theta_series("theta", j, k, small_grid.cutoff)
        rhs_pref = _quotient("f1", small_grid.cutoff)
        rhs_theta = _theta_series("g", j, k, small_grid.cutoff)
        for tau in small_grid.points:
            lhs = lhs_pref.evaluate(tau + 1).value * lhs_theta.evaluate(tau + 1).value
            rhs = phase * rhs_pref.evaluate(tau).value * rhs_theta.evaluate(tau).value
            assert abs(lhs - rhs) < 1e-10

    def test_residuals_shrink_with_cutoff(self):
        # convergence sanity: at a window where truncation dominates, the
        # residual drops by more than a decade as the cutoff doubles
        idx = (Fraction(1, 2), Fraction(3, 2))
        pt = SampleGrid((0.8j,), Fraction(3))
        coarse = s_transform_residual(idx, "theta", pt, tolerance=1e20)
        fine = s_transform_residual(
            idx, "theta", SampleGrid((0.8j,), Fraction(6)), tolerance=1e20
        )
        assert fine < coarse / 10


class TestClosureRank:
    def test_rank_m1(self, rank_grid_m1):
        report = closure_rank(1, rank_grid_m1)
        assert report.rank == 12
        assert report.gap > 1e6

    def test_threshold_rank_reported(self, rank_grid_m1):
        report = closure_rank(1, rank_grid_m1)
        assert report.threshold_rank == 12

    def test_duplicate_column_sanity(self, rank_grid_m1):
        fns = basis_functions(1)
        mat = _normalize_columns(
            _evaluation_matrix(fns, rank_grid_m1.points, rank_grid_m1.cutoff)
        )
        dup = np.hstack([mat, mat[:, :1]])
        sv = np.linalg.svd(dup, compute_uv=False)
        rank = int(np.sum(sv >= sv[0] * 1e-8))
        assert rank == 12

    @pytest.mark.parametrize("m", [1, 2])
    def test_matrix_matches_termwise_columns(self, m):
        # entry (tau, fn) is prefactor x theta part x tau^p; the two factors, each summed one
        # term at a time, lie within their rounding bounds of the grid sums, and the two
        # products and the factor tau add at most 8 units of 2^-52 of the entry's size
        grid = standard_grid(m, Fraction(100))
        points = [*grid.points, *(-1 / tau for tau in grid.points)]
        fns = basis_functions(m)
        mat = _evaluation_matrix(fns, points, grid.cutoff)
        series = {fn.prefactor: _quotient(fn.prefactor, grid.cutoff) for fn in fns}
        series.update({(fn.kind, fn.j, fn.k): _theta_series(fn.kind, fn.j, fn.k, grid.cutoff) for fn in fns})
        for i, tau in enumerate(points):
            sums = {key: (termwise_evaluate(s, tau)[0], rounding_bound(s, tau)) for key, s in series.items()}
            for col, fn in enumerate(fns):
                (a, ra), (b, rb) = sums[fn.prefactor], sums[fn.kind, fn.j, fn.k]
                size = (abs(a) + ra) * (abs(b) + rb)
                tolerance = (ra * abs(b) + (abs(a) + ra) * rb + 8 * 2.0 ** -52 * size) * abs(tau) ** fn.tau_power
                assert abs(mat[i, col] - a * b * tau ** fn.tau_power) <= tolerance

    def test_small_grid_rejected(self):
        tiny = SampleGrid(tuple(complex(0.1 * a, 0.8) for a in range(5)), UNIT_CUTOFF)
        with pytest.raises(ValueError):
            closure_rank(1, tiny)

    @pytest.mark.parametrize("check", [closure_rank, closure_under_s_t])
    def test_fewer_points_than_members_refused(self, check):
        # 6 points against the 12 members of m=1: any fit of the S and T images would be vacuous
        grid = standard_grid(1, Fraction(100))
        short = SampleGrid(grid.points[:6], grid.cutoff)
        with pytest.raises(ValueError, match="at least two points per basis function"):
            check(1, short)


class TestClosureFit:
    def test_m1_closure(self, rank_grid_m1):
        report = closure_under_s_t(1, rank_grid_m1)
        assert report.worst_s_residual < 1e-6
        assert report.worst_t_residual < 1e-8
        assert report.negative_control_residual > 1e-2

    def test_pointwise_control_is_reported(self, rank_grid_m1):
        report = closure_under_s_t(1, rank_grid_m1)
        assert 0 < report.negative_control_pointwise < 1e-2


class TestSharedMatrices:
    @pytest.mark.parametrize("order", [(closure_rank, closure_under_s_t), (closure_under_s_t, closure_rank)])
    def test_either_order_matches_an_empty_cache(self, order):
        grid = standard_grid(1, Fraction(100))
        cold = {}
        for check in order:
            modular._grid_matrix.cache_clear()
            cold[check] = check(1, grid)
        modular._grid_matrix.cache_clear()
        assert {check: check(1, grid) for check in order} == cold
        # the second check reads the first one's base and S matrices
        assert modular._grid_matrix.cache_info().hits == 2

    def test_matrix_is_read_only(self):
        grid = standard_grid(1, Fraction(100))
        mat = _evaluation_matrix(basis_functions(1), grid.points, grid.cutoff)
        with pytest.raises(ValueError):
            mat[0, 0] = 0

    def test_grids_of_one_m_share_no_entry(self):
        # the benchmark's seeded grids: standard_grid moved along the real axis
        base = standard_grid(1, Fraction(100))
        moved = SampleGrid(tuple(tau + 0.0137 for tau in base.points), base.cutoff)
        fns = basis_functions(1)
        modular._grid_matrix.cache_clear()
        mats = [_evaluation_matrix(fns, grid.points, grid.cutoff) for grid in (base, moved)]
        assert modular._grid_matrix.cache_info().misses == 2
        assert not np.allclose(*mats)
        assert _evaluation_matrix(fns, moved.points, moved.cutoff) is mats[1]


class TestExactSolver:
    def test_unique_system(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        rhs = [Fraction(3), Fraction(1)]
        assert _solve_exact(rows, rhs) == [Fraction(2), Fraction(1)]

    def test_overdetermined_consistent(self):
        rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]
        rhs = [Fraction(2), Fraction(5), Fraction(7)]
        assert _solve_exact(rows, rhs) == [Fraction(2), Fraction(5)]

    def test_inconsistent_detected(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        rhs = [Fraction(1), Fraction(3)]
        assert _solve_exact(rows, rhs) is None

    def test_underdetermined_particular(self):
        rows = [[Fraction(1), Fraction(1)]]
        rhs = [Fraction(4)]
        sol = _solve_exact(rows, rhs)
        assert sol is not None
        assert sol[0] + sol[1] == 4

    def test_violated_is_exact_substitution(self):
        rows, rhs = [[3, 0], [1, 2]], [1, 1]
        assert not _violated(rows, rhs, [Fraction(1, 3), Fraction(1, 3)])
        assert _violated(rows, rhs, [Fraction(1, 3), Fraction(1, 2)])
        # an all-zero row holds for any x only with a zero right-hand side
        assert not _violated([[0, 0]], [0], [Fraction(5), 7])
        assert _violated([[0, 0]], [1], [0, 0])

    def test_all_rows_answer_is_checked_too(self, monkeypatch):
        # the first lifted candidate, a solution or a certificate, is
        # corrupted once: the solver must reject it, reconstruct again and
        # still return the oracle's answer
        real = modular._reconstruct
        for rows, rhs in [
            # det = -p: rank 1 modulo _ROW_PRIME, rank 2 modulo the next
            # prime, so the second pair of primes lifts the solution (1, 2)
            ([[_ROW_PRIME + 1, 1], [1, 1]], [_ROW_PRIME + 3, 3]),
            # inconsistent: the first pair lifts the certificate y = (-2, 1)
            ([[1, 1], [2, 2]], [1, 3]),
        ]:
            candidates = []

            def corrupt_first(residues, modulus):
                found = real(residues, modulus)
                if found is not None:
                    candidates.append([x + 1 for x in found] if not candidates else found)
                    return candidates[-1]
                return found

            monkeypatch.setattr(modular, "_reconstruct", corrupt_first)
            expected = gauss_jordan_solve([[Fraction(x) for x in row] for row in rows], [Fraction(b) for b in rhs])
            assert _solve_exact(rows, rhs) == expected
            assert len(candidates) >= 2


class TestQDerivative:
    def test_multiplies_by_exponent(self):
        s = QExpansion({Fraction(1, 24): 2, Fraction(3): 5}, cutoff=10)
        d = _q_derivative(s)
        assert d.coeff(Fraction(1, 24)) == Fraction(2, 24)
        assert d.coeff(3) == 15

    def test_kills_constants(self):
        assert _q_derivative(QExpansion({0: 7}, cutoff=4)).is_zero()


class TestEisensteinPool:
    def test_weight_counts(self):
        pool = _eisenstein_monomials(8, Fraction(10))
        assert {weight: len(monos) for weight, monos in pool.items()} == {2: 2, 4: 5, 6: 10, 8: 20}

    def test_monomial_series_shapes(self):
        pool = _eisenstein_monomials(4, Fraction(10))
        key = (("G2", 2),)
        assert key in pool[4]
        run, scale = pool[4][key]
        assert len(run) == 10 and scale * run[0] == Fraction(-1, 12) * Fraction(-1, 12)

    @pytest.mark.parametrize("max_weight, cutoff", [(8, Fraction(10)), (6, Fraction(47)), (12, Fraction(17, 2))])
    def test_runs_match_oracle_series(self, max_weight, cutoff):
        # every run restates the series pool of the oracle exactly: same
        # integers on q^0, q^1, ... below the cutoff, under the same scale
        pool, oracle = _eisenstein_monomials(max_weight, cutoff), eisenstein_monomials(max_weight, cutoff)
        assert {w: set(monos) for w, monos in pool.items()} == {w: set(monos) for w, monos in oracle.items()}
        for weight, monos in oracle.items():
            for key, series in monos.items():
                run, scale = pool[weight][key]
                assert len(run) == math.ceil(cutoff)
                assert series.lattice == (0, 1, tuple(run[: len(series.lattice[2])]), scale)
                assert not any(run[len(series.lattice[2]) :])

    def test_each_weight_matches_a_pool_built_up_to_it(self):
        # a lighter monomial is the same series whatever the largest weight asked for
        full = _eisenstein_monomials(8, Fraction(10))
        for top in (2, 4, 6):
            assert {w: full[w] for w in range(2, top + 1, 2)} == _eisenstein_monomials(top, Fraction(10))


@st.composite
def _series_after(draw, lead):
    """A series on its own lattice starting at or after ``lead``; possibly zero."""
    d = draw(st.integers(1, 6))
    offset = lead + Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 6)))
    coeffs = draw(st.lists(st.integers(-5, 5), max_size=10))
    scale = draw(st.fractions(min_value=-3, max_value=3, max_denominator=9).filter(bool))
    return QExpansion.from_lattice(offset, d, coeffs, scale)


@st.composite
def _aligned_case(draw):
    lead = draw(st.fractions(min_value=-2, max_value=2, max_denominator=24))
    series_list = draw(st.lists(_series_after(lead), min_size=1, max_size=4))
    stop = lead + draw(st.fractions(min_value=0, max_value=8, max_denominator=12))
    return series_list, lead, stop


class TestAlignedRuns:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_aligned_case())
    def test_runs_restate_the_series(self, case):
        series_list, lead, stop = case
        d, runs = _aligned_runs(series_list, lead, stop)
        for series, (run, scale) in zip(series_list, runs):
            assert len(run) == math.ceil((stop - lead) * d)
            for i, c in enumerate(run):
                assert scale * c == series.coeff(lead + Fraction(i, d))
            # every term below stop sits on the common lattice
            for e, c in series.terms:
                if e < stop:
                    assert ((e - lead) * d).denominator == 1


class TestMde(object):
    def test_operator_exists(self, mde_m1):
        assert isinstance(mde_m1, MdeResult)
        assert mde_m1.success
        assert mde_m1.order == 4

    def test_verified_through_sixty(self, mde_m1):
        assert mde_m1.verified_q_order >= 60

    def test_monic_normalization(self, mde_m1):
        # the leading derivative never appears among the unknowns
        assert all(j < mde_m1.order for j, _ in mde_m1.coefficients)

    def test_negative_control(self, mde_m1):
        assert mde_m1.negative_control_nonzero

    def test_weight_homogeneous_coefficients(self, mde_m1):
        for (j, key), value in mde_m1.coefficients.items():
            if value == 0:
                continue
            total = sum(
                int(name[1:].split(",")[0]) * mult for name, mult in key
            )
            assert total == 2 * (mde_m1.order - j)

    def test_json_export(self, mde_m1):
        data = mde_m1.to_json()
        assert data["success"] is True
        assert data["order"] == 4
        assert all(len(c["value"]) == 2 for c in data["coefficients"])

    def test_m4_leads_come_from_the_classification(self):
        # RPi(1) at m=4 has no term below q^4, so a lead probed from a series
        # cut at q^4 was None; the classification gives every lead
        result = find_mde(4, q_order=1, allow_large_m=True)
        assert result.success and result.order == 13

    def test_large_m_warns(self):
        with pytest.warns(RuntimeWarning):
            find_mde(2, q_order=4)

    @pytest.mark.parametrize("q_order", [0, -3])
    def test_q_order_below_one_refused(self, q_order):
        # a window of no q-orders verifies nothing, so it is not reported as a success
        with pytest.raises(ValueError, match="q_order must be >= 1"):
            find_mde(1, q_order=q_order)

    def test_m2_q20_json_pinned(self):
        # the digest of the all-rows Bareiss solve, before rows were picked mod p
        data = json.dumps(find_mde(2, q_order=20, allow_large_m=True).to_json(), sort_keys=True)
        digest = hashlib.sha256(data.encode()).hexdigest()
        assert digest == "3ff97e38da56e31470b660f0bbb8cc31193d2337fa1ec59d92a391369e4dca2b"

    @pytest.mark.parametrize(
        "m, digest",
        [
            (1, "2b7450c75610582f02bccfa03068865c2267812e02e521823c106e182eaef9f2"),
            (2, "d8ed6aaf82acfe29e396607645fe9ec2d832860fcfb5408caa5fa690776fd42f"),
        ],
        ids=["m1", "m2"],
    )
    def test_cli_default_q60_json_pinned(self, m, digest):
        # q-order 60 is the default of `modular mde`; the digests are those of
        # the all-rows solve, before the solve worked modulo primes
        data = json.dumps(find_mde(m, q_order=60, allow_large_m=True).to_json(), sort_keys=True)
        assert hashlib.sha256(data.encode()).hexdigest() == digest


def _residual_support(result, through):
    """Relative exponents below ``through`` at which the operator of
    ``result`` fails to annihilate a twisted character rebuilt to that order,
    each from the lead of the classification, lowest weight - c/24."""
    m, order, cutoff = result.m, result.order, Fraction(through + 1)
    pool = eisenstein_monomials(2 * order, cutoff)
    bad = set()
    for rec in classify_twisted(m):
        lead, label = rec.g0_squared, ModuleLabel(rec.family, rec.index, m)
        residual = apply_operator(result.coefficients, order, twisted_char(label, lead + cutoff), pool)
        assert residual.cutoff >= lead + through
        bad |= {e - lead for e, c in residual.terms if e < lead + through and c != 0}
    return sorted(bad)


class TestMdeOutOfSample:
    """The solve fits q-orders below ``q_order + _MDE_MARGIN``; these checks
    rebuild the characters further out and apply the operator there."""

    def test_m1_annihilates_through_80(self):
        result = find_mde(1, q_order=40)
        assert result.success
        assert _residual_support(result, 80) == []

    def test_m2_annihilates_through_30(self):
        result = find_mde(2, q_order=12, allow_large_m=True)
        assert result.success
        assert _residual_support(result, 30) == []

    def test_m2_short_window_fails_right_after_it(self):
        # verified_q_order counts exponents inside the solved window only:
        # at q-order 2 (window 8) the operator breaks at relative exponent 8
        result = find_mde(2, q_order=2, allow_large_m=True)
        assert result.success and result.verified_q_order == 2
        assert _residual_support(result, 20)[:1] == [8]


class TestReportSchema:
    """The keys of every report's ``to_json`` are its dataclass fields, so a new
    field changes the JSON of schema "1"; these sets make that change deliberate."""

    def test_rank_report(self, rank_grid_m1):
        report = closure_rank(1, rank_grid_m1)
        data = report.to_json()
        assert set(data) == {"m", "rank", "expected", "gap", "singular_values", "threshold_rank"}
        data["rank"] = -1
        assert report.rank == 12  # the dict is a copy, not the report's own namespace

    def test_closure_report(self, rank_grid_m1):
        data = closure_under_s_t(1, rank_grid_m1).to_json()
        assert set(data) == {
            "m",
            "worst_s_residual",
            "worst_t_residual",
            "negative_control_residual",
            "negative_control_pointwise",
            "per_member",
        }
        assert len(data["per_member"]) == 12
        assert all(set(row) == {"name", "s_residual", "t_residual"} for row in data["per_member"])

    def test_mde_result(self, mde_m1):
        data = mde_m1.to_json()
        assert set(data) == {
            "m",
            "order",
            "success",
            "verified_q_order",
            "coefficients",
            "negative_control_nonzero",
            "message",
        }
        assert data["coefficients"]
        assert all(set(c) == {"derivative_order", "monomial", "value"} for c in data["coefficients"])

    def test_twisted_module_record(self):
        for rec in classify_twisted(2):
            data = rec.to_json()
            assert set(data) == {"family", "index", "i_index", "lowest_weight", "top_dim_graded", "g0_squared"}
            assert data["lowest_weight"] == [str(rec.lowest_weight.numerator), str(rec.lowest_weight.denominator)]
            assert data["g0_squared"] == [str(rec.g0_squared.numerator), str(rec.g0_squared.denominator)]
