import csv
import io
import json
from fractions import Fraction

import pytest

from supertriplet.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from supertriplet import suites
from supertriplet.suites import CheckResult, run_suite


class TestSuites:
    @pytest.mark.parametrize("suite", ["theta", "zhu", "fermion"])
    def test_suites_pass_m1(self, suite):
        results = run_suite(suite, 1, cutoff=Fraction(20))
        assert results
        for check in results:
            assert check.passed, check.name

    def test_characters_suite_m2(self):
        results = run_suite("characters", 2, cutoff=Fraction(20))
        for check in results:
            assert check.passed, check.name

    def test_all_runs_everything(self):
        results = run_suite("all", 1, cutoff=Fraction(15))
        names = {c.name for c in results}
        assert any(n.startswith("zhu-relation") for n in names)
        assert "clifford-anticommutators" in names
        assert "theta-periodicity-in-first-index" in names
        assert "character-integrality-and-positivity" in names

    def test_injected_fault_fails(self):
        results = run_suite("zhu", 1, cutoff=Fraction(10), inject_fault="demo")
        tail = results[-1]
        assert tail.name == "injected-fault:demo"
        assert not tail.passed
        assert all(c.passed for c in results[:-1])

    def test_fermion_suite_ignores_m_and_cutoff(self):
        runs = {(m, cutoff): run_suite("fermion", m, cutoff) for m in (1, 2, 3) for cutoff in (20, 30, 40)}
        first = [c.to_json() for c in runs[(1, 20)]]
        assert all([c.to_json() for c in run] == first for run in runs.values())
        assert len(first) == 10 and all(c["passed"] for c in first)
        # computed once per process: every run holds the same result objects
        assert all(run[0] is runs[(1, 20)][0] for run in runs.values())

    def test_fermion_suite_matches_recomputation(self):
        cached = run_suite("fermion", 2, 30)
        suites._fermion_checks.cache_clear()
        fresh = run_suite("fermion", 2, 30)
        assert fresh[0] is not cached[0]
        assert [c.to_json() for c in fresh] == [c.to_json() for c in cached]

    def test_fermion_suite_returns_fresh_list(self):
        first = run_suite("fermion", 1)
        expected = [c.to_json() for c in first]
        first.clear()
        run_suite("fermion", 1).append(CheckResult("extra", False, ""))
        suites._fermion_suite(1, Fraction(30)).pop()
        assert [c.to_json() for c in run_suite("fermion", 1)] == expected

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope", 1)


class TestCharCommand:
    def test_single_label_json(self, capsys, tmp_path):
        out = tmp_path / "char.json"
        code = main(
            ["char", "--m", "1", "--family", "RLambda", "--index", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["schema"] == "1"
        row = data["rows"][0]
        assert row["family"] == "RLambda"
        first = row["series"]["terms"][0]
        assert first["exp"] == ["1", "24"]
        assert first["coef"] == ["2", "1"]

    def test_all_rows_count(self, tmp_path):
        out = tmp_path / "table.json"
        code = main(["char", "--m", "1", "--all", "--cutoff", "6", "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert len(data["rows"]) == 3 * (2 * 1 + 1)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(
            [
                "char", "--m", "1", "--family", "RPi", "--index", "2",
                "--cutoff", "4", "--format", "csv", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["family", "index", "flavor", "m", "exponent", "coefficient"]
        assert rows[1][4] == "3/8"
        assert rows[1][5] == "4/1"

    def test_invalid_m(self, capsys):
        assert main(["char", "--m", "0", "--all"]) == EXIT_USAGE
        assert "m must be >= 1" in capsys.readouterr().err

    def test_invalid_index_names_range(self, capsys):
        code = main(["char", "--m", "1", "--family", "RLambda", "--index", "5"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "[1, 1]" in err

    def test_missing_selector(self, capsys):
        assert main(["char", "--m", "1"]) == EXIT_USAGE

    def test_cutoff_below_series_is_usage_error(self, capsys):
        code = main(["char", "--m", "1", "--all", "--cutoff", "-3"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("char: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_huge_cutoff_is_usage_error(self, capsys):
        # the dense run of 10^7 entries is refused before it is allocated
        code = main(["char", "--m", "1", "--all", "--cutoff", "10000000"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("char: ") and "MAX_RUN" in captured.err
        assert captured.out == ""

    def test_twisted_supercharacter_rejected(self, capsys):
        code = main(
            ["char", "--m", "1", "--family", "RPi", "--index", "1", "--flavor", "supercharacter"]
        )
        assert code == EXIT_USAGE

    def test_deterministic_output(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["char", "--m", "1", "--all", "--cutoff", "8"]
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        assert main(argv + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestVerifyCommand:
    def test_verify_zhu_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--m", "1", "--suite", "zhu", "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert all(c["passed"] for c in data["checks"])

    def test_verify_fault_exit_code(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(
            [
                "verify", "--m", "1", "--suite", "zhu",
                "--inject-fault", "negative-control", "--out", str(out),
            ]
        )
        assert code == EXIT_CHECK_FAILED
        data = json.loads(out.read_text())
        assert data["passed"] is False
        failing = [c for c in data["checks"] if not c["passed"]]
        assert failing == [
            {
                "name": "injected-fault:negative-control",
                "passed": False,
                "detail": "deliberately corrupted constant, this check must fail",
            }
        ]

    def test_tolerance_flag_refused(self, capsys):
        # no verify check reads a tolerance; only modular registers the flag
        code = main(["verify", "--m", "1", "--suite", "zhu", "--tolerance", "1e-3"])
        assert code == EXIT_USAGE


class TestClassifyCommand:
    def test_json(self, tmp_path):
        out = tmp_path / "classify.json"
        assert main(["classify", "--m", "1", "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        weights = sorted(
            Fraction(int(r["lowest_weight"][0]), int(r["lowest_weight"][1]))
            for r in data["modules"]
        )
        assert weights == [Fraction(-1, 16), Fraction(13, 48), Fraction(15, 16)]

    def test_csv(self, tmp_path):
        out = tmp_path / "classify.csv"
        assert main(["classify", "--m", "2", "--format", "csv", "--out", str(out)]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert len(rows) == 1 + 5

    def test_cutoff_flag_refused(self, capsys):
        # the classification has no series, so classify registers no --cutoff
        assert main(["classify", "--m", "1", "--cutoff", "5"]) == EXIT_USAGE


class TestModularCommand:
    def test_cutoff_floor(self, capsys):
        assert main(["modular", "rank", "--m", "1", "--cutoff", "50"]) == EXIT_USAGE

    def test_rank_report(self, tmp_path):
        out = tmp_path / "rank.json"
        code = main(["modular", "rank", "--m", "1", "--cutoff", "120", "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["rank"] == 12
        assert data["gap"] > 1e6

    def test_s_transform_report(self, tmp_path):
        out = tmp_path / "st.json"
        code = main(["modular", "s-transform", "--m", "1", "--cutoff", "150", "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["worst_residual"] < 1e-9

    def test_closure_report(self, tmp_path):
        out = tmp_path / "closure.json"
        code = main(["modular", "closure", "--m", "1", "--cutoff", "120", "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["worst_s_residual"] < 1e-6
        assert data["negative_control_residual"] > 1e-2

    def test_mde_report(self, tmp_path):
        out = tmp_path / "mde.json"
        code = main(["modular", "mde", "--m", "1", "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["success"] is True
        assert data["order"] == 4


class TestVerifyRuntime:
    def test_full_suite_under_a_minute(self):
        import time

        start = time.perf_counter()
        results = run_suite("all", 1, cutoff=Fraction(30))
        elapsed = time.perf_counter() - start
        assert all(c.passed for c in results)
        assert elapsed < 60.0


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE
