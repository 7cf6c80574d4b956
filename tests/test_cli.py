import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import supertriplet
from supertriplet import characters, cli, suites, zhu
from supertriplet.cli import EXIT_BROKEN_PIPE, EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from supertriplet.qseries import QSeriesError
from supertriplet.suites import CheckResult, run_suite

from oracles import char_table_rows


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

    @pytest.mark.parametrize("suite, m", [("theta", 0), ("fermion", -5), ("characters", -1), ("zhu", 0), ("all", 0)])
    def test_m_below_1_refused(self, suite, m):
        # a suite over an empty family would report every one of its checks as passed
        with pytest.raises(ValueError, match="m must be >= 1"):
            run_suite(suite, m)

    def test_all_runs_everything(self):
        results = run_suite("all", 1, cutoff=Fraction(15))
        names = {c.name for c in results}
        assert any(n.startswith("zhu-relation") for n in names)
        assert "clifford-anticommutators" in names
        assert "theta-periodicity-in-first-index" in names
        assert "character-integrality-and-positivity" in names

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
        # the dispatch hands out the cached tuple itself; run_suite copies it
        assert suites._SUITES["fermion"](3, Fraction(7)) is suites._fermion_checks()
        first = run_suite("fermion", 1)
        expected = [c.to_json() for c in first]
        second = run_suite("fermion", 1)
        assert type(first) is list and first is not second and first == second
        first.clear()
        second.append(CheckResult("extra", False, ""))
        assert [c.to_json() for c in run_suite("fermion", 1)] == expected

    def test_zhu_suite_ignores_cutoff(self):
        runs = [run_suite("zhu", 2, cutoff) for cutoff in (Fraction(1, 2), 20, 40)]
        assert all([c.to_json() for c in run] == [c.to_json() for c in runs[0]] for run in runs)
        # computed once per m: every run holds the same result objects
        assert all(run[0] is runs[0][0] for run in runs)
        assert run_suite("zhu", 1)[0] is not runs[0][0]

    def test_zhu_suite_matches_recomputation(self):
        cached = {m: run_suite("zhu", m, 30) for m in (1, 2)}
        suites._zhu_checks.cache_clear()
        for m, results in cached.items():
            fresh = run_suite("zhu", m, 30)
            assert fresh[0] is not results[0]
            assert [c.to_json() for c in fresh] == [c.to_json() for c in results]

    def test_zhu_suite_returns_fresh_list(self):
        # the dispatch hands out the cached tuple of that m itself; run_suite copies it
        assert suites._SUITES["zhu"](1, Fraction(7)) is suites._zhu_checks(1)
        assert suites._SUITES["zhu"](2, Fraction(7)) is suites._zhu_checks(2)
        first = run_suite("zhu", 1)
        expected = [c.to_json() for c in first]
        second = run_suite("zhu", 1)
        assert type(first) is list and first is not second and first == second
        first.clear()
        second.append(CheckResult("extra", False, ""))
        assert [c.to_json() for c in run_suite("zhu", 1)] == expected

    @pytest.mark.parametrize("cutoff", [Fraction(1, 12), 1, Fraction(5, 2), 7, Fraction(51, 2)])
    def test_eta_pentagonal_expansion_passes(self, cutoff):
        # 1/12 keeps only q^{1/24}; each larger cutoff ends between two exponents 1/24 + s(3s-1)/2
        check = next(c for c in run_suite("theta", 1, cutoff) if c.name == "eta-pentagonal-expansion")
        assert check.passed

    @pytest.mark.parametrize("suite", suites.SUITE_NAMES)
    def test_float_cutoff_refused(self, suite):
        with pytest.raises(QSeriesError, match="float"):
            run_suite(suite, 1, 0.5)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("cutoff", [Fraction(1, 2), 1, 2, 3])
    def test_characters_suite_at_small_cutoffs(self, m, cutoff):
        # RPi(1) leads at 25/24 for m=1 and at 169/56 for m=3, above these cutoffs
        results = run_suite("characters", m, cutoff)
        leading = next(c for c in results if c.name == "twisted-leading-terms-match-classification")
        assert leading.passed and leading.detail == ""
        assert all(c.passed for c in results), [c.name for c in results if not c.passed]

    @pytest.mark.parametrize("suite", suites.SUITE_NAMES)
    @pytest.mark.parametrize("cutoff", [0, -7, Fraction(-1, 2)])
    def test_nonpositive_cutoff_refused(self, suite, cutoff):
        with pytest.raises(ValueError, match="positive"):
            run_suite(suite, 1, cutoff)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope", 1)


class TestSuiteMemo:
    @pytest.mark.parametrize("suite", ["theta", "characters"])
    def test_computed_once_per_m_and_cutoff(self, suite):
        first = run_suite(suite, 2, Fraction(20))
        again = run_suite(suite, 2, 20)
        assert again is not first and all(a is b for a, b in zip(again, first))
        assert run_suite(suite, 2, Fraction(21))[0] is not first[0]
        assert run_suite(suite, 1, Fraction(20))[0] is not first[0]

    @pytest.mark.parametrize("suite", ["theta", "characters"])
    def test_matches_recomputation(self, suite):
        cached = run_suite(suite, 1, 15)
        getattr(suites, f"_{suite}_suite").cache_clear()
        fresh = run_suite(suite, 1, 15)
        assert fresh[0] is not cached[0]
        assert [c.to_json() for c in fresh] == [c.to_json() for c in cached]

    @pytest.mark.parametrize("suite", ["theta", "characters", "all"])
    def test_mutating_the_returned_list_leaves_the_next_call_unchanged(self, suite):
        first = run_suite(suite, 1, 15)
        expected = [c.to_json() for c in first]
        first.append(CheckResult("extra", False, ""))
        del first[0]
        run_suite(suite, 1, 15).clear()
        assert [c.to_json() for c in run_suite(suite, 1, 15)] == expected

    def test_verify_all_unchanged_after_single_suite_requests(self, tmp_path):
        out = tmp_path / "verify.json"
        argv = ["verify", "--suite", "all", "--m", "1", "--out", str(out)]
        suites._theta_suite.cache_clear()
        suites._characters_suite.cache_clear()
        assert main(argv) == EXIT_OK
        cold = out.read_bytes()
        for suite in ("theta", "characters", "zhu", "fermion"):
            assert main(["verify", "--suite", suite, "--m", "1", "--out", str(out)]) == EXIT_OK
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == cold
        suites._theta_suite.cache_clear()
        suites._characters_suite.cache_clear()
        for suite in ("theta", "characters", "zhu", "fermion"):
            assert main(["verify", "--suite", suite, "--m", "1", "--out", str(out)]) == EXIT_OK
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == cold

    def test_m_free_theta_checks_run_once_per_cutoff(self):
        suites._theta_suite.cache_clear()
        suites._cutoff_checks.cache_clear()
        runs = [run_suite("theta", m, Fraction(17)) for m in (1, 2, 3)]
        info = suites._cutoff_checks.cache_info()
        assert (info.hits, info.misses) == (2, 1)
        tails = [run[-3:] for run in runs]
        assert [c.name for c in tails[0]] == [
            "eta-pentagonal-expansion", "f2-is-eta-doubling-quotient", "eisenstein-divisor-sum-coefficients"
        ]
        assert all(a is b for tail in tails for a, b in zip(tail, tails[0]))

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_verify_grid_bytes_from_cleared_caches(self, cleared_caches, tmp_path, order):
        # every verify reply over suite x m x cutoff, joined in that order, is pinned; the
        # requests meet cold caches of every module, in either order
        out = tmp_path / "verify.json"
        grid = [(s, m, c) for s in ("theta", "characters", "zhu", "fermion") for m in (1, 2, 3) for c in (20, 30, 40)]
        replies = {}
        for suite, m, cutoff in grid if order == "ascending" else grid[::-1]:
            argv = ["verify", "--suite", suite, "--m", str(m), "--cutoff", str(cutoff), "--out", str(out)]
            assert main(argv) == EXIT_OK
            replies[suite, m, cutoff] = out.read_bytes()
        digest = hashlib.sha256(b"".join(replies[key] for key in grid)).hexdigest()
        assert digest == "027a4ab1339cdd38779869651f25d890279b39c81a1916af0e36f43c2ec38136"


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

    @pytest.mark.parametrize("selector", [["--all"], ["--family", "RLambda", "--index", "1"]])
    @pytest.mark.parametrize("cutoff", ["0", "-3", "-1/2"])
    def test_nonpositive_cutoff_is_usage_error(self, capsys, tmp_path, selector, cutoff):
        out = tmp_path / "char.json"
        code = main(["char", "--m", "1", *selector, f"--cutoff={cutoff}", "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "char: cutoff must be positive\n"
        assert captured.out == "" and not out.exists()

    def test_huge_cutoff_is_usage_error(self, capsys):
        # the dense run of 10^7 entries is refused before it is allocated
        code = main(["char", "--m", "1", "--all", "--cutoff", "10000000"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("char: ") and "MAX_RUN" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [["char", "--all"], ["verify", "--suite", "theta"], ["verify", "--suite", "characters"]],
        ids=["char", "verify-theta", "verify-characters"],
    )
    def test_astronomic_cutoff_is_refused_at_once(self, capsys, argv):
        # the theta window of about 10^15 entries is refused before its squares are listed
        start = time.perf_counter()
        assert main([*argv, "--m", "1", "--cutoff", "1e30"]) == EXIT_USAGE
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{argv[0]}: ") and "MAX_RUN" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

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


def oracle_reply(m, cutoff, labels, fmt) -> str:
    """The reply as the nested-dict renderer wrote it: ``json.dumps`` of the oracle rows, or ``csv.writer`` lines."""
    rows = char_table_rows(m, Fraction(cutoff), labels)
    if fmt == "json":
        return json.dumps({"schema": "1", "rows": rows}, sort_keys=True, indent=2)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["family", "index", "flavor", "m", "exponent", "coefficient"])
    for r in rows:
        for t in r["series"]["terms"]:
            writer.writerow([r["family"], r["index"], r["flavor"], r["m"], "/".join(t["exp"]), "/".join(t["coef"])])
    return buf.getvalue()


class TestRenderCache:
    @staticmethod
    def _reply(tmp_path, argv) -> bytes:
        out = tmp_path / "reply"
        assert main(list(argv) + ["--out", str(out)]) == EXIT_OK
        return out.read_bytes()

    @staticmethod
    def _single(label, flavor):
        return ["--family", label.family, "--index", str(label.index), "--flavor", flavor]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("cutoff", [20, 30, 40])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_repeats_are_byte_identical(self, tmp_path, m, cutoff, fmt):
        argv = ["char", "--all", "--m", str(m), "--cutoff", str(cutoff), "--format", fmt]
        first = self._reply(tmp_path, argv)
        assert all(self._reply(tmp_path, argv) == first for _ in range(3))
        assert first == oracle_reply(m, cutoff, None, fmt).encode("utf-8")

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("cutoff", ["1/100", "1/3", "7/2", "20", "40"])
    def test_rows_match_the_oracle_in_either_order(self, tmp_path, m, cutoff):
        # every label and flavor alone and in the --all table, rows rendered first by the one and then by the other
        labels = characters.all_labels(m)
        for all_first in (True, False):
            cli._char_row.cache_clear()
            for fmt in ("json", "csv") if all_first else ("csv", "json"):
                common = ["char", "--m", str(m), "--cutoff", cutoff, "--format", fmt]
                table = lambda: self._reply(tmp_path, common + ["--all"])  # noqa: E731
                if all_first:
                    assert table() == oracle_reply(m, cutoff, None, fmt).encode("utf-8")
                for label, flavor in labels:
                    reply = self._reply(tmp_path, common + self._single(label, flavor))
                    assert reply == oracle_reply(m, cutoff, [(label, flavor)], fmt).encode("utf-8")
                if not all_first:
                    assert table() == oracle_reply(m, cutoff, None, fmt).encode("utf-8")

    def test_payload_is_not_cached(self):
        assert not hasattr(cli._char_payload, "cache_info")

    def test_repeat_does_not_rebuild_rows(self, tmp_path, monkeypatch):
        calls = []
        build = cli.ch.character_series
        monkeypatch.setattr(cli.ch, "character_series", lambda *a: calls.append(a) or build(*a))
        cli._char_row.cache_clear()
        argv = ["char", "--all", "--m", "2", "--cutoff", "9"]
        first = self._reply(tmp_path, argv)
        assert len(calls) == 15
        assert self._reply(tmp_path, argv) == first
        assert self._reply(tmp_path, argv + ["--format", "json"]) == first
        assert len(calls) == 15
        self._reply(tmp_path, argv + ["--format", "csv"])
        assert len(calls) == 30

    def test_single_row_after_the_table_renders_nothing_new(self, tmp_path):
        cli._char_row.cache_clear()
        common = ["char", "--m", "2", "--cutoff", "8"]
        self._reply(tmp_path, common + ["--all"])
        before = cli._char_row.cache_info()
        reply = self._reply(tmp_path, common + ["--family", "SPi", "--index", "2", "--flavor", "supercharacter"])
        after = cli._char_row.cache_info()
        assert (after.misses, after.hits, after.currsize) == (before.misses, before.hits + 1, 15)
        assert [(r["family"], r["index"], r["flavor"]) for r in json.loads(reply)["rows"]] == [
            ("SPi", 2, "supercharacter")
        ]

    def test_equal_cutoffs_share_one_entry(self, tmp_path):
        # one row entry per label and flavor for cutoffs 30, 60/2 and the default
        cli._char_row.cache_clear()
        argv = ["char", "--all", "--m", "1", "--format", "csv"]
        first = self._reply(tmp_path, argv + ["--cutoff", "30"])
        assert self._reply(tmp_path, argv + ["--cutoff", "60/2"]) == first
        assert self._reply(tmp_path, argv) == first  # the default cutoff is 30
        info = cli._char_row.cache_info()
        assert (info.currsize, info.hits, info.misses) == (9, 18, 9)

    @pytest.mark.parametrize("all_first", [True, False])
    def test_table_and_single_row_never_collide(self, tmp_path, all_first):
        cli._char_row.cache_clear()
        common = ["char", "--m", "2", "--cutoff", "8"]
        single = common + ["--family", "SPi", "--index", "2", "--flavor", "supercharacter"]
        order = [common + ["--all"], single] if all_first else [single, common + ["--all"]]
        for _ in range(2):
            replies = {argv[-1]: json.loads(self._reply(tmp_path, argv)) for argv in order}
            assert len(replies["--all"]["rows"]) == 3 * (2 * 2 + 1)
            assert [(r["family"], r["index"], r["flavor"]) for r in replies["supercharacter"]["rows"]] == [
                ("SPi", 2, "supercharacter")
            ]
        assert cli._char_row.cache_info().currsize == 15


class TestVerifyCommand:
    def test_verify_zhu_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--m", "1", "--suite", "zhu", "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert all(c["passed"] for c in data["checks"])

    def test_failing_check_exits_1(self, tmp_path, monkeypatch):
        # a wrong F_m breaks the screening identity that the zhu suite checks
        out = tmp_path / "verify.json"
        argv = ["verify", "--m", "1", "--suite", "zhu", "--out", str(out)]
        orig = zhu.Fm
        monkeypatch.setattr(zhu, "Fm", lambda t, m: orig(t, m) + 1)
        suites._zhu_checks.cache_clear()
        try:
            assert main(argv) == EXIT_CHECK_FAILED
            data = json.loads(out.read_text())
            assert data["passed"] is False
            assert [c for c in data["checks"] if not c["passed"]] == [
                {"name": "screening-square-binomial-identity", "passed": False, "detail": "9 sample points"}
            ]
        finally:
            monkeypatch.undo()
            suites._zhu_checks.cache_clear()
        assert main(argv) == EXIT_OK
        assert json.loads(out.read_text())["passed"] is True

    def test_tolerance_flag_refused(self, capsys):
        # no verify check reads a tolerance; only modular registers the flag
        code = main(["verify", "--m", "1", "--suite", "zhu", "--tolerance", "1e-3"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("suite", suites.SUITE_NAMES)
    @pytest.mark.parametrize("cutoff", ["-7", "0"])
    def test_nonpositive_cutoff_is_usage_error(self, capsys, tmp_path, suite, cutoff):
        out = tmp_path / "verify.json"
        code = main(["verify", "--m", "1", "--suite", suite, "--cutoff", cutoff, "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("verify: ") and "positive" in captured.err
        assert captured.out == "" and not out.exists()


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

    @pytest.mark.parametrize(
        "check, flag, value",
        [("mde", "--cutoff", "400"), ("mde", "--tolerance", "1e-3"), ("rank", "--tolerance", "1e-3")],
    )
    def test_unused_flag_refused(self, capsys, tmp_path, check, flag, value):
        # find_mde reads no series cutoff, and neither mde nor rank a residual bound
        out = tmp_path / "report.json"
        code = main(["modular", check, "--m", "1", flag, value, "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"modular: {check} takes no {flag}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("check", ["closure", "s-transform"])
    @pytest.mark.parametrize("tolerance", ["0", "-1e-8", "nan", "inf"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tmp_path, check, tolerance):
        # nan would fail every comparison and inf pass every residual
        out = tmp_path / "report.json"
        code = main(["modular", check, "--m", "1", "--cutoff", "100", f"--tolerance={tolerance}", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "modular: tolerance must be positive and finite\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rank", "--cutoff", "100000"], "exceeds MAX_RUN"),
            (["closure", "--cutoff", "100000"], "exceeds MAX_RUN"),
            (["s-transform", "--cutoff", "100", "--tolerance", "1e-300"], "series cutoff too small"),
        ],
    )
    def test_library_errors_are_usage_errors(self, capsys, tmp_path, argv, message):
        out = tmp_path / "report.json"
        code = main(["modular", argv[0], "--m", "1", *argv[1:], "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("modular: ") and message in err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "argv", [["char", "--all"], ["verify"], ["modular", "rank"]], ids=["char", "verify", "modular"]
    )
    def test_zero_denominator_cutoff(self, capsys, argv):
        # Fraction("1/0") raises ZeroDivisionError, which argparse would not catch
        assert main([*argv, "--m", "1", "--cutoff", "1/0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "argument --cutoff: invalid rational value: '1/0'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["abc", "1/2/3", "inf"])
    def test_malformed_cutoff(self, capsys, value):
        # every value Fraction refuses reads the same way, whatever the exception
        assert main(["verify", "--m", "1", "--cutoff", value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"argument --cutoff: invalid rational value: {value!r}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def _run_cli(*argv, unbuffered: bool = False) -> subprocess.Popen:
    """``python -m supertriplet.cli ARGV`` with piped stdout and stderr.

    PYTHONUNBUFFERED is set only when ``unbuffered`` is true, so the default
    case sees the console default, a buffered stdout; set, CPython's text
    stdout sits on the raw file.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(supertriplet.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "supertriplet.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )


class TestOutputFailures:
    @pytest.mark.parametrize("argv", [["classify", "--m", "1"], ["char", "--m", "1", "--all", "--cutoff", "4"]])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv, where):
        path = str(tmp_path / "missing" / "x.json") if where == "missing-dir" else str(tmp_path)
        reason = "No such file or directory" if where == "missing-dir" else "Is a directory"
        assert main(argv + ["--out", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"supertriplet: cannot write {path}: {reason}\n"
        assert captured.out == ""

    def test_unwritable_out_from_the_console(self, tmp_path):
        path = str(tmp_path / "missing" / "x.json")
        proc = _run_cli("classify", "--m", "1", "--out", path)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_USAGE == 2
        assert err.decode() == f"supertriplet: cannot write {path}: No such file or directory\n"
        assert out == b""

    def test_closed_pipe_exits_quietly(self):
        # the m=3 table at cutoff 40 is about 251 kB, larger than a pipe buffer
        self._assert_closed_pipe_exits_quietly(unbuffered=False)

    def test_closed_pipe_exits_quietly_unbuffered(self):
        # the text layer alone would drop the short write that the closing
        # reader leaves on the raw file, and the command would exit 0
        self._assert_closed_pipe_exits_quietly(unbuffered=True)

    @staticmethod
    def _assert_closed_pipe_exits_quietly(unbuffered):
        proc = _run_cli("char", "--all", "--m", "3", "--cutoff", "40", unbuffered=unbuffered)
        assert proc.stdout.read(10) == b'{\n  "rows"'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE == 141
        assert err == b""

    def test_full_read_of_stdout_still_exits_ok(self):
        proc = _run_cli("classify", "--m", "1")
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_OK and err == b""
        assert json.loads(out)["m"] == 1

    def test_full_read_unbuffered_is_the_buffered_reply(self):
        argv = ("char", "--all", "--m", "3", "--cutoff", "40")
        buffered = _run_cli(*argv).communicate(timeout=120)
        unbuffered = _run_cli(*argv, unbuffered=True).communicate(timeout=120)
        assert unbuffered == buffered and buffered[1] == b"" and len(buffered[0]) > 200_000


class TestParserReuse:
    ARGVS = [
        ["char", "--m", "2", "--all", "--cutoff", "5"],
        ["char", "--m", "1", "--family", "SPi", "--index", "1", "--flavor", "supercharacter"],
        ["verify", "--m", "1", "--suite", "zhu", "--cutoff", "7/2"],
        ["verify", "--m", "3"],
        ["classify", "--m", "2", "--format", "csv"],
        ["modular", "closure", "--m", "2", "--tolerance", "1e-3", "--cutoff", "120"],
        ["modular", "mde", "--m", "1"],
    ]

    def test_built_once_and_parses_like_a_fresh_parser(self):
        shared = cli.build_parser()
        assert cli.build_parser() is shared
        for argv in self.ARGVS + self.ARGVS[::-1]:
            fresh = cli.build_parser.__wrapped__()
            assert vars(shared.parse_args(argv)) == vars(fresh.parse_args(argv))

    def test_all_flag_does_not_leak(self, tmp_path):
        out = tmp_path / "char.json"
        common = ["char", "--m", "1", "--cutoff", "4", "--out", str(out)]
        assert main(common + ["--all"]) == EXIT_OK
        assert len(json.loads(out.read_text())["rows"]) == 9
        assert main(common + ["--family", "RPi", "--index", "2"]) == EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        assert [(r["family"], r["index"]) for r in rows] == [("RPi", 2)]


class TestJsonReplies:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--m", "1", "--suite", "theta"],
            ["verify", "--m", "1", "--suite", "characters"],
            ["verify", "--m", "1", "--suite", "zhu"],
            ["verify", "--m", "1", "--suite", "fermion"],
            ["verify", "--m", "2", "--suite", "all", "--cutoff", "7/2"],
            ["classify", "--m", "3"],
            ["modular", "rank", "--m", "1", "--cutoff", "120"],
            ["modular", "closure", "--m", "1", "--cutoff", "120"],
            ["modular", "s-transform", "--m", "1", "--cutoff", "150"],
            ["modular", "mde", "--m", "1"],
            ["char", "--m", "2", "--all", "--cutoff", "11/2"],
            ["char", "--m", "2", "--family", "SLambda", "--index", "1", "--flavor", "supercharacter"],
        ],
        ids=lambda argv: "-".join(a for a in argv if not a.startswith("--")),
    )
    def test_reply_is_canonical_json(self, tmp_path, argv):
        # the property CI checks on the reports it writes: sorted keys, two-space indent
        out = tmp_path / "reply.json"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2)

    def test_unserialisable_value_raises(self):
        with pytest.raises(TypeError):
            cli._json_dump({"x": [Fraction(1, 2)]})
