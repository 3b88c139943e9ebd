"""Command-line harness: formats, exit codes, determinism, round-trips."""

import inspect
import json
from fractions import Fraction as F

import pytest

import mockeis.functions
from mockeis import verify
from mockeis.cli import main
from mockeis.partitions import count_table
from mockeis.qseries import QSeries
from mockeis.wjets import WJet


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFCommand:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "f", "--k", "3", "--j", "2", "--order", "8", "--format", "text"
        )
        assert code == 0
        assert out == "-1/24 + q^3 + 3q^4 + 5q^5 + 7q^6 + 9q^7 + 11q^8\n"

    def test_odd_j_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "f", "--k", "3", "--j", "3", "--order", "8")
        assert code == 0
        assert out == "0\n"

    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "f", "--k", "4", "--j", "4", "--order", "9", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["object"] == "qseries"
        assert (payload["k"], payload["j"], payload["order"]) == (4, 4, 9)
        coeffs = [F(c) for c in payload["coefficients"]]
        assert QSeries(coeffs) == QSeries(
            [F(1, 240), 0, 0, 0, 1, 15, 65, 175, 363, 635]
        )

    def test_bfile_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "f", "--k", "5", "--j", "6", "--order", "10", "--format", "bfile"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0 0"
        assert lines[-1] == "10 31001"

    def test_bfile_odd_j_is_all_zeros(self, capsys):
        code, out, _ = run_cli(
            capsys, "f", "--k", "3", "--j", "5", "--order", "4", "--format", "bfile"
        )
        assert code == 0
        assert out.splitlines() == [f"{n} 0" for n in range(5)]

    def test_bfile_rejects_non_integral(self, capsys):
        # j = 1: the shifted constant is B_1/2 = -1/4
        code, _, err = run_cli(
            capsys, "f", "--k", "3", "--j", "1", "--order", "5", "--format", "bfile"
        )
        assert code == 2
        assert "integral" in err

    def test_k2_needs_flag(self, capsys):
        code, _, err = run_cli(capsys, "f", "--k", "2", "--j", "2", "--order", "6")
        assert code == 2
        assert "extrapolation" in err

    def test_k2_with_flag_warns(self, capsys):
        code, out, err = run_cli(
            capsys, "f", "--k", "2", "--j", "2", "--order", "6", "--allow-k2"
        )
        assert code == 0
        assert out.startswith("-1/24 + q^2")
        assert "extrapolated" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "series.txt"
        code, out, _ = run_cli(
            capsys, "f", "--k", "3", "--j", "2", "--order", "4", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "-1/24 + q^3 + 3q^4\n"

    def test_determinism(self, capsys):
        args = ("f", "--k", "3", "--j", "6", "--order", "12", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["f", "--j", "2"])  # --k missing
        assert exc.value.code == 2


class TestTableCommand:
    def test_nk_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "Nk", "--k", "3", "--maxm", "4", "--maxn", "10",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,n,count"
        assert "0,2,1" in lines

    def test_nk_zero_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "Nk", "--k", "3", "--maxm", "2", "--maxn", "0"
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert all(row.endswith(",0,0") for row in rows)

    def test_moments_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "moments", "--k", "3", "--j", "2", "--order", "4"
        )
        assert code == 0
        assert out.splitlines() == ["n,coefficient", "0,0", "1,0", "2,0", "3,2", "4,8"]

    def test_traces_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "traces", "--k", "3", "--maxj", "4", "--order", "6",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["object"] == "trace_table"
        assert payload["traces"]["0"][0] == "1"
        assert payload["traces"]["1"] == ["0"] * 7
        # Tr_2 = f_{3,2}
        assert payload["traces"]["2"] == ["-1/24", "0", "0", "1", "3", "5", "7"]

    def test_invalid_window_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "Nk", "--k", "3", "--maxm", "2", "--maxn", "50"
        )
        assert code == 2
        assert "ceiling" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("k, max_m, max_n", [(3, 4, 9), (5, 0, 0), (4, 2, 1)])
    def test_nk_streams_the_bytes_of_the_whole_text(self, capsys, tmp_path, fmt, k, max_m, max_n):
        # The text the table command built in one piece before it streamed.
        table = count_table(k, max_m, max_n)
        cells = [
            [m, n, table.count(m, n)]
            for m in range(-max_m, max_m + 1)
            for n in range(max_n + 1)
        ]
        if fmt == "csv":
            whole = "\n".join(["m,n,count"] + [f"{m},{n},{c}" for m, n, c in cells]) + "\n"
        else:
            payload = {"object": "count_table", "k": k, "max_abs_m": max_m,
                       "max_n": max_n, "entries": cells}
            whole = json.dumps(payload) + "\n"
        argv = ("table", "Nk", "--k", str(k), "--maxm", str(max_m), "--maxn", str(max_n),
                "--format", fmt)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == whole
        target = tmp_path / f"nk.{fmt}"
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_text(encoding="ascii") == whole


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "theta-ode", "--order", "15"
        )
        assert code == 0
        assert "2/2 checks passed" in out
        assert out.count("PASS") == 2

    def test_suite_with_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "counts", "--k", "3", "--maxn", "8",
            "--maxm", "3",
        )
        assert code == 0
        assert "FAIL" not in out

    def test_integrality_suite_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "integrality", "--k", "4", "--maxj", "8",
            "--order", "30",
        )
        assert code == 0
        assert "1/1 checks passed" in out

    def test_corrupted_oracle_fails(self, capsys, monkeypatch):
        true_series = mockeis.functions.krank_count_series.__wrapped__

        def corrupted(k, m, order):
            return true_series(k, m, order) + QSeries.monomial(1, min(2, order), order)

        monkeypatch.setattr(mockeis.functions, "krank_count_series", corrupted)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "counts", "--k", "3", "--maxn", "6",
            "--maxm", "2",
        )
        assert code == 1
        assert "FAIL" in out

    def test_all_prints_finished_suites_before_an_error(self, capsys):
        # counts takes k = 2; moments rejects it after counts has run.
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--k", "2")
        assert code == 2
        assert out == "PASS counts: N_2 enumeration = count series (n<=25, |m|<=6)\n"
        assert "rank moments require k >= 3" in err

    def test_all_prints_every_result_then_the_total(self, capsys, monkeypatch):
        def suite(name, passed):
            return lambda **kwargs: [verify.CheckResult(f"{name} {i}", passed) for i in range(2)]

        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, suite(name, name != "crank"))
        code, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert code == 1
        lines = [
            f"{'PASS' if name != 'crank' else 'FAIL'} {name} {i}"
            for name in verify.SUITES
            for i in range(2)
        ]
        n = len(lines)
        assert out == "\n".join(lines + [f"{n - 2}/{n} checks passed"]) + "\n"
        assert verify.run_suite("all") == [
            verify.CheckResult(f"{name} {i}", name != "crank")
            for name in verify.SUITES
            for i in range(2)
        ]

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "everything"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("--suite", "theta-ode", "--k", "9"), ("--k",)),
            (("--suite", "pattern", "--order", "3", "--maxn", "5"), ("--maxn", "--order")),
        ],
    )
    def test_flag_the_suite_does_not_take_is_usage_error(self, capsys, argv, named):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert all(flag in err for flag in named)

    def test_all_gives_each_suite_only_its_flags(self, monkeypatch):
        seen = {}

        def recorder(name):
            def suite(**kwargs):
                seen[name] = kwargs
                return []

            return suite

        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, recorder(name))
        verify.run_suite("all", {"--k": (4,), "--maxj": None, "--order": 10})
        k, order, q_order = {"ks": (4,)}, {"order": 10}, {"q_order": 10}
        assert seen == {
            "counts": k,
            "moments": {**k, **order},
            "traces": {**k, **order},
            "crank": order,
            "integrality": {**k, **order},
            "pattern": k,
            "pde": q_order,
            "theta-ode": q_order,
        }

    def test_flag_table_names_real_suite_parameters(self):
        assert set(verify.SUITE_FLAGS) == set(verify.SUITES)
        for name, table in verify.SUITE_FLAGS.items():
            params = inspect.signature(verify.SUITES[name]).parameters
            assert set(table.values()) <= set(params)

    def test_residual_details_name_the_first_nonzero_coefficient(self):
        a, b = QSeries([1, 2, 3, 4]), QSeries([1, 2, 5, 6, 7])
        zero = QSeries.zero(3)
        assert verify._series_check("s", a, a.truncate(2)) == verify.CheckResult("s", True)
        assert verify._series_check("s", a, b).detail == "q^2: 3 != 5"
        assert verify._zero_check("z", zero).passed
        assert verify._zero_check("z", a - b).detail == "q^2: -2 != 0"
        assert verify._zero_check("j", [zero, zero]).passed
        assert verify._zero_check("j", [zero, a - b]).detail == "w^1 q^2: residual -2"
        jet = WJet(-2, [zero, zero, QSeries([0, F(1, 3), 0, 0])])
        assert verify._zero_check("w", jet).detail == "w^0 q^1: residual 1/3"
        assert verify._zero_check("w", WJet(-2, [zero, zero])).passed
