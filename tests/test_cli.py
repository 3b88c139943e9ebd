"""Command-line harness: formats, exit codes, determinism, round-trips."""

import gc
import hashlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import ModuleType

import pytest

import mockeis
import mockeis.divisor
import mockeis.functions
import mockeis.partitions
import mockeis.tables
from mockeis import cli, flags, mock, verify
from mockeis.cli import main
from mockeis.errors import ConfigError
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

    @pytest.mark.parametrize(
        "argv",
        [
            ("f", "--j", "2"),  # --k missing
            ("f", "--k", "3", "--j", "2", "--format", "xml"),
            ("table", "bogus", "--k", "3"),
        ],
    )
    def test_usage_error_exit_code(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("option, value, message", [
        ("--k", "1", "f needs --k >= 2"),
        ("--j", "0", "f needs --j >= 1"),
        ("--order", "0", "f needs --order >= 1"),
    ])
    def test_a_value_out_of_range_builds_no_family(self, capsys, monkeypatch, option, value,
                                                   message):
        monkeypatch.setattr(mock, "mock_eisenstein_family", lambda *a, **kw: pytest.fail("ran"))
        argv = ["f", "--k", "3", "--j", "2", "--order", "4", option, value]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_recursion_b_above_the_ceiling_fails_before_any_work(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the family was built before the ceiling check")

        monkeypatch.setattr(mock, "_g_sums", unreachable)
        monkeypatch.setattr(mock, "partition_trace", unreachable)
        code, out, err = run_cli(
            capsys, "f", "--k", "3", "--route", "recursionB", "--j", "44", "--order", "2"
        )
        assert (code, out) == (2, "")
        assert "--j 44" in err and "ceiling 40" in err
        # At the ceiling the route starts work: its last trace is of the partitions of 40.
        with pytest.raises(AssertionError):
            mock.mock_eisenstein_family(3, 42, 2, "recursionB")


# The flags each table kind takes, and a value each table flag accepts (None: a
# switch; --out is set to a path by each test).
TABLE_FLAGS = {
    "Nk": ("--k", "--maxm", "--maxn", "--format", "--out"),
    "moments": ("--k", "--j", "--order", "--method", "--format", "--out"),
    "traces": ("--k", "--maxj", "--order", "--route", "--format", "--out", "--allow-k2"),
}
TABLE_VALUES = {"--k": "3", "--maxm": "2", "--maxn": "3", "--j": "2", "--maxj": "2",
                "--order": "5", "--method": "combinatorial", "--route": "logRoute",
                "--format": "json", "--allow-k2": None}
TABLE_REQUIRED = {
    "Nk": ("--k", "3", "--maxm", "2", "--maxn", "3"),
    "moments": ("--k", "3", "--j", "2", "--order", "5"),
    "traces": ("--k", "3", "--maxj", "2", "--order", "5"),
}
FOREIGN_FLAGS = [
    (kind, flag) for kind, flags in TABLE_FLAGS.items() for flag in TABLE_VALUES
    if flag not in flags
]


# Valid required flags of each command scope, and each bounded flag of every
# scope with a value just below its least value and the first one above its
# ceiling that it would accept but for the ceiling.
REQUIRED = {"f": ("--k", "3", "--j", "2"),
            **{f"table {kind}": argv for kind, argv in TABLE_REQUIRED.items()}}
REFUSED = [
    (scope, option, value)
    for scope, table in flags.FLAGS.items()
    for option, flag in table.items()
    if flag.least is not None
    for value in [flag.least - 1, *([] if flag.ceiling is None else [flag.ceiling + 1 + flag.even])]
]


class TestFlagTable:
    @pytest.mark.parametrize("scope, option, value", REFUSED)
    def test_a_value_out_of_range_exits_2_before_any_work(self, capsys, monkeypatch, scope,
                                                           option, value):
        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, lambda **kwargs: pytest.fail("suite ran"))
        for module, handler in [(cli, "cmd_f"), *((mockeis.tables, f"cmd_table_{kind}")
                                                  for kind in ("nk", "moments", "traces"))]:
            monkeypatch.setattr(module, handler, lambda args: pytest.fail("handler ran"))
        if scope.startswith("suite "):
            argv = ["verify", "--suite", scope.split("'")[1]]
        else:
            argv = [*scope.split(), *REQUIRED[scope]]
        flag = flags.FLAGS[scope][option]
        if value < flag.least:
            message = f"{scope} needs {'an even ' if flag.even else ''}{option} >= {flag.least}"
        else:
            message = f"{scope}: {option} {value} exceeds the enumeration ceiling {flag.ceiling}"
        code, out, err = run_cli(capsys, *argv, option, str(value))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_the_ceiling_is_the_one_partitions_enforces(self):
        assert flags.PARTITION_CEILING is mockeis.partitions.PARTITION_CEILING


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

    def test_traces_are_the_partition_traces(self, capsys):
        # The table reads the traces off the exponential formula; enumeration checks it.
        code, out, _ = run_cli(
            capsys, "table", "traces", "--k", "4", "--maxj", "12", "--order", "30",
            "--format", "json",
        )
        assert code == 0
        family = mock.mock_eisenstein_family(4, 12, 30)
        assert json.loads(out)["traces"] == {
            str(j): list(map(str, mock.partition_trace(j, family.member, 30).coeffs))
            for j in range(13)
        }

    def test_invalid_window_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "Nk", "--k", "3", "--maxm", "2", "--maxn", "50"
        )
        assert code == 2
        assert "ceiling" in err

    @pytest.mark.parametrize("max_m, max_n, message", [
        ("-1", "3", "table Nk needs --maxm >= 0"),
        ("2", "-1", "table Nk needs --maxn >= 0"),
        ("2", "41", "table Nk: --maxn 41 exceeds the enumeration ceiling 40"),
    ])
    def test_nk_names_the_flag_out_of_range(self, capsys, monkeypatch, max_m, max_n, message):
        monkeypatch.setattr(mockeis.tables, "count_table", lambda *a: pytest.fail("ran"))
        code, out, err = run_cli(
            capsys, "table", "Nk", "--k", "3", "--maxm", max_m, "--maxn", max_n
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("f", "--j", "2", "--order", "6", "--format", "json"),
        ("table", "traces", "--maxj", "2", "--order", "5"),
    ], ids=["f", "traces"])
    def test_k2_output_is_labeled_on_stderr(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--k", "2", "--allow-k2")
        assert (code, err) == (0, "note: k = 2 output is extrapolated beyond the verified "
                                  "range k >= 3\n")
        if argv[0] == "f":
            assert json.loads(out)["extrapolated"] is True
        code, _, err = run_cli(capsys, *argv, "--k", "3")
        assert (code, err) == (0, "")

    def test_traces_above_the_ceiling_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "traces", "--k", "3", "--maxj", "41", "--order", "1"
        )
        assert (code, out) == (2, "")
        assert "ceiling 40" in err

    @pytest.mark.parametrize("kind", TABLE_FLAGS)
    def test_each_kind_takes_every_one_of_its_flags(self, capsys, tmp_path, kind):
        target = tmp_path / "table.json"
        values = {**TABLE_VALUES, "--out": str(target)}
        argv = [token for flag in TABLE_FLAGS[kind] for token in (flag, values[flag]) if token]
        assert run_cli(capsys, "table", kind, *argv) == (0, "", "")
        assert json.loads(target.read_text())["k"] == 3

    @pytest.mark.parametrize("kind, flag", FOREIGN_FLAGS)
    def test_a_flag_of_another_kind_is_usage_error(self, capsys, kind, flag):
        # e.g. table moments --k 3 --j 2 --order 5 --maxn 3
        argv = ["table", kind, *TABLE_REQUIRED[kind], *filter(None, [flag, TABLE_VALUES[flag]])]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert f"unrecognized arguments: {flag}" in captured.err

    @pytest.mark.parametrize("argv, missing", [
        (("table", "Nk", "--k", "3", "--maxm", "2"), "--maxn"),
        (("table", "Nk", "--maxm", "2", "--maxn", "3"), "--k"),
        (("table", "moments", "--k", "3"), "--j"),
        (("table", "traces", "--k", "3"), "--maxj"),
        (("table",), "kind"),
    ])
    def test_a_missing_required_flag_is_usage_error(self, capsys, argv, missing):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert f"required: {missing}" in captured.err

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_moments_need_k_of_at_least_3(self, capsys, k):
        code, out, err = run_cli(capsys, "table", "moments", "--k", k, "--j", "2")
        assert (code, out) == (2, "")
        assert err == "error: table moments needs --k >= 3\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    # k = 2 too: N_2 is the ordinary rank, enumerated, so it needs no flag and gets no note.
    @pytest.mark.parametrize("k, max_m, max_n", [(3, 4, 9), (5, 0, 0), (4, 2, 1), (2, 2, 5)])
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
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == whole
        target = tmp_path / f"nk.{fmt}"
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_text(encoding="ascii") == whole


# One small command of each kind that writes an --out file.
OUT_COMMANDS = {
    "f": ("f", "--k", "3", "--j", "2", "--order", "2"),
    "Nk": ("table", "Nk", *TABLE_REQUIRED["Nk"]),
    "moments": ("table", "moments", *TABLE_REQUIRED["moments"]),
    "traces": ("table", "traces", *TABLE_REQUIRED["traces"]),
}


class TestOutFile:
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("name", OUT_COMMANDS)
    def test_an_unwritable_out_file_is_usage_error(self, capsys, tmp_path, name, where):
        target = tmp_path / "missing" / "x" if where == "missing-directory" else tmp_path
        argv = [*OUT_COMMANDS[name], "--out", str(target)]
        parser_only = cyclic_garbage(lambda: cli.build_parser(argv).parse_args(argv))
        results = []
        found = cyclic_garbage(lambda: results.append(run_cli(capsys, *argv)))
        code, out, err = results[0]
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write --out {target}: ")
        assert err.count("\n") == 1
        assert found <= parser_only
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("name", OUT_COMMANDS)
    def test_an_empty_out_is_usage_error(self, capsys, name):
        assert run_cli(capsys, *OUT_COMMANDS[name], "--out", "") == (
            2, "", "error: --out needs a file name\n"
        )

    @pytest.mark.parametrize("name", OUT_COMMANDS)
    def test_an_unwritable_out_file_exits_2_without_a_traceback(self, tmp_path, name):
        target = tmp_path / "missing" / "x"
        code, out, err = run_mockeis(*OUT_COMMANDS[name], "--out", str(target))
        assert (code, out) == (2, b"")
        assert err.startswith(b"error: cannot write --out ")
        assert err.count(b"\n") == 1

    @pytest.mark.parametrize("argv", [
        ("f", "--k", "2", "--j", "2", "--order", "4"),
        ("table", "traces", "--k", "3", "--maxj", "41"),
    ], ids=["k2", "ceiling"])
    def test_a_failing_command_leaves_an_existing_out_file_untouched(self, capsys, tmp_path,
                                                                      argv):
        target = tmp_path / "kept.txt"
        target.write_text("kept\n")
        before = target.stat().st_mtime_ns
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert target.read_text() == "kept\n"
        assert target.stat().st_mtime_ns == before
        assert run_mockeis(*argv, "--out", str(target))[0] == 2
        assert target.read_text() == "kept\n"


# (command, its required flags, a flag of another command or kind, an invalid choice)
PARSER_SHAPES = [
    ("f", "--k 3 --j 2", "--maxm 2", "--route bogus"),
    ("table Nk", "--k 3 --maxm 2 --maxn 3", "--j 2", "--format text"),
    ("table moments", "--k 3 --j 2", "--maxn 3", "--method bogus"),
    ("table traces", "--k 3 --maxj 2", "--method direct", "--route bogus"),
    ("verify", "--suite counts", "--route recursionA", "--suite bogus"),
    ("", "", "--k 3", "bogus"),
    ("table", "", "--k 3", "bogus"),
]


def parse_outcome(capsys, parser, argv):
    """(exit code, stdout, stderr) of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return (exc.value.code, *capsys.readouterr())


def flags_by_parser(parser, path=()):
    """The option strings of every parser in the tree, by its path of names."""
    found = {path: {flag for action in parser._actions for flag in action.option_strings}}
    for action in parser._actions:
        if isinstance(action.choices, dict):  # the subparsers
            for name, child in action.choices.items():
                found.update(flags_by_parser(child, (*path, name)))
    return found


# The sha256 of each parser's --help at 80 columns (Python 3.11's argparse).
HELP_SHA256 = {
    "": "4d73186d179f48fe24dbe5254650edc216586a2fa8d4141e96f8f196abf09134",
    "f": "d07320aa5cc8fc5861d1eb51664ef2357f20ef68dba38e9c7d0ab38f0cbbab2e",
    "table": "ac7071dc01e29d7f87787ddd1d43cc4af992ff0e6000695be2c201dcc4969a31",
    "table Nk": "e598201261ddeac5bd70c59f3a10041e013a7c87ea01e6256e5d571896d039e6",
    "table moments": "76f2eb436e5caeefdffd5bfcf671c6cc7fd18987f446d1f0beb354a6dfca16ce",
    "table traces": "dad5806ca79c959289138c90734f93413310cadaa5ec077bf8c539a81c240d7b",
    "verify": "433ece663513fd4cddd5dd071648a35ed30ffdcf248373ff71e4c8ff5044a005",
}


class TestParserForArgv:
    @pytest.mark.parametrize("command", HELP_SHA256)
    def test_the_help_text_is_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [*command.split(), "--help"]
        code, out, err = parse_outcome(capsys, cli.build_parser(argv), argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]

    @pytest.mark.parametrize("argv", [
        argv.split()
        for command, required, foreign, invalid in PARSER_SHAPES
        for argv in (f"{command} --help", command, f"{command} {required} {foreign}",
                     f"{command} {required} {invalid}")
    ] + [  # an option before the names: argparse still parses the command's flags
        "--bogus f --k 3 --j 2".split(), "table --bogus Nk --k 3 --maxm 2 --maxn 3".split(),
    ], ids=" ".join)
    def test_it_parses_argv_as_the_whole_parser_does(self, capsys, argv):
        outcome = parse_outcome(capsys, cli.build_parser(argv), argv)
        assert outcome == parse_outcome(capsys, cli.build_parser(), argv)
        assert outcome[0] == (0 if "--help" in argv else 2)

    @pytest.mark.parametrize("command, required", [shape[:2] for shape in PARSER_SHAPES[:5]])
    def test_only_the_named_parsers_get_flags(self, command, required):
        argv = f"{command} {required}".split()
        whole, built = flags_by_parser(cli.build_parser()), flags_by_parser(cli.build_parser(argv))
        named = {tuple(argv[:n]) for n in range(len(command.split()) + 1)}
        assert set(built) <= set(whole)
        for path, flags in built.items():
            assert flags == (whole[path] if path in named else {"-h", "--help"}), path
        assert cli.build_parser(argv).parse_args(argv) == cli.build_parser().parse_args(argv)


README = Path(__file__).resolve().parents[1] / "README.md"
README_CLI = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]


class TestReadme:
    @pytest.mark.parametrize("command", [
        line for line in README_CLI.splitlines() if line.startswith("mockeis ")
    ])
    def test_every_documented_command_runs(self, capsys, command):
        code, out, err = run_cli(capsys, *command.split()[1:])
        assert code == 0, err
        assert out

    def test_the_suite_table_is_suite_flags(self):
        def accepts(option, flag):
            words = [f"`{option}`"]
            if flag.least is not None:
                bound = f"{flag.least}..{flag.ceiling}" if flag.ceiling else f">= {flag.least}"
                words.append(f"even {bound}" if flag.even else bound)
            if "choices" in flag.kwargs:
                words.append("/".join(f"`{choice}`" for choice in flag.kwargs["choices"]))
            if flag.kwargs.get("required"):
                words.append("(required)")
            elif flag.kwargs.get("default") is not None:
                words.append(f"(default `{flag.kwargs['default']}`)")
            return " ".join(words)

        head = "| scope | flags and the values they accept |\n|---|---|\n"
        rows = README.read_text("utf-8").split(head, 1)[1].split("\n\n", 1)[0].splitlines()
        assert rows == [
            f"| `{scope}` | {', '.join(accepts(*row) for row in table.items())} |"
            for scope, table in flags.FLAGS.items()
        ]

    def test_the_documented_parser_sizes_are_built(self):
        def options(parser):
            """The option actions of the parser and of every parser below it."""
            count = 0
            for action in parser._actions:
                count += bool(action.option_strings)
                if isinstance(action.choices, dict):  # the subparsers
                    count += sum(map(options, action.choices.values()))
            return count

        sizes = {"table traces": 14, "table moments": 13, "table Nk": 12, "f": 11, "verify": 10}
        assert {command: options(cli.build_parser(command.split())) for command in sizes} == sizes
        assert options(cli.build_parser(None)) == 38
        assert ("(14 option actions for `table traces`, 13 for `table moments`, 12 for "
                "`table Nk`, 11 for `f` and 10 for `verify`, against 38 for the whole parser)"
                ) in " ".join(README.read_text("utf-8").split())

    def test_the_documented_output_is_printed(self, capsys):
        command = "mockeis f --k 3 --j 2 --order 8 --format text"
        code, out, _ = run_cli(capsys, *command.split()[1:])
        assert code == 0
        assert f"{command}\n# {out}" in README_CLI


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

    def test_products_and_inverses_from_cold_caches(self, capsys, monkeypatch):
        # The count series are built once per |m|, and the Appell jet has no
        # 1/(2 sinh(w/2)) to invert: 269 Kronecker products, no inverse in pde.
        from mockeis import qseries

        kernel, inverse = qseries._kronecker_product, QSeries.inverse
        products, inverses = [], []
        monkeypatch.setattr(
            qseries, "_kronecker_product", lambda a, b: products.append(len(a)) or kernel(a, b)
        )
        monkeypatch.setattr(QSeries, "inverse", lambda s: inverses.append(s.order) or inverse(s))
        clear_caches()
        code, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert (code, out.splitlines()[-1]) == (0, "80/80 checks passed")
        assert len(products) <= 269
        clear_caches()
        inverses.clear()
        assert run_cli(capsys, "verify", "--suite", "pde")[0] == 0
        assert inverses == []
        clear_caches()

    def test_corrupted_oracle_fails(self, capsys, monkeypatch):
        true_series = mockeis.functions.krank_count_series

        def corrupted(k, m, order):
            return true_series(k, m, order) + QSeries.monomial(1, min(2, order), order)

        monkeypatch.setattr(mockeis.functions, "krank_count_series", corrupted)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "counts", "--k", "3", "--maxn", "6",
            "--maxm", "2",
        )
        assert code == 1
        assert "FAIL" in out
        assert "[N_3(-2,2): series 1, enumeration 0]" in out

    def test_corrupted_multisum_reports_the_first_mismatch(self, monkeypatch):
        true_table = mockeis.functions.multisum_count_table

        def corrupted(k, max_abs_m, order):
            table = true_table(k, max_abs_m, order)
            return table._replace(entries={**table.entries, (1, 5): 2})

        monkeypatch.setattr(mockeis.functions, "multisum_count_table", corrupted)
        series, multi = verify.suite_counts(ks=(3,), max_n=6, max_m=2)
        assert series == ("counts: N_3 enumeration = count series (n<=6, |m|<=2)", True, "")
        assert multi == (
            "counts: N_3 multisum = enumeration (n<=6, |m|<=2)",
            False,
            "N_3(1,5): multisum 2, enumeration 1",
        )

    def test_all_prints_finished_suites_before_an_error(self, capsys, monkeypatch):
        # Every flag passes its check; moments then fails after counts has run.
        def moments(**kwargs):
            raise ConfigError("moments failed")

        monkeypatch.setitem(verify.SUITES, "moments", moments)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "all", "--k", "4", "--maxn", "10", "--maxm", "2"
        )
        assert code == 2
        assert out == "PASS counts: N_4 enumeration = count series (n<=10, |m|<=2)\n"
        assert err == "error: moments failed\n"

    @pytest.mark.parametrize("argv, message", [
        ("all --maxj 3", "suite 'traces' needs an even --maxj >= 0"),
        ("all --order 41", "suite 'crank': --order 41 exceeds the enumeration ceiling 40"),
        ("all --k 2", "suite 'moments' needs --k >= 3"),
        ("moments --k 2", "suite 'moments' needs --k >= 3"),
        ("counts --k 1", "suite 'counts' needs --k >= 2"),
        ("counts --maxn 41", "suite 'counts': --maxn 41 exceeds the enumeration ceiling 40"),
        ("traces --maxj 42", "suite 'traces': --maxj 42 exceeds the enumeration ceiling 40"),
        ("crank --order 41", "suite 'crank': --order 41 exceeds the enumeration ceiling 40"),
    ])
    def test_a_refused_flag_runs_no_suite(self, capsys, monkeypatch, argv, message):
        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, lambda **kwargs: pytest.fail("suite ran"))
        code, out, err = run_cli(capsys, "verify", "--suite", *argv.split())
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, params", [
        ("crank --order 40 --maxj 40", {"order": 40, "max_j": 40}),
        ("traces --maxj 40", {"max_j": 40}),
        ("counts --maxn 40 --k 2", {"ks": (2,), "max_n": 40}),
        ("pattern --maxj 2", {"max_j": 2}),
    ])
    def test_values_on_a_bound_reach_the_suite(self, capsys, monkeypatch, argv, params):
        seen = []

        def suite(**kwargs):
            seen.append(kwargs)
            return []

        monkeypatch.setitem(verify.SUITES, argv.split()[0], suite)
        code, out, _ = run_cli(capsys, "verify", "--suite", *argv.split())
        assert (code, out, seen) == (0, "0/0 checks passed\n", [params])

    @pytest.mark.parametrize("suite", ["traces", "integrality", "pattern"])
    def test_family_suites_name_the_flag_for_k2(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--k", "2")
        assert (code, out) == (2, "")
        assert err == f"error: suite {suite!r} needs --k >= 3\n"

    @pytest.mark.parametrize(
        "suite, maxj, least",
        [("traces", 3, 0), ("crank", 3, 0), ("integrality", 3, 2), ("integrality", 0, 2),
         ("pattern", 3, 2), ("pattern", 0, 2)],
    )
    def test_even_maxj_suites_name_the_flag(self, capsys, monkeypatch, suite, maxj, least):
        monkeypatch.setitem(verify.SUITES, suite, lambda **kwargs: pytest.fail("suite ran"))
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--maxj", str(maxj))
        assert (code, out) == (2, "")
        assert err == f"error: suite {suite!r} needs an even --maxj >= {least}\n"

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
        assert list(verify.iter_suites("all")) == [
            [verify.CheckResult(f"{name} {i}", name != "crank") for i in range(2)]
            for name in verify.SUITES
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
            # A size out of range, rejected before any suite runs.
            (("--suite", "theta-ode", "--order", "-1"), ("--order",)),
            (("--suite", "crank", "--order", "-1"), ("--order",)),
            (("--suite", "pde", "--order", "0"), ("--order",)),
            (("--suite", "moments", "--maxj", "-2"), ("--maxj",)),
            (("--suite", "counts", "--maxn", "-1"), ("--maxn",)),
            (("--suite", "all", "--maxm", "-1"), ("--maxm",)),
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
        list(verify.iter_suites("all", {"--k": 4, "--maxj": None, "--order": 10}))
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
        scopes = [scope for scope in flags.FLAGS if scope.startswith("suite ")]
        assert scopes == [f"suite {name!r}" for name in verify.SUITES]
        for name in verify.SUITES:
            params = inspect.signature(verify.SUITES[name]).parameters
            assert {flag.dest for flag in flags.FLAGS[f"suite {name!r}"].values()} <= set(params)

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


SRC = str(Path(mockeis.__file__).resolve().parents[1])


def run_python(script):
    """Run ``script`` in a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )


def loaded_by(*argv, code=0):
    """The modules that ``python -m mockeis argv`` loads beyond interpreter start-up.

    ``code`` is the exit code of a command that exits by ``SystemExit``: 0, or
    argparse's 2 for a usage error."""
    script = (
        "import runpy, sys\n"
        "before = set(sys.modules)\n"
        f"sys.argv = ['mockeis', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('mockeis', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        f"    assert (exit.code or 0) == {code}\n"
        "print(' '.join(set(sys.modules) - before), file=sys.stderr)\n"
    )
    return set(run_python(script).stderr.split())


class TestImportScope:
    def test_f_loads_neither_verify_pde_nor_dataclasses(self):
        loaded = loaded_by("f", "--k", "3", "--j", "2", "--order", "1")
        assert "mockeis.mock" in loaded
        assert not {"mockeis.verify", "mockeis.pde", "dataclasses", "json"} & loaded

    @pytest.mark.parametrize("option", [*(("--route", route) for route in flags.ROUTES),
                                        ("--format", "bfile")])
    def test_f_loads_neither_functions_nor_tables(self, option):
        loaded = loaded_by("f", "--k", "3", "--j", "4", "--order", "6", *option)
        assert "mockeis.divisor" in loaded
        assert not {"mockeis.functions", "mockeis.tables"} & loaded

    def test_verify_loads_no_tables(self):
        loaded = loaded_by("verify", "--suite", "all")
        assert "mockeis.functions" in loaded
        assert "mockeis.tables" not in loaded

    @pytest.mark.parametrize("name", ["divisor_like_sum", "eisenstein"])
    def test_the_divisor_sums_are_one_object_in_every_module(self, name):
        # So a hook on functions.divisor_like_sum, which wraps every binding
        # of the object, also spans the family's calls through mock.
        users = {"divisor_like_sum": (mock, mockeis.functions),
                 "eisenstein": (mockeis.functions, mockeis.pde)}
        target = getattr(mockeis.divisor, name)
        for module in users[name]:
            assert getattr(module, name) is target
        for home, module in list(sys.modules.items()):
            if home.startswith("mockeis."):
                assert getattr(module, name, target) is target, home

    def test_nk_csv_loads_no_series_module(self):
        loaded = loaded_by("table", "Nk", "--k", "3", "--maxm", "2", "--maxn", "5",
                           "--format", "csv")
        assert "mockeis.partitions" in loaded
        assert not {"mockeis.qseries", "mockeis.functions", "json"} & loaded

    def test_nk_csv_loads_neither_fractions_nor_decimal(self):
        loaded = loaded_by("table", "Nk", "--k", "3", "--maxm", "2", "--maxn", "5",
                           "--format", "csv")
        assert "mockeis.bernoulli" in loaded
        assert not {"fractions", "decimal"} & loaded

    @pytest.mark.parametrize("argv, code", [
        ("f --help", 0), ("verify --help", 0), ("verify --suite bogus", 2),
        ("f --k 3 --j 2 --route bogus", 2),
    ])
    def test_parsing_loads_no_computing_module(self, argv, code):
        loaded = {name for name in loaded_by(*argv.split(), code=code) if "mockeis" in name}
        assert loaded == {"mockeis", "mockeis.bernoulli", "mockeis.cli", "mockeis.errors",
                          "mockeis.flags"}

    def test_parser_choices_match_the_modules(self):
        assert flags.SUITES == tuple(verify.SUITES)
        assert mock.ROUTES is flags.ROUTES
        assert mockeis.functions.RANK_METHODS is flags.RANK_METHODS


class TestLazyPackage:
    def test_every_public_name_resolves(self):
        listed = dir(mockeis)
        for name in mockeis.__all__:
            value = getattr(mockeis, name)
            assert not isinstance(value, ModuleType), name
            assert name in listed
            home = getattr(value, "__module__", None)
            if home is not None:
                assert getattr(sys.modules[home], name) is value
        assert callable(mockeis.bernoulli)
        assert mockeis.PARTITION_CEILING == 40

    def test_names_load_their_module_on_first_use(self):
        run_python(
            "import sys, mockeis\n"
            "assert 'mockeis.qseries' not in sys.modules\n"
            "from mockeis import QSeries\n"
            "assert QSeries is sys.modules['mockeis.qseries'].QSeries\n"
            "from mockeis import divisor_like_sum, eisenstein\n"
            "assert divisor_like_sum is sys.modules['mockeis.divisor'].divisor_like_sum\n"
            "assert eisenstein is sys.modules['mockeis.divisor'].eisenstein\n"
            "assert 'mockeis.functions' not in sys.modules\n"
            "import mockeis.functions\n"
            "from mockeis import bernoulli\n"
            "assert bernoulli(2) == mockeis.bernoulli(2) == mockeis.bernoulli_poly(2, 0)\n"
            "assert mockeis.functions is sys.modules['mockeis.functions']\n"
            "assert 'mockeis.verify' not in sys.modules\n"
            "from mockeis import verify\n"
            "assert verify is sys.modules['mockeis.verify']\n"
        )

    def test_eisenstein_members_resolves_without_verify(self):
        run_python(
            "import sys\n"
            "from mockeis import eisenstein_members\n"
            "assert eisenstein_members is sys.modules['mockeis.functions'].eisenstein_members\n"
            "assert 'mockeis.verify' not in sys.modules\n"
            "from mockeis import verify\n"
            "assert verify.eisenstein_members is eisenstein_members\n"
        )

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError):
            mockeis.no_such_name


BFILE = ("f", "--k", "3", "--j", "12", "--order", "2000", "--format", "bfile")  # 75 KB
SMALL = ("table", "Nk", "--k", "3", "--maxm", "2", "--maxn", "8")  # fits stdout's buffer
K2 = ("table", "traces", "--k", "2", "--maxj", "2", "--order", "5")  # a ConfigError: exit 2

# sitecustomize runs before the package is imported, and teardown frees its
# module.  __del__ is a partial, not a function, so the class holds no
# reference back to the module: the probe is in no cycle, which the heap a
# CLI process freezes would otherwise keep alive.
TEARDOWN_PROBE = """\
import functools
import os


class Probe:
    __del__ = functools.partial(os.write, 2, b"teardown ran")


probe = Probe()
"""


def mockeis_process(*argv, path=(), **popen):
    """``python -m mockeis argv`` with this checkout's package first on the path.

    stdout is block-buffered (no PYTHONUNBUFFERED), so what a command leaves
    in the buffer reaches the pipe only through the flush at exit.
    ``popen`` overrides the keyword arguments of ``subprocess.Popen``.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [*map(str, path), SRC, os.environ.get("PYTHONPATH")])
    )}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen(
        [sys.executable, "-m", "mockeis", *argv],
        **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "env": env, **popen},
    )


def run_mockeis(*argv, path=()):
    with mockeis_process(*argv, path=path) as proc:
        out, err = proc.communicate()
    return proc.returncode, out, err


def run_without_stdout(*argv):
    """(exit code, stderr) of ``python -m mockeis argv`` started with fd 1 closed.

    The interpreter then sets ``sys.stdout`` to None.
    """
    with mockeis_process(*argv, stdout=None, preexec_fn=lambda: os.close(1)) as proc:
        _, err = proc.communicate()
    return proc.returncode, err


class TestProcess:
    @pytest.mark.parametrize("argv", [BFILE, SMALL], ids=["bfile", "small"])
    def test_piped_stdout_is_the_whole_output(self, capsys, argv):
        # The bfile is more than a 64 KiB pipe buffer holds, and all of the
        # small output is still in stdout's buffer when the command returns.
        _, expected, _ = run_cli(capsys, *argv)
        assert run_mockeis(*argv) == (0, expected.encode("ascii"), b"")

    def test_out_file_has_the_same_bytes(self, capsys, tmp_path):
        _, expected, _ = run_cli(capsys, *BFILE)
        target = tmp_path / "f.txt"
        assert run_mockeis(*BFILE, "--out", str(target)) == (0, b"", b"")
        assert target.read_bytes() == expected.encode("ascii")

    def test_config_error_exits_2(self):
        code, out, err = run_mockeis(*K2)
        assert (code, out) == (2, b"")
        assert err.startswith(b"error: ")

    @pytest.mark.parametrize("argv", [BFILE, SMALL], ids=["bfile", "small"])
    def test_broken_pipe_exits_1_without_a_traceback(self, argv):
        # The reader is gone before the first write: the bfile's write fails
        # inside the command, the small output's in the flush at exit.
        with mockeis_process(*argv) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, b"")

    @pytest.mark.parametrize("argv", [
        ("f", "--k", "3", "--j", "2", "--order", "4"),
        SMALL,
        ("verify", "--suite", "theta-ode", "--order", "8"),
    ], ids=["f", "table", "verify"])
    def test_closed_stdout_exits_1_without_a_traceback(self, argv):
        assert run_without_stdout(*argv) == (1, b"")

    def test_closed_stdout_still_writes_the_out_file(self, tmp_path):
        target = tmp_path / "f.txt"
        argv = ("f", "--k", "3", "--j", "2", "--order", "4", "--out", str(target))
        assert run_without_stdout(*argv) == (0, b"")
        assert target.read_text() == "-1/24 + q^3 + 3q^4\n"

    @pytest.mark.parametrize("argv, code, teardown", [
        (SMALL, 0, False),
        (K2, 2, False),
        (("table", "Nk", "--k", "3", "--no-such-flag"), 2, True),
    ], ids=["success", "config-error", "usage-error"])
    def test_teardown_runs_only_after_an_exception(self, tmp_path, argv, code, teardown):
        (tmp_path / "sitecustomize.py").write_text(TEARDOWN_PROBE)
        returncode, _, err = run_mockeis(*argv, path=[tmp_path])
        assert returncode == code
        assert (b"teardown ran" in err) == teardown


def clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("mockeis."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def cyclic_garbage(run):
    """The objects a collection finds unreachable after ``run()`` with the GC off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


# Every route and format of f, every table, every verify suite at small
# sizes, and exit-2 paths: the shapes a CLI process runs with the GC off.
COMMAND_SHAPES = [
    *((f"f --k 3 --j 4 --order 10 --route {route} --format {fmt}", 0)
      for route in flags.ROUTES for fmt in ("text", "json", "bfile")),
    ("table Nk --k 3 --maxm 2 --maxn 12 --format csv", 0),
    ("table Nk --k 5 --maxm 2 --maxn 12 --format json", 0),
    ("table moments --k 3 --j 4 --order 12 --method combinatorial", 0),
    ("table moments --k 4 --j 2 --order 12 --format json", 0),
    ("table traces --k 3 --maxj 4 --order 8 --format json", 0),
    ("table traces --k 4 --maxj 6 --order 10 --route recursionB", 0),
    ("verify --suite counts --k 3 --maxn 8 --maxm 2", 0),
    ("verify --suite moments --k 3 --maxj 2 --order 8", 0),
    ("verify --suite traces --k 3 --maxj 2 --order 8", 0),
    ("verify --suite crank --maxj 2 --order 8", 0),
    ("verify --suite integrality --k 3 --maxj 4 --order 10", 0),
    ("verify --suite pattern --k 3 --maxj 4", 0),
    ("verify --suite pde --order 4", 0),
    ("verify --suite theta-ode --order 8", 0),
    ("table Nk --k 3 --maxm 2 --maxn 50", 2),
    ("verify --suite pde --k 3", 2),
    ("verify --suite traces --maxj 3", 2),
    ("verify --suite all --maxj 3", 2),
    ("verify --suite all --order 41", 2),
    ("f --k 3 --route recursionB --j 44 --order 2", 2),
]


class TestGarbageCollectorPolicy:
    def test_a_cli_run_never_collects_and_exits_frozen(self):
        # The package import is library code and leaves the GC alone; the
        # policy holds from __main__ on.
        script = (
            "import gc, runpy, sys\n"
            "import mockeis\n"
            "gc.collect()\n"
            "starts = []\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info))\n"
            "sys.argv = ['mockeis', 'table', 'Nk', '--k', '3', '--maxm', '2', '--maxn', '8']\n"
            "try:\n"
            "    runpy.run_module('mockeis', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exit:\n"
            "    assert not exit.code\n"
            "    print(len(starts), gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)\n"
        )
        assert run_python(script).stderr.split() == ["0", "False", "True"]

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_main_leaves_the_callers_collector_as_found(self, capsys, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        frozen = gc.get_freeze_count()
        try:
            clear_caches()
            code, _, _ = run_cli(capsys, "table", "Nk", "--k", "3", "--maxm", "2", "--maxn", "8")
            assert (code, gc.isenabled(), gc.get_freeze_count()) == (0, enabled, frozen)
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("command, code", COMMAND_SHAPES)
    def test_a_command_leaves_no_more_cycles_than_its_parser(self, command, code):
        # What keeps memory bounded in a CLI process, which never collects.
        argv = command.split()
        parser_only = cyclic_garbage(lambda: cli.build_parser(argv).parse_args(argv))
        clear_caches()
        codes = []
        found = cyclic_garbage(lambda: codes.append(main(argv)))
        assert codes == [code]
        assert found <= parser_only


EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text("ascii")
)


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_benchmark_command_prints_its_recorded_bytes(capsys, command):
    clear_caches()
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPECTED[command]
