"""Command-line front end: series tables, count tables, verification suites.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or configuration error.  Rationals are always serialized as
"num/den" strings, never as floats; identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional

from . import functions as fn
from . import mock
from . import partitions as pt
from . import verify
from .bernoulli import bernoulli
from .errors import ConfigError
from .qseries import QSeries

SUITE_CHOICES = ("all",) + tuple(verify.SUITES)


@dataclass(frozen=True)
class JobConfig:
    command: str
    kind: Optional[str] = None
    k: Optional[int] = None
    j: Optional[int] = None
    max_j: Optional[int] = None
    max_n: Optional[int] = None
    max_m: Optional[int] = None
    order: Optional[int] = None
    method: Optional[str] = None
    route: Optional[str] = None
    fmt: Optional[str] = None
    out: Optional[str] = None
    allow_k2: bool = False
    suite: Optional[str] = None


def _emit(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write the chunks in turn, to the --out file or to stdout."""
    if out:
        with open(out, "w", encoding="ascii") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _frac_str(value: Fraction) -> str:
    return str(value)


def _check_k(config: JobConfig) -> None:
    if config.k is None or config.k < 2:
        raise ConfigError("--k must be an integer >= 2")
    if config.k == 2 and not config.allow_k2:
        raise ConfigError("k = 2 is an extrapolation; pass --allow-k2 to compute it")


def _family_member(config: JobConfig) -> QSeries:
    if config.j is None or config.j < 1:
        raise ConfigError("--j must be an integer >= 1")
    if config.order is None or config.order < 1:
        raise ConfigError("--order must be >= 1")
    if config.j % 2:
        return QSeries.zero(config.order)
    family = mock.mock_eisenstein_family(
        config.k, config.j, config.order, config.route, allow_k2=config.allow_k2
    )
    return family.member(config.j)


def cmd_f(config: JobConfig) -> int:
    _check_k(config)
    series = _family_member(config)
    if config.fmt == "text":
        _emit([str(series) + "\n"], config.out)
    elif config.fmt == "json":
        payload = {
            "object": "qseries",
            "k": config.k,
            "j": config.j,
            "order": config.order,
            "coefficients": [_frac_str(c) for c in series.coeffs],
        }
        if config.k == 2:
            payload["extrapolated"] = True
        _emit([json.dumps(payload) + "\n"], config.out)
    elif config.fmt == "bfile":
        shifted = series + bernoulli(config.j) / (2 * config.j)
        n = mock.first_fractional(shifted)
        if n is not None:
            raise ConfigError(
                "bfile export needs an integral series; "
                f"coefficient of q^{n} is {shifted.coeff(n)}"
            )
        lines = "".join(f"{n} {c}\n" for n, c in enumerate(shifted.nums))
        _emit([lines], config.out)
    else:
        raise ConfigError(f"unknown format {config.fmt!r}")
    if config.k == 2:
        print(
            "note: k = 2 output is extrapolated beyond the verified range k >= 3",
            file=sys.stderr,
        )
    return 0


def _table_nk(config: JobConfig) -> Iterator[str]:
    """The table as text chunks, one per m, so that only one m's rows are held.

    The text is a head, the cells of every (m, n) joined by a separator,
    and a tail: the csv lines, or ``json.dumps`` of the payload whose
    ``entries`` are the [m, n, count] lists.
    """
    _check_k(config)
    if config.max_m is None or config.max_n is None:
        raise ConfigError("table Nk needs --maxm and --maxn")
    table = pt.count_table(config.k, config.max_m, config.max_n)
    if config.fmt == "csv":
        head, cell, sep, tail = "m,n,count\n", "{},{},{}", "\n", "\n"
    else:
        payload = {
            "object": "count_table",
            "k": config.k,
            "max_abs_m": config.max_m,
            "max_n": config.max_n,
            "entries": [],
        }
        head = json.dumps(payload)[: -len("]}")]
        cell, sep, tail = "[{}, {}, {}]", ", ", "]}\n"
    ns = range(config.max_n + 1)

    def chunks() -> Iterator[str]:
        yield head
        for m in range(-config.max_m, config.max_m + 1):
            rows = sep.join(cell.format(m, n, table.count(m, n)) for n in ns)
            yield rows if m == -config.max_m else sep + rows
        yield tail

    return chunks()


def _table_moments(config: JobConfig):
    _check_k(config)
    if config.j is None or config.j < 0:
        raise ConfigError("table moments needs --j >= 0")
    if config.order is None or config.order < 1:
        raise ConfigError("--order must be >= 1")
    if config.k < 3:
        raise ConfigError("moment tables require k >= 3")
    moment = fn.rank_moment(config.k, config.j, config.order, config.method or "direct")
    if config.fmt == "csv":
        lines = ["n,coefficient"]
        lines.extend(
            f"{n},{_frac_str(c)}" for n, c in enumerate(moment.series.coeffs)
        )
        return "\n".join(lines) + "\n"
    payload = {
        "object": "moment_series",
        "k": config.k,
        "j": config.j,
        "order": config.order,
        "method": moment.method,
        "coefficients": [_frac_str(c) for c in moment.series.coeffs],
    }
    return json.dumps(payload) + "\n"


def _table_traces(config: JobConfig):
    _check_k(config)
    if config.max_j is None or config.max_j < 0:
        raise ConfigError("table traces needs --maxj >= 0")
    if config.order is None or config.order < 1:
        raise ConfigError("--order must be >= 1")
    family = mock.mock_eisenstein_family(
        config.k,
        max(2, config.max_j + (config.max_j % 2)),
        config.order,
        config.route,
        allow_k2=config.allow_k2,
    )
    traces = {
        j: mock.partition_trace(j, family.member, config.order, "phi")
        for j in range(config.max_j + 1)
    }
    if config.fmt == "csv":
        lines = ["j,n,coefficient"]
        for j in range(config.max_j + 1):
            lines.extend(
                f"{j},{n},{_frac_str(c)}" for n, c in enumerate(traces[j].coeffs)
            )
        return "\n".join(lines) + "\n"
    payload = {
        "object": "trace_table",
        "k": config.k,
        "max_j": config.max_j,
        "order": config.order,
        "traces": {str(j): [_frac_str(c) for c in traces[j].coeffs] for j in traces},
    }
    return json.dumps(payload) + "\n"


def cmd_table(config: JobConfig) -> int:
    if config.kind == "Nk":
        chunks = _table_nk(config)
    elif config.kind == "moments":
        chunks = [_table_moments(config)]
    elif config.kind == "traces":
        chunks = [_table_traces(config)]
    else:
        raise ConfigError(f"unknown table kind {config.kind!r}")
    _emit(chunks, config.out)
    return 0


def cmd_verify(config: JobConfig) -> int:
    flags = {
        "--k": (config.k,) if config.k is not None else None,
        "--maxj": config.max_j,
        "--maxn": config.max_n,
        "--maxm": config.max_m,
        "--order": config.order,
    }
    if config.suite not in SUITE_CHOICES:
        raise ConfigError(f"unknown suite {config.suite!r}")
    total = failed = 0
    # Each suite's lines are printed as it finishes, so an error in a later
    # suite (exit 2) does not discard the results already computed.
    for results in verify.iter_suites(config.suite, flags):
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            line = f"{status} {result.name}"
            if result.detail:
                line += f" [{result.detail}]"
            print(line)
            failed += not result.passed
        total += len(results)
    print(f"{total - failed}/{total} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mockeis",
        description="Exact q-series computations for k-rank moments and their "
        "mock Eisenstein series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    f_parser = sub.add_parser("f", help="print one family member f_{k,j}")
    f_parser.add_argument("--k", type=int, required=True)
    f_parser.add_argument("--j", type=int, required=True)
    f_parser.add_argument("--order", type=int, default=30)
    f_parser.add_argument("--route", choices=mock.ROUTES, default="recursionA")
    f_parser.add_argument("--format", dest="fmt", choices=("text", "json", "bfile"),
                          default="text")
    f_parser.add_argument("--out", default=None)
    f_parser.add_argument("--allow-k2", action="store_true")

    t_parser = sub.add_parser("table", help="emit count/moment/trace tables")
    t_parser.add_argument("kind", choices=("Nk", "moments", "traces"))
    t_parser.add_argument("--k", type=int, required=True)
    t_parser.add_argument("--j", type=int, default=None)
    t_parser.add_argument("--maxj", dest="max_j", type=int, default=None)
    t_parser.add_argument("--maxn", dest="max_n", type=int, default=None)
    t_parser.add_argument("--maxm", dest="max_m", type=int, default=None)
    t_parser.add_argument("--order", type=int, default=30)
    t_parser.add_argument("--method", choices=fn.RANK_METHODS, default=None)
    t_parser.add_argument("--route", choices=mock.ROUTES, default="recursionA")
    t_parser.add_argument("--format", dest="fmt", choices=("csv", "json"),
                          default="csv")
    t_parser.add_argument("--out", default=None)
    t_parser.add_argument("--allow-k2", action="store_true")

    v_parser = sub.add_parser("verify", help="run a verification suite")
    v_parser.add_argument("--suite", choices=SUITE_CHOICES, required=True)
    v_parser.add_argument("--k", type=int, default=None)
    v_parser.add_argument("--maxj", dest="max_j", type=int, default=None)
    v_parser.add_argument("--maxn", dest="max_n", type=int, default=None)
    v_parser.add_argument("--maxm", dest="max_m", type=int, default=None)
    v_parser.add_argument("--order", type=int, default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> JobConfig:
    return JobConfig(
        command=args.command,
        kind=getattr(args, "kind", None),
        k=getattr(args, "k", None),
        j=getattr(args, "j", None),
        max_j=getattr(args, "max_j", None),
        max_n=getattr(args, "max_n", None),
        max_m=getattr(args, "max_m", None),
        order=getattr(args, "order", None),
        method=getattr(args, "method", None),
        route=getattr(args, "route", None),
        fmt=getattr(args, "fmt", None),
        out=getattr(args, "out", None),
        allow_k2=getattr(args, "allow_k2", False),
        suite=getattr(args, "suite", None),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    handlers = {"f": cmd_f, "table": cmd_table, "verify": cmd_verify}
    try:
        return handlers[config.command](config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
