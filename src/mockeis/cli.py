"""Command-line front end: series tables, count tables, verification suites.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or configuration error.  Rationals are always serialized as
"num/den" strings, never as floats; identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import ConfigError, WindowTooLargeError

# The choices of the parser, spelled out so that building it imports no
# computing module; the tests check them against the modules' own tuples.
SUITE_CHOICES = ("all", "counts", "moments", "traces", "crank", "integrality", "pattern",
                 "pde", "theta-ode")
ROUTES = ("recursionA", "recursionB", "logRoute")
RANK_METHODS = ("direct", "divisor-sum", "combinatorial")


def _emit(chunks, out: str | None) -> None:
    """Write the chunks in turn, to the --out file or to stdout."""
    if out:
        with open(out, "w", encoding="ascii") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _check_k(args: argparse.Namespace) -> None:
    if args.k is None or args.k < 2:
        raise ConfigError("--k must be an integer >= 2")
    if args.k == 2 and not args.allow_k2:
        raise ConfigError("k = 2 is an extrapolation; pass --allow-k2 to compute it")


def _family_member(args: argparse.Namespace):
    from . import mock
    from .qseries import QSeries

    if args.j is None or args.j < 1:
        raise ConfigError("--j must be an integer >= 1")
    if args.order is None or args.order < 1:
        raise ConfigError("--order must be >= 1")
    if args.j % 2:
        return QSeries.zero(args.order)
    family = mock.mock_eisenstein_family(
        args.k, args.j, args.order, args.route, allow_k2=args.allow_k2
    )
    return family.member(args.j)


def cmd_f(args: argparse.Namespace) -> int:
    _check_k(args)
    series = _family_member(args)
    if args.fmt == "text":
        _emit([str(series) + "\n"], args.out)
    elif args.fmt == "json":
        import json

        payload = {
            "object": "qseries",
            "k": args.k,
            "j": args.j,
            "order": args.order,
            "coefficients": list(map(str, series.coeffs)),
        }
        if args.k == 2:
            payload["extrapolated"] = True
        _emit([json.dumps(payload) + "\n"], args.out)
    elif args.fmt == "bfile":
        from .bernoulli import bernoulli
        from .mock import first_fractional

        shifted = series + bernoulli(args.j) / (2 * args.j)
        n = first_fractional(shifted)
        if n is not None:
            raise ConfigError(
                "bfile export needs an integral series; "
                f"coefficient of q^{n} is {shifted.coeff(n)}"
            )
        lines = "".join(f"{n} {c}\n" for n, c in enumerate(shifted.nums))
        _emit([lines], args.out)
    else:
        raise ConfigError(f"unknown format {args.fmt!r}")
    if args.k == 2:
        print(
            "note: k = 2 output is extrapolated beyond the verified range k >= 3",
            file=sys.stderr,
        )
    return 0


def _table_nk(args: argparse.Namespace):
    """The table as text chunks, one per m, so that only one m's rows are held.

    The text is a head, the cells of every (m, n) joined by a separator,
    and a tail: the csv lines, or ``json.dumps`` of the payload whose
    ``entries`` are the [m, n, count] lists.
    """
    from .partitions import count_table

    _check_k(args)
    if args.max_m is None or args.max_n is None:
        raise ConfigError("table Nk needs --maxm and --maxn")
    table = count_table(args.k, args.max_m, args.max_n)
    if args.fmt == "csv":
        head, cell, sep, tail = "m,n,count\n", "{},{},{}", "\n", "\n"
    else:
        import json

        payload = {
            "object": "count_table",
            "k": args.k,
            "max_abs_m": args.max_m,
            "max_n": args.max_n,
            "entries": [],
        }
        head = json.dumps(payload)[: -len("]}")]
        cell, sep, tail = "[{}, {}, {}]", ", ", "]}\n"
    ns = range(args.max_n + 1)

    def chunks():
        yield head
        for m in range(-args.max_m, args.max_m + 1):
            rows = sep.join(cell.format(m, n, table.count(m, n)) for n in ns)
            yield rows if m == -args.max_m else sep + rows
        yield tail

    return chunks()


def _table_moments(args: argparse.Namespace) -> str:
    from . import functions as fn

    _check_k(args)
    if args.j is None or args.j < 0:
        raise ConfigError("table moments needs --j >= 0")
    if args.order is None or args.order < 1:
        raise ConfigError("--order must be >= 1")
    if args.k < 3:
        raise ConfigError("moment tables require k >= 3")
    moment = fn.rank_moment(args.k, args.j, args.order, args.method or "direct")
    coefficients = list(map(str, moment.series.coeffs))
    if args.fmt == "csv":
        lines = ["n,coefficient"]
        lines.extend(f"{n},{c}" for n, c in enumerate(coefficients))
        return "\n".join(lines) + "\n"
    import json

    payload = {
        "object": "moment_series",
        "k": args.k,
        "j": args.j,
        "order": args.order,
        "method": moment.method,
        "coefficients": coefficients,
    }
    return json.dumps(payload) + "\n"


def _table_traces(args: argparse.Namespace) -> str:
    from . import mock
    from .partitions import PARTITION_CEILING

    _check_k(args)
    if args.max_j is None or args.max_j < 0:
        raise ConfigError("table traces needs --maxj >= 0")
    if args.max_j > PARTITION_CEILING:
        # Tr_j sums over the partitions of j; fail before building the family.
        raise WindowTooLargeError(
            f"--maxj {args.max_j} exceeds the enumeration ceiling {PARTITION_CEILING}"
        )
    if args.order is None or args.order < 1:
        raise ConfigError("--order must be >= 1")
    family = mock.mock_eisenstein_family(
        args.k,
        max(2, args.max_j + (args.max_j % 2)),
        args.order,
        args.route,
        allow_k2=args.allow_k2,
    )
    monomials: dict = {}
    traces = {
        j: list(
            map(str, mock.partition_trace(j, family.member, args.order, "phi", monomials).coeffs)
        )
        for j in range(args.max_j + 1)
    }
    if args.fmt == "csv":
        lines = ["j,n,coefficient"]
        for j, coefficients in traces.items():
            lines.extend(f"{j},{n},{c}" for n, c in enumerate(coefficients))
        return "\n".join(lines) + "\n"
    import json

    payload = {
        "object": "trace_table",
        "k": args.k,
        "max_j": args.max_j,
        "order": args.order,
        "traces": {str(j): coefficients for j, coefficients in traces.items()},
    }
    return json.dumps(payload) + "\n"


def cmd_table(args: argparse.Namespace) -> int:
    if args.kind == "Nk":
        chunks = _table_nk(args)
    elif args.kind == "moments":
        chunks = [_table_moments(args)]
    elif args.kind == "traces":
        chunks = [_table_traces(args)]
    else:
        raise ConfigError(f"unknown table kind {args.kind!r}")
    _emit(chunks, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    flags = {
        "--k": (args.k,) if args.k is not None else None,
        "--maxj": args.max_j,
        "--maxn": args.max_n,
        "--maxm": args.max_m,
        "--order": args.order,
    }
    if args.suite not in SUITE_CHOICES:
        raise ConfigError(f"unknown suite {args.suite!r}")
    total = failed = 0
    # Each suite's lines are printed as it finishes, so an error in a later
    # suite (exit 2) does not discard the results already computed.
    for results in verify.iter_suites(args.suite, flags):
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
    f_parser.add_argument("--route", choices=ROUTES, default="recursionA")
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
    t_parser.add_argument("--method", choices=RANK_METHODS, default=None)
    t_parser.add_argument("--route", choices=ROUTES, default="recursionA")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"f": cmd_f, "table": cmd_table, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """Run :func:`main` as the whole process, with no cyclic garbage collection.

    No command creates a reference cycle outside argparse's parser, so the
    collector would only walk the cached partitions and series, which hold
    none; with it off, memory still stays bounded (the tests check that a
    collection after each command finds no more than the parser alone
    leaves).  Freezing the heap before exit leaves the collection at
    interpreter shutdown nothing to walk.  :func:`main` itself leaves the
    caller's GC as it found it.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()
