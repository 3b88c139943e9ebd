"""Command-line front end: series tables, count tables, verification suites.

Exit codes: 0 success / all checks pass, 1 verification failure or a
broken stdout pipe, 2 usage or configuration error: a flag the command or
table kind does not take, a missing or out-of-range value, or an ``--out``
file that cannot be written (opened only after the work, so a failing
command never creates or truncates it).  Rationals are always serialized
as "num/den" strings, never as floats; identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

from .errors import ConfigError, WindowTooLargeError

# The choices of the parser, spelled out so that building it imports no
# computing module; the tests check them against the modules' own tuples.
SUITE_CHOICES = ("all", "counts", "moments", "traces", "crank", "integrality", "pattern",
                 "pde", "theta-ode")
ROUTES = ("recursionA", "recursionB", "logRoute")
RANK_METHODS = ("direct", "divisor-sum", "combinatorial")


def _emit(chunks, out: str | None) -> None:
    """Write the chunks in turn, to the --out file or to stdout.

    A file that cannot be opened or written is a ``ConfigError`` (exit 2).
    A process started with stdout closed has no ``sys.stdout``; that is a
    reader gone before the first write, so it raises ``BrokenPipeError``.
    """
    if out:
        try:
            with open(out, "w", encoding="ascii") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out}: {exc.strerror or exc}") from None
    elif sys.stdout is None:
        raise BrokenPipeError("stdout is closed")
    else:
        sys.stdout.writelines(chunks)


def _check_k(args: argparse.Namespace) -> None:
    if args.k < 2:
        raise ConfigError("--k must be an integer >= 2")
    if args.k == 2 and not args.allow_k2:
        raise ConfigError("k = 2 is an extrapolation; pass --allow-k2 to compute it")


def _family_member(args: argparse.Namespace):
    from . import mock
    from .qseries import QSeries

    if args.j < 1:
        raise ConfigError("--j must be an integer >= 1")
    if args.order < 1:
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
    else:
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
    if args.k == 2:
        print(
            "note: k = 2 output is extrapolated beyond the verified range k >= 3",
            file=sys.stderr,
        )
    return 0


def cmd_table_nk(args: argparse.Namespace) -> int:
    """Write the table as text chunks, one per m, so that only one m's rows are held.

    The text is a head, the cells of every (m, n) joined by a separator,
    and a tail: the csv lines, or ``json.dumps`` of the payload whose
    ``entries`` are the [m, n, count] lists.
    """
    from .partitions import count_table

    _check_k(args)
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

    _emit(chunks(), args.out)
    return 0


def _write_table(args: argparse.Namespace, head: str, rows, payload: dict) -> int:
    """Write the rows as csv lines under ``head``, or ``payload`` as one JSON line."""
    if args.fmt == "csv":
        text = "\n".join([head, *(",".join(map(str, row)) for row in rows)]) + "\n"
    else:
        import json

        text = json.dumps(payload) + "\n"
    _emit([text], args.out)
    return 0


def cmd_table_moments(args: argparse.Namespace) -> int:
    from . import functions as fn

    # rank_moment itself rejects k < 3 before any work.
    if args.j < 0:
        raise ConfigError("table moments needs --j >= 0")
    if args.order < 1:
        raise ConfigError("--order must be >= 1")
    moment = fn.rank_moment(args.k, args.j, args.order, args.method)
    coefficients = list(map(str, moment.series.coeffs))
    payload = {"object": "moment_series", "k": args.k, "j": args.j, "order": args.order,
               "method": moment.method, "coefficients": coefficients}
    return _write_table(args, "n,coefficient", enumerate(coefficients), payload)


def cmd_table_traces(args: argparse.Namespace) -> int:
    from . import mock
    from .partitions import PARTITION_CEILING

    _check_k(args)
    if args.max_j < 0:
        raise ConfigError("table traces needs --maxj >= 0")
    if args.max_j > PARTITION_CEILING:
        # Tr_j sums over the partitions of j; fail before building the family.
        raise WindowTooLargeError(
            f"--maxj {args.max_j} exceeds the enumeration ceiling {PARTITION_CEILING}"
        )
    if args.order < 1:
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
        str(j): list(
            map(str, mock.partition_trace(j, family.member, args.order, "phi", monomials).coeffs)
        )
        for j in range(args.max_j + 1)
    }
    payload = {"object": "trace_table", "k": args.k, "max_j": args.max_j,
               "order": args.order, "traces": traces}
    rows = ((j, n, c) for j, coefficients in traces.items() for n, c in enumerate(coefficients))
    return _write_table(args, "j,n,coefficient", rows, payload)


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    flags = {
        "--k": (args.k,) if args.k is not None else None,
        "--maxj": args.max_j,
        "--maxn": args.max_n,
        "--maxm": args.max_m,
        "--order": args.order,
    }
    if args.order is not None and args.order < 1:
        raise ConfigError("--order must be >= 1")
    for flag in ("--maxj", "--maxn", "--maxm"):
        if flags[flag] is not None and flags[flag] < 0:
            raise ConfigError(f"{flag} must be >= 0")
    total = failed = 0
    # Each suite's lines are printed as it finishes, so an error in a later
    # suite (exit 2) does not discard the results already computed.
    for results in verify.iter_suites(args.suite, flags):
        lines = []
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            detail = f" [{result.detail}]" if result.detail else ""
            lines.append(f"{status} {result.name}{detail}\n")
            failed += not result.passed
        _emit(lines, None)
        total += len(results)
    _emit([f"{total - failed}/{total} checks passed\n"], None)
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mockeis",
        description="Exact q-series computations for k-rank moments and their "
        "mock Eisenstein series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    f_parser = sub.add_parser("f", help="print one family member f_{k,j}")
    f_parser.set_defaults(handler=cmd_f)
    f_parser.add_argument("--k", type=int, required=True)
    f_parser.add_argument("--j", type=int, required=True)
    f_parser.add_argument("--order", type=int, default=30)
    f_parser.add_argument("--route", choices=ROUTES, default="recursionA")
    f_parser.add_argument("--format", dest="fmt", choices=("text", "json", "bfile"),
                          default="text")
    f_parser.add_argument("--out", default=None)
    f_parser.add_argument("--allow-k2", action="store_true")

    # Each table kind takes these and its own flags, and no other kind's.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--k", type=int, required=True)
    shared.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    shared.add_argument("--out", default=None)
    kinds = sub.add_parser("table", help="emit count/moment/trace tables").add_subparsers(
        dest="kind", required=True
    )
    nk = kinds.add_parser("Nk", parents=[shared], help="counts N_k(m, n)")
    nk.set_defaults(handler=cmd_table_nk)
    nk.add_argument("--maxm", dest="max_m", type=int, required=True)
    nk.add_argument("--maxn", dest="max_n", type=int, required=True)
    nk.add_argument("--allow-k2", action="store_true")
    moments = kinds.add_parser("moments", parents=[shared], help="k-rank moment R_{k,j}")
    moments.set_defaults(handler=cmd_table_moments)
    moments.add_argument("--j", type=int, required=True)
    moments.add_argument("--order", type=int, default=30)
    moments.add_argument("--method", choices=RANK_METHODS, default="direct")
    traces = kinds.add_parser("traces", parents=[shared], help="partition traces Tr_j")
    traces.set_defaults(handler=cmd_table_traces)
    traces.add_argument("--maxj", dest="max_j", type=int, required=True)
    traces.add_argument("--order", type=int, default=30)
    traces.add_argument("--route", choices=ROUTES, default="recursionA")
    traces.add_argument("--allow-k2", action="store_true")

    v_parser = sub.add_parser("verify", help="run a verification suite")
    v_parser.set_defaults(handler=cmd_verify)
    v_parser.add_argument("--suite", choices=SUITE_CHOICES, required=True)
    v_parser.add_argument("--k", type=int, default=None)
    v_parser.add_argument("--maxj", dest="max_j", type=int, default=None)
    v_parser.add_argument("--maxn", dest="max_n", type=int, default=None)
    v_parser.add_argument("--maxm", dest="max_m", type=int, default=None)
    v_parser.add_argument("--order", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _end_without_teardown(returned: list) -> None:
    """``atexit`` hook of :func:`entrypoint`: flush stdout and stderr, then end now.

    It acts only once :func:`main` has returned its code into ``returned``.
    ``os._exit`` skips module teardown, which would free every cached
    partition and series one by one, and the ``atexit`` handlers registered
    before this hook.  If a flush fails, the interpreter exits as usual.
    """
    if not returned:
        return
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except BrokenPipeError:
        os._exit(1)
    except (OSError, ValueError):
        return
    os._exit(returned[0])


def entrypoint() -> None:
    """Run :func:`main` as the whole process: no cyclic GC and no teardown.

    No command creates a reference cycle outside argparse's parser, so the
    collector would only walk the cached partitions and series, which hold
    none; with it off, memory still stays bounded (the tests check that a
    collection after each command finds no more than the parser alone
    leaves).  :func:`main` itself leaves the caller's GC as it found it.

    Once :func:`main` has returned, an ``atexit`` hook registered before it
    ran flushes stdout and stderr and calls ``os._exit``.  So a CLI process
    skips module teardown and the ``atexit`` handlers registered before this
    call; those registered later still run first.  A caller in the same
    process still gets ``SystemExit``, but its process then ends with this
    code at exit: programs call :func:`main`.  After an exception
    (argparse's usage errors included) the interpreter exits as usual, and
    the frozen heap leaves its shutdown collection nothing to walk.  A
    broken pipe exits 1 with no traceback, as the ``signal`` module's
    documentation advises for SIGPIPE.
    """
    gc.disable()
    returned: list = []
    atexit.register(_end_without_teardown, returned)
    try:
        returned.append(main())
    except BrokenPipeError:
        os._exit(1)  # teardown would only fail to flush stdout again
    finally:
        gc.freeze()
    sys.exit(returned[0])
