"""Command-line front end: series tables, count tables, verification suites.

Exit codes: 0 success / all checks pass, 1 verification failure or a
broken stdout pipe, 2 usage or configuration error: a flag the command or
table kind does not take, a missing or out-of-range value, an empty
``--out``, or an ``--out`` file that cannot be written (opened only after
the work, so a failing command never creates or truncates it).  Rationals
are always serialized as "num/den" strings, never as floats; identical
configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

from .errors import ConfigError

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


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    flags = {"--k": None if args.k is None else (args.k,), "--maxj": args.max_j,
             "--maxn": args.max_n, "--maxm": args.max_m, "--order": args.order}
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


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given ``argv``, only the subcommand and table kind
    it names (the first tokens not starting with "-") get their flags: argparse
    reads no other subparser's, so ``argv`` parses and fails as with all flags."""
    named = None if argv is None else [arg for arg in argv if not arg.startswith("-")]

    def wanted(*path: str) -> bool:
        return named is None or named[: len(path)] == list(path)

    parser = argparse.ArgumentParser(
        prog="mockeis",
        description="Exact q-series computations for k-rank moments and their "
        "mock Eisenstein series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    f_parser = sub.add_parser("f", help="print one family member f_{k,j}")
    if wanted("f"):
        f_parser.set_defaults(handler=cmd_f)
        f_parser.add_argument("--k", type=int, required=True)
        f_parser.add_argument("--j", type=int, required=True)
        f_parser.add_argument("--order", type=int, default=30)
        f_parser.add_argument("--route", choices=ROUTES, default="recursionA")
        f_parser.add_argument("--format", dest="fmt", choices=("text", "json", "bfile"),
                              default="text")
        f_parser.add_argument("--out", default=None)
        f_parser.add_argument("--allow-k2", action="store_true")

    table = sub.add_parser("table", help="emit count/moment/trace tables")
    if wanted("table"):
        from . import tables

        kinds = table.add_subparsers(dest="kind", required=True)
        nk = kinds.add_parser("Nk", help="counts N_k(m, n)")
        moments = kinds.add_parser("moments", help="k-rank moment R_{k,j}")
        traces = kinds.add_parser("traces", help="partition traces Tr_j")
        # Each table kind takes these and its own flags, and no other kind's.
        for kind, kind_parser in (("Nk", nk), ("moments", moments), ("traces", traces)):
            if wanted("table", kind):
                kind_parser.add_argument("--k", type=int, required=True)
                kind_parser.add_argument("--format", dest="fmt", choices=("csv", "json"),
                                         default="csv")
                kind_parser.add_argument("--out", default=None)
        if wanted("table", "Nk"):
            nk.set_defaults(handler=tables.cmd_table_nk)
            nk.add_argument("--maxm", dest="max_m", type=int, required=True)
            nk.add_argument("--maxn", dest="max_n", type=int, required=True)
            nk.add_argument("--allow-k2", action="store_true")
        if wanted("table", "moments"):
            moments.set_defaults(handler=tables.cmd_table_moments)
            moments.add_argument("--j", type=int, required=True)
            moments.add_argument("--order", type=int, default=30)
            moments.add_argument("--method", choices=RANK_METHODS, default="direct")
        if wanted("table", "traces"):
            traces.set_defaults(handler=tables.cmd_table_traces)
            traces.add_argument("--maxj", dest="max_j", type=int, required=True)
            traces.add_argument("--order", type=int, default=30)
            traces.add_argument("--route", choices=ROUTES, default="recursionA")
            traces.add_argument("--allow-k2", action="store_true")

    v_parser = sub.add_parser("verify", help="run a verification suite")
    if wanted("verify"):
        v_parser.set_defaults(handler=cmd_verify)
        v_parser.add_argument("--suite", choices=SUITE_CHOICES, required=True)
        v_parser.add_argument("--k", type=int, default=None)
        v_parser.add_argument("--maxj", dest="max_j", type=int, default=None)
        v_parser.add_argument("--maxn", dest="max_n", type=int, default=None)
        v_parser.add_argument("--maxm", dest="max_m", type=int, default=None)
        v_parser.add_argument("--order", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        if getattr(args, "out", None) == "":
            raise ConfigError("--out needs a file name")
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
