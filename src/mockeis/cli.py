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

from .bernoulli import bernoulli
from .errors import ConfigError
from .flags import FLAGS, check


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


def cmd_f(args: argparse.Namespace) -> int:
    from . import mock
    from .qseries import QSeries

    series = QSeries.zero(args.order) if args.j % 2 else mock.mock_eisenstein_family(
        args.k, args.j, args.order, args.route, allow_k2=args.allow_k2).member(args.j)
    if args.fmt == "text":
        _emit([str(series) + "\n"], args.out)
    elif args.fmt == "json":
        import json

        payload = {"object": "qseries", "k": args.k, "j": args.j, "order": args.order,
                   "coefficients": list(map(str, series.coeffs))}
        if args.k == 2:
            payload["extrapolated"] = True
        _emit([json.dumps(payload) + "\n"], args.out)
    else:
        shifted = series + bernoulli(args.j) / (2 * args.j)
        n = mock.first_fractional(shifted)
        if n is not None:
            raise ConfigError(
                "bfile export needs an integral series; "
                f"coefficient of q^{n} is {shifted.coeff(n)}"
            )
        lines = "".join(f"{n} {c}\n" for n, c in enumerate(shifted.nums))
        _emit([lines], args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    flags = {option: getattr(args, flag.dest) for option, flag in FLAGS["verify"].items()}
    del flags["--suite"]
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
    """The command-line parser, its flags added from :data:`mockeis.flags.FLAGS`.  Given
    ``argv``, only the subcommand and table kind it names (the first tokens not starting
    with "-") get their flags: argparse reads no other subparser's, so ``argv`` parses
    and fails as with all flags."""
    named = None if argv is None else [arg for arg in argv if not arg.startswith("-")]

    def wanted(scope: str) -> bool:
        return named is None or named[: len(scope.split())] == scope.split()

    parser = argparse.ArgumentParser(prog="mockeis", description="Exact q-series computations "
                                     "for k-rank moments and their mock Eisenstein series.")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {"f": (sub.add_parser("f", help="print one family member f_{k,j}"), cmd_f)}
    table = sub.add_parser("table", help="emit count/moment/trace tables")
    parsers["verify"] = (sub.add_parser("verify", help="run a verification suite"), cmd_verify)
    if wanted("table"):
        from . import tables

        kinds = table.add_subparsers(dest="kind", required=True)
        for kind, (help, handler) in tables.KINDS.items():
            parsers[f"table {kind}"] = (kinds.add_parser(kind, help=help), handler)
    for scope, (scope_parser, handler) in parsers.items():
        if wanted(scope):
            scope_parser.set_defaults(handler=handler, scope=scope)
            for option, flag in FLAGS[scope].items():
                scope_parser.add_argument(option, dest=flag.dest, **flag.kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        if getattr(args, "out", None) == "":
            raise ConfigError("--out needs a file name")
        for option, flag in FLAGS[args.scope].items():
            check(args.scope, option, getattr(args, flag.dest))
        extrapolated = "--allow-k2" in FLAGS[args.scope] and args.k == 2
        if extrapolated and not args.allow_k2:
            raise ConfigError("k = 2 is an extrapolation; pass --allow-k2 to compute it")
        code = args.handler(args)
        if extrapolated:
            print("note: k = 2 output is extrapolated beyond the verified range k >= 3",
                  file=sys.stderr)
        return code
    except ValueError as exc:
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
