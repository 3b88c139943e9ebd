"""The handlers of ``mockeis table``: count, moment and trace tables.  Only
:func:`mockeis.cli.build_parser` for a ``table`` command imports them, and
:func:`mockeis.cli.main` has checked every flag before a handler runs."""

from __future__ import annotations

import argparse

from .cli import _emit
from .partitions import count_table


def cmd_table_nk(args: argparse.Namespace) -> int:
    """Write the table as text chunks, one per m, so that only one m's rows are held.

    The text is a head, the cells of every (m, n) joined by a separator,
    and a tail: the csv lines, or ``json.dumps`` of the payload whose
    ``entries`` are the [m, n, count] lists.
    """
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

    coefficients = list(map(str, fn.rank_moment(args.k, args.j, args.order, args.method).coeffs))
    payload = {"object": "moment_series", "k": args.k, "j": args.j, "order": args.order,
               "method": args.method, "coefficients": coefficients}
    return _write_table(args, "n,coefficient", enumerate(coefficients), payload)


def cmd_table_traces(args: argparse.Namespace) -> int:
    from . import mock
    from .wjets import member_exp

    family = mock.mock_eisenstein_family(
        args.k, max(2, args.max_j + args.max_j % 2), args.order, args.route, allow_k2=args.allow_k2
    )
    # sum_j Tr_j(phi, f) w^j = exp(2 sum_j f_j w^j/j!): the exponential formula.
    expo = member_exp(family.member, 2, max(1, args.max_j), args.order)
    traces = {str(j): list(map(str, expo.coeff(j).coeffs)) for j in range(args.max_j + 1)}
    payload = {"object": "trace_table", "k": args.k, "max_j": args.max_j,
               "order": args.order, "traces": traces}
    rows = ((j, n, c) for j, coefficients in traces.items() for n, c in enumerate(coefficients))
    return _write_table(args, "j,n,coefficient", rows, payload)


#: Each kind's help line and handler, for :func:`mockeis.cli.build_parser`.
KINDS = {"Nk": ("counts N_k(m, n)", cmd_table_nk),
         "moments": ("k-rank moment R_{k,j}", cmd_table_moments),
         "traces": ("partition traces Tr_j", cmd_table_traces)}
