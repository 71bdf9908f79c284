"""Command-line front end: solve semantics queries and convert formats.

``solve`` parses a model, characterizes the requested semantics
symbolically, and either counts the solutions, enumerates them, or
samples them uniformly.  ``convert`` translates between the statement
format and the network table format.  Counts and interpretations go to
stdout; diagnostics and timing stay on stderr so stdout remains
machine-readable.

Each subcommand is one function of the parsed arguments, and ``main``
alone maps exceptions to exit codes: 0 success, 1 input or usage error,
2 resource-limit abort (the xor-elimination budget of
``formula.DEFAULT_NODE_BUDGET`` nodes, a condition nested past the
recursion limit, or memory exhausted).  A reader that closes stdout
early (``| head``) ends the run with exit code 1 and no traceback.

A query that prints only a count, ``--count`` or the default action, with
``--json`` or ``--oracle`` or without, is solved in the layout that
``encoding.fold_layout`` picks: the declared order or the reversed one.
Listings and samples keep the declared layout, whose variable order is
their order, so no output changes with the choice.

Start-up is part of every query's cost, so the module imports only what
every run needs: ``json`` is imported for ``--json`` alone and the
brute-force ``oracle`` for ``--oracle`` alone.

Every listing, plain or ``--json``, is written from the rows of the
walkers in ``solutions`` as they are drawn, so no solution costs an
interpretation object and memory does not grow with the listing.  A row
is a solution's listing line as UTF-8 bytes; ``--json`` fills one bytes
template per layout from it.  Rows go out in chunks of ``CHUNK_BYTES //
len(row)``, each decoded once and written with one system call even when
stdout is unbuffered (``PYTHONUNBUFFERED=1``).  The chunks stay well
below a pipe's capacity: an unbuffered write that a closing reader cuts
short is not an error, so one write of the whole listing could lose the
closed-pipe exit code.  ``--oracle`` checks before anything is printed.

``--time`` and ``elapsed_ms`` run from the start of solving until what
the query prints is ready: they include an ``--oracle`` check, a count
only if it is printed, and a listing's writes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Iterator
from itertools import chain, islice

from . import formula as fmt
from . import encoding, semantics, solutions

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_LIMIT = 2

# bytes per write of a listing, a quarter of a Linux pipe's default capacity
CHUNK_BYTES = 16384


class InputError(Exception):
    """Anything wrong with the user's input or flags, or a failed oracle check."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as other input errors
    do, instead of argparse's 2, which is kept for resource limits."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _read_model(path: str, input_format: str | None) -> fmt.Adf:
    """Parse a model file, or stdin for ``-``; the format defaults to the extension."""
    try:
        if path == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                raw = handle.read()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if input_format is None:
        if path.endswith(".adf"):
            input_format = "adf"
        elif path.endswith(".bnet"):
            input_format = "bnet"
        elif path == "-":
            raise InputError("cannot detect the input format; use --format {adf,bnet}")
        else:
            raise InputError(f"unknown extension on {path}; use --format {{adf,bnet}}")
    if input_format == "adf":
        return fmt.parse_adf(text)
    return fmt.parse_bnet(text)


def _oracle_check(adf: fmt.Adf, solset: semantics.SolutionSet, sem: str) -> None:
    from . import oracle  # only the hidden --oracle flag needs it

    try:
        expected = oracle.brute_semantics(adf, sem)
    except ValueError as exc:  # past the brute-force size cap
        raise InputError(str(exc)) from None
    actual = set(solutions.enumerate_solutions(solset))
    if actual != expected:
        raise InputError(
            f"oracle mismatch for {sem}: "
            f"symbolic {len(actual)} vs reference {len(expected)} interpretations"
        )
    print(f"oracle check passed ({len(expected)} interpretations)", file=sys.stderr)


def _solve(args: argparse.Namespace) -> None:
    if args.limit is not None and not args.enumerate:
        raise InputError("--limit only applies to --enumerate")
    if args.limit is not None and args.limit <= 0:
        raise InputError("--limit needs a positive count")
    if args.sample is not None and args.sample <= 0:
        raise InputError("--sample needs a positive count")
    adf = _read_model(args.input, args.format)

    started = time.perf_counter()
    listing = args.enumerate or args.sample is not None
    # a count is the same in every layout; a listing's order follows its layout
    layout = None if listing else encoding.fold_layout(adf)
    solset = semantics.solve(adf, args.sem, layout)
    if args.oracle:
        _oracle_check(adf, solset, args.sem)
    total = solutions.count(solset) if args.json or not listing else None
    head = tail = ""  # the JSON envelope is written around a listing, or after a count
    if args.json:
        import json  # only --json needs it

        tail = json.dumps({"semantics": args.sem, "count": total})[:-1]
    if listing:
        if args.enumerate:
            rows = islice(solutions._enumerate_rows(solset), args.limit)
        else:
            rows = solutions._sample_rows(solset, args.sample, args.seed)
        if args.json:
            rows, head, tail = _json_objects(solset.layout, rows), tail + ', "solutions": [', "]"
        else:
            rows = map(bytes, rows)  # each walk reuses its row
        try:
            _write_rows(rows, head)
        except ValueError as exc:  # the sampled set is empty
            raise InputError(str(exc)) from None
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    if args.json:
        print(f'{tail}, "elapsed_ms": {json.dumps(round(elapsed_ms, 3))}}}')
    elif not listing:
        print(total)

    if args.time:
        print(f"time: {elapsed_ms:.1f} ms", file=sys.stderr)


def _json_objects(layout: encoding.VarLayout, rows: Iterator[bytearray]) -> Iterator[bytes]:
    """Each row as the object ``json.dumps`` writes for its interpretation,
    after ``, `` but the first, filled into one bytes template per layout."""
    import json

    fields = [json.dumps(name).replace("%", "%%") + ': "%c"' for name in layout.names]
    template = ("{" + ", ".join(fields) + "}").encode()
    objects = map(template.__mod__, map(layout._values, rows))
    return chain(islice(objects, 1), map(b", ".__add__, objects))


def _write_rows(rows: Iterator[bytes], head: str = "") -> None:
    """Write ``head`` and the rows, about ``CHUNK_BYTES`` per write.  A row is
    drawn before anything is written, so an empty sampled set writes nothing."""
    first = next(rows, b"")
    step = max(1, CHUNK_BYTES // (len(first) or 1))
    chunk = head.encode() + first + b"".join(islice(rows, step - 1))
    while chunk:
        sys.stdout.write(chunk.decode())
        chunk = b"".join(islice(rows, step))


def _convert(args: argparse.Namespace) -> None:
    adf = _read_model(args.input, args.from_format)
    if args.format == "adf":
        print(fmt.write_adf(adf), end="")
    else:
        print(fmt.write_bnet(adf), end="")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adfsolve",
        description="Symbolic solver for abstract dialectical frameworks and Boolean networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="characterize, count, enumerate or sample solutions")
    solve_p.set_defaults(handler=_solve)
    solve_p.add_argument("input", nargs="?", default="-", help="model file, or - for stdin")
    solve_p.add_argument(
        "--sem",
        required=True,
        choices=list(semantics.SEMANTICS),
        help="semantics to solve",
    )
    action = solve_p.add_mutually_exclusive_group()
    action.add_argument("--count", action="store_true", help="print the solution count (default)")
    action.add_argument("--enumerate", action="store_true", help="print one solution per line")
    action.add_argument("--sample", type=int, metavar="N", help="print N uniform samples")
    solve_p.add_argument("--limit", type=int, help="stop enumeration after this many solutions")
    solve_p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    solve_p.add_argument("--format", choices=["adf", "bnet"], help="input format override")
    solve_p.add_argument("--json", action="store_true", help="machine-readable output")
    solve_p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    solve_p.add_argument("--time", action="store_true", help="report elapsed time on stderr")

    convert_p = sub.add_parser("convert", help="translate between the adf and bnet formats")
    convert_p.set_defaults(handler=_convert)
    convert_p.add_argument("input", nargs="?", default="-", help="model file, or - for stdin")
    convert_p.add_argument(
        "--format",
        required=True,
        choices=["adf", "bnet"],
        help="target format",
    )
    convert_p.add_argument(
        "--from",
        dest="from_format",
        choices=["adf", "bnet"],
        help="input format override",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.handler(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
    except BrokenPipeError:
        # the reader closed stdout; the recipe from the "Note on SIGPIPE" in
        # the signal module docs: point stdout at devnull so that the final
        # flush cannot fail again, and exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_INPUT
    except MemoryError:
        # matched by its name alone, before any tuple of classes is built:
        # with memory exhausted, building one raises again
        message = "out of memory"
    except (InputError, fmt.ParseError, fmt.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # RecursionError is a RuntimeError
    except (fmt.RewriteBudgetError, RuntimeError) as exc:
        message = str(exc)
    else:
        return EXIT_OK
    # printed once the handler has ended, because until then the traceback
    # keeps the solver's frames and the memory they hold
    print(f"error: {message}", file=sys.stderr)
    return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
