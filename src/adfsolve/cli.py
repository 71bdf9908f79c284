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
``formula.DEFAULT_NODE_BUDGET`` nodes, or a condition nested past the
recursion limit).  A reader that closes stdout early (``| head``) ends
the run with exit code 1 and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import formula as fmt
from . import semantics, solutions

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_LIMIT = 2


class InputError(Exception):
    """Anything wrong with the user's input or flags, or a failed oracle check."""


def _read_model(path: str, input_format: str | None) -> fmt.Adf:
    """Parse a model file, or stdin for ``-``; the format defaults to the extension."""
    try:
        if path == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
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
    solset = semantics.solve(adf, args.sem)
    total = solutions.count(solset)
    listed = None
    if args.enumerate:
        listed = list(solutions.enumerate_solutions(solset, args.limit))
    elif args.sample is not None:
        try:
            listed = solutions.sample_uniform(solset, args.sample, args.seed)
        except ValueError as exc:  # the solution set is empty
            raise InputError(str(exc)) from None
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    if args.oracle:
        _oracle_check(adf, solset, args.sem)

    if args.json:
        payload: dict = {"semantics": args.sem, "count": total}
        if listed is not None:
            payload["solutions"] = [interp.as_dict() for interp in listed]
        payload["elapsed_ms"] = round(elapsed_ms, 3)
        print(json.dumps(payload))
    elif listed is not None:
        sys.stdout.writelines([interp.format_line() + "\n" for interp in listed])
    else:
        print(total)

    if args.time:
        print(f"time: {elapsed_ms:.1f} ms", file=sys.stderr)


def _convert(args: argparse.Namespace) -> None:
    adf = _read_model(args.input, args.from_format)
    if args.format == "adf":
        print(fmt.write_adf(adf), end="")
    else:
        print(fmt.write_bnet(adf), end="")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _build_parser().parse_args(argv)
    try:
        args.handler(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
    except BrokenPipeError:
        # the reader closed stdout; the recipe from the "Note on SIGPIPE" in
        # the signal module docs: point stdout at devnull so that the final
        # flush cannot fail again, and exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_INPUT
    except (InputError, fmt.ParseError, fmt.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (fmt.RewriteBudgetError, RuntimeError) as exc:  # RecursionError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
