"""Command-line front end: solve semantics queries and convert formats.

``solve`` parses a model, characterizes the requested semantics
symbolically, and either counts the solutions, enumerates them, or
samples them uniformly.  ``convert`` translates between the statement
format and the network table format.  Counts and interpretations go to
stdout; diagnostics and timing stay on stderr so stdout remains
machine-readable.

Exit codes: 0 success, 1 input or usage error, 2 resource-limit abort
(the xor-elimination budget, overridable via ``BASS_NODE_BUDGET``, or a
condition nested past the recursion limit).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from . import formula as fmt
from . import semantics, solutions

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_LIMIT = 2

BUDGET_ENV = "BASS_NODE_BUDGET"


class InputError(Exception):
    """Anything wrong with the user's input or flags."""


@dataclass
class RunConfig:
    """One solve invocation: exactly one semantics, exactly one action."""

    input_path: str
    semantics: str
    action: str = "count"  # count | enumerate | sample
    input_format: str | None = None  # adf | bnet | None = by extension
    limit: int | None = None
    sample_size: int = 1
    seed: int = 0
    json_output: bool = False
    restrict_inputs: bool = True
    oracle_check: bool = False
    timing: bool = False


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _detect_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    if path.endswith(".adf"):
        return "adf"
    if path.endswith(".bnet"):
        return "bnet"
    raise InputError(
        "cannot detect the input format; use --format {adf,bnet}"
        if path == "-"
        else f"unknown extension on {path}; use --format {{adf,bnet}}"
    )


def _parse_model(text: str, input_format: str) -> fmt.Adf:
    if input_format == "adf":
        return fmt.parse_adf(text)
    return fmt.parse_bnet(text)


def _oracle_differential(adf: fmt.Adf, solset, config: RunConfig, err) -> None:
    from . import oracle  # only the hidden --oracle flag needs it
    expected = oracle.brute_semantics(adf, config.semantics)
    actual = set(solutions.enumerate_solutions(solset))
    if actual != expected:
        raise RuntimeError(
            f"oracle mismatch for {config.semantics}: "
            f"symbolic {len(actual)} vs reference {len(expected)} interpretations"
        )
    print(f"oracle check passed ({len(expected)} interpretations)", file=err)


def run(config: RunConfig, out=None, err=None) -> int:
    """Execute one solve; returns the process exit code."""
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        text = _read_input(config.input_path)
        input_format = _detect_format(config.input_path, config.input_format)
        adf = _parse_model(text, input_format)
    except (InputError, fmt.ParseError, fmt.FormatError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT
    except RecursionError as exc:  # a condition nested too deeply
        print(f"error: {exc}", file=err)
        return EXIT_LIMIT

    started = time.perf_counter()
    try:
        solset = semantics.solve(adf, config.semantics, restrict_inputs=config.restrict_inputs)
    except RuntimeError as exc:  # RecursionError from a condition nested too deeply
        print(f"error: {exc}", file=err)
        return EXIT_LIMIT

    total = solutions.count(solset)
    listed = None
    try:
        if config.action == "enumerate":
            listed = list(solutions.enumerate_solutions(solset, config.limit))
        elif config.action == "sample":
            listed = solutions.sample_uniform(solset, config.sample_size, config.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    if config.oracle_check:
        try:
            _oracle_differential(adf, solset, config, err)
        except (ValueError, RuntimeError) as exc:
            print(f"error: {exc}", file=err)
            return EXIT_INPUT

    if config.json_output:
        payload: dict = {"semantics": config.semantics, "count": total}
        if listed is not None:
            payload["solutions"] = [interp.as_dict() for interp in listed]
        payload["elapsed_ms"] = round(elapsed_ms, 3)
        print(json.dumps(payload), file=out)
    elif listed is not None:
        for interp in listed:
            print(interp.format_line(), file=out)
    else:
        print(total, file=out)

    if config.timing:
        print(f"time: {elapsed_ms:.1f} ms", file=err)
    return EXIT_OK


def convert(text: str, from_format: str, to_format: str, budget: int) -> str:
    """Translate between the two formats, preserving semantics."""
    adf = _parse_model(text, from_format)
    if to_format == "adf":
        return fmt.write_adf(adf)
    return fmt.write_bnet(adf, budget)


def _node_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return fmt.DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
        if value <= 0:
            raise ValueError
        return value
    except ValueError:
        raise InputError(f"{BUDGET_ENV} must be a positive integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adfsolve",
        description="Symbolic solver for abstract dialectical frameworks and Boolean networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="characterize, count, enumerate or sample solutions")
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
    solve_p.add_argument(
        "--no-input-restriction",
        action="store_true",
        help="disable the free-input search-space restriction",
    )
    solve_p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    solve_p.add_argument("--time", action="store_true", help="report elapsed time on stderr")

    convert_p = sub.add_parser("convert", help="translate between the adf and bnet formats")
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
        if args.command == "solve":
            if args.limit is not None and not args.enumerate:
                raise InputError("--limit only applies to --enumerate")
            if args.limit is not None and args.limit <= 0:
                raise InputError("--limit needs a positive count")
            if args.sample is not None and args.sample <= 0:
                raise InputError("--sample needs a positive count")
            action = "count"
            if args.enumerate:
                action = "enumerate"
            elif args.sample is not None:
                action = "sample"
            config = RunConfig(
                input_path=args.input,
                semantics=args.sem,
                action=action,
                input_format=args.format,
                limit=args.limit,
                sample_size=args.sample or 1,
                seed=args.seed,
                json_output=args.json,
                restrict_inputs=not args.no_input_restriction,
                oracle_check=args.oracle,
                timing=args.time,
            )
            return run(config)

        text = _read_input(args.input)
        from_format = _detect_format(args.input, args.from_format)
        print(convert(text, from_format, args.format, _node_budget()), end="")
        return EXIT_OK
    except (InputError, fmt.ParseError, fmt.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (fmt.RewriteBudgetError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
