"""Command line front end: read a process file, build the transition
system, write one of the three output formats.

Exit codes: 0 success (truncated builds included, with a warning on
stderr); 1 a failed read, or a failed write to the output file or to
stdout, which may leave part of the output written; 2 parse or
validation errors, and
states nested deeper than the recursive walkers can follow; 3 unbound
variables or unguarded recursion. Diagnostics go to stderr only, so the
selected format is the only thing on stdout. `main` pauses the cyclic
garbage collector and restores it on return: a run makes no reference
cycles, so a collection would free nothing.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from io import TextIOBase
from pathlib import Path

from .builder import STATE_TEXT_BUDGET, BuildConfig, Lts, build_lts
from .canonical import check
from .errors import (
    DuplicateDefinition,
    ParseError,
    UnboundVariable,
    UnguardedRecursion,
    ValidationError,
)
from .export import NODE_LABELS, ExportOptions, to_dot, to_json, to_text
from .parser import parse_program
from .process import DefinitionEnv

# For a state nested deeper than the recursion limit allows: the
# canonicalizer recurses once per tree level. Parsing has no limit.
_STATE_TOO_DEEP = "error: a state is nested too deeply to build"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("must be a positive integer")


# Built on the first call and kept: parsing does not change a parser,
# and building one costs ten times a parse.
@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosa-lts",
        description=(
            "Build the labelled transition system of a process term and "
            "print it as text, Graphviz DOT or JSON."
        ),
        epilog=(
            "Exit codes: 0 success (also truncated builds, which warn on "
            "stderr); 1 read/write error; 2 parse/validation error, or a "
            "state nested too deeply; 3 unbound variable or unguarded "
            "recursion."
        ),
    )
    parser.add_argument(
        "input",
        help="process definition file, or '-' to read stdin",
    )
    parser.add_argument(
        "--format",
        choices=("text", "dot", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the output here instead of stdout",
    )
    parser.add_argument(
        "--root",
        metavar="NAME",
        help="analyse this definition instead of the default root",
    )
    parser.add_argument(
        "--max-states",
        type=_positive_int,
        default=BuildConfig.max_states,
        metavar="N",
        help=f"state limit before truncation (default: {BuildConfig.max_states})",
    )
    parser.add_argument(
        "--labels",
        choices=NODE_LABELS,
        default="both",
        help="node labelling in text/DOT output (default: both)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="check every definition the root reaches; print nothing on success",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    try:
        if args.input == "-":
            data = sys.stdin.buffer.read()
        else:
            data = Path(args.input).read_bytes()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    # An invalid byte becomes a lone surrogate, which no token matches:
    # the lexer reports it at its line and column under any locale.
    # Each stage's input is dropped once the next holds what it needs:
    # the bytes after decoding, the text after parsing and the
    # environment after the build.
    source = data.decode("utf-8", "surrogateescape")
    del data

    try:
        env = parse_program(source)
    except (ParseError, ValidationError, DuplicateDefinition) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    del source

    if args.root is not None:
        if args.root not in env.bindings:
            names = ", ".join(sorted(env.bindings))
            print(f"error: {UnboundVariable(args.root)}; defined: {names}",
                  file=sys.stderr)
            return 3
        env = DefinitionEnv(bindings=env.bindings, root=args.root)

    try:
        if args.check:
            check(env)
            return 0
        lts = build_lts(env, BuildConfig(max_states=args.max_states))
        del env
    except (UnboundVariable, UnguardedRecursion) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print(_STATE_TOO_DEEP, file=sys.stderr)
        return 2

    if lts.truncated:
        limit = f"{len(lts.nodes)} states"
        if len(lts.nodes) < args.max_states:
            limit += (", whose printed forms passed the size budget of "
                      f"{STATE_TEXT_BUDGET} characters")
        print(
            f"warning: stopped at {limit}; "
            "output is a truncated prefix of the full system",
            file=sys.stderr,
        )

    # The file is opened after the build, so a failed build creates none;
    # a write that fails may leave part of the output in it.
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as out:
                _export(lts, args, out)
        else:
            _export(lts, args, sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        if args.out:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        else:
            print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
            _discard_stdout()
        return 1
    return 0


def _export(lts: Lts, args: argparse.Namespace, file: TextIOBase) -> None:
    """Write the selected format to ``file``, chunk by chunk."""
    if args.format == "dot":
        to_dot(lts, ExportOptions(node_labels=args.labels), file=file)
    elif args.format == "json":
        to_json(lts, file=file)
        file.write("\n")
    else:
        to_text(lts, ExportOptions(node_labels=args.labels), file=file)


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the
    interpreter's final flush of what stdout still buffers cannot fail
    a second time (as the SIGPIPE note in the `signal` module's
    documentation shows)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return run(build_arg_parser().parse_args(argv))
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
