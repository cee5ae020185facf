"""Markovian process algebra toolkit: parse process terms, run the
layered transition rules, build the deduplicated state graph, export it.

Typical use:

    >>> from rosa_lts import parse_program, build_lts, to_text
    >>> env = parse_program("<a,0.3>.0||{a,c}<b,inf>.0")
    >>> print(to_text(build_lts(env)), end="")
    #0 [action] <a,0.3>.0||{a,c}b.0
    #1 [deadlock] 0||{a,c}<a,0.3>.0
    #0 -b,inf-> #1
    ...
"""

from .builder import (
    BuildConfig,
    Lts,
    LtsEdge,
    LtsNode,
    build_lts,
    stats,
)
from .canonical import canonical_key, canonicalize
from .errors import (
    DuplicateDefinition,
    LexError,
    ParseError,
    RosaError,
    UnboundVariable,
    UnguardedRecursion,
    ValidationError,
)
from .export import ExportOptions, to_dot, to_json, to_text
from .parser import parse_process_text, parse_program
from .process import (
    INF,
    NIL,
    DefinitionEnv,
    ExtChoice,
    IntChoice,
    Nil,
    Par,
    Prefix,
    ProbChoice,
    Process,
    Seq,
    Var,
    pretty_print,
)
from .semantics import (
    Action,
    NdBranch,
    NodeKind,
    Prob,
    TransitionLabel,
    action_successors,
    classify,
    nd_successors,
    prob_successors,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "BuildConfig",
    "DefinitionEnv",
    "DuplicateDefinition",
    "ExportOptions",
    "ExtChoice",
    "INF",
    "IntChoice",
    "LexError",
    "Lts",
    "LtsEdge",
    "LtsNode",
    "NIL",
    "NdBranch",
    "Nil",
    "NodeKind",
    "Par",
    "ParseError",
    "Prefix",
    "Prob",
    "ProbChoice",
    "Process",
    "RosaError",
    "Seq",
    "TransitionLabel",
    "UnboundVariable",
    "UnguardedRecursion",
    "ValidationError",
    "Var",
    "action_successors",
    "build_lts",
    "canonical_key",
    "canonicalize",
    "classify",
    "nd_successors",
    "parse_process_text",
    "parse_program",
    "prob_successors",
    "pretty_print",
    "stats",
    "to_dot",
    "to_json",
    "to_text",
]
