"""Reference lexer: one anchored match per token, positions kept.

The scanner that `rosa_lts.parser._scan` replaced with one ``findall``
per line and positions computed only for diagnostics. It walks the
source with ``pattern.match(source, pos)``, records every token's line
and column as it goes, and raises `LexError` where no alternative
matches, so the lexer law in test_parser_properties.py holds the two to
equal kinds, lexemes, positions and errors.
"""

import re

from rosa_lts.errors import LexError
from rosa_lts.process import INF_KEYWORD

# `skip` and `newline` yield no token. Digits and letters are ASCII
# only: other Unicode digits and letters begin no token.
TOKEN_RE = re.compile(
    r"(?P<skip>[ \t\r]+|#[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\|\||[.;\-+*<>,{}()=])"
)


def reference_scan(source, first_line):
    """The tokens of ``source`` as four parallel lists: kinds, lexemes,
    1-based lines (the first numbered ``first_line``) and columns."""
    kinds, lexemes, lines, columns = scan = ([], [], [], [])
    match = TOKEN_RE.match
    line = first_line
    line_start = pos = 0
    n = len(source)
    while pos < n:
        m = match(source, pos)
        if m is None:
            raise LexError(line, pos - line_start + 1, source[pos])
        end = m.end()
        group = m.lastgroup
        if group == "newline":
            line += 1
            line_start = end
        elif group != "skip":
            text = m.group()
            if group == "op" or text == "0" or text == INF_KEYWORD:
                group = text
            kinds.append(group)
            lexemes.append(text)
            lines.append(line)
            columns.append(pos - line_start + 1)
        pos = end
    return scan
