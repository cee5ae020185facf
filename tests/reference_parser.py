"""Reference parser: one recursive method per precedence level.

The recursive-descent parser that `rosa_lts.parser._Parser` replaced
with one loop over an explicit stack of open parentheses. It reads the
same tokens through the same helpers (`expect`, `fail`, the literals),
so the differential law in test_parser_properties.py holds the two to
equal trees and equal errors. Each parenthesis level costs it four
Python frames, so it is for shallow input only.
"""

from rosa_lts.parser import IDENT, EOF, _Parser
from rosa_lts.process import (
    INF,
    NIL,
    ExtChoice,
    IntChoice,
    Par,
    Prefix,
    ProbChoice,
    Process,
    Seq,
    Var,
)


class ReferenceParser(_Parser):
    def parse_full_process(self) -> Process:
        p = self.parse_seq()
        if self.kinds[self.pos] != EOF:
            raise self.fail("an operator or end of input")
        return p

    def parse_seq(self) -> Process:
        operands = [self.parse_par()]
        while self.kinds[self.pos] == ";":
            self.pos += 1
            operands.append(self.parse_par())
        p = operands.pop()
        while operands:
            p = Seq(operands.pop(), p)
        return p

    def parse_par(self) -> Process:
        left = self.parse_choice()
        kinds = self.kinds
        while kinds[self.pos] == "||":
            self.pos += 1
            self.expect("{", "'{' after '||'")
            names: list[str] = []
            if kinds[self.pos] == IDENT:
                names.append(self.expect(IDENT, "an action name"))
                while kinds[self.pos] == ",":
                    self.pos += 1
                    names.append(self.expect(IDENT, "an action name"))
            self.expect("}", "'}' closing the synchronization set")
            left = Par(frozenset(names), left, self.parse_choice())
        return left

    def parse_choice(self) -> Process:
        left = self.parse_prefix()
        kinds = self.kinds
        while True:
            kind = kinds[self.pos]
            if kind == "-":
                self.pos += 1
                left = IntChoice(left, self.parse_prefix())
            elif kind == "+":
                self.pos += 1
                left = ExtChoice(left, self.parse_prefix())
            elif kind == "*":
                self.pos += 1
                self.expect("{", "'{' after '*'")
                prob = self.parse_probability()
                self.expect("}", "'}' after the probability")
                left = ProbChoice(prob, left, self.parse_prefix())
            else:
                return left

    def parse_prefix(self) -> Process:
        kinds = self.kinds
        lexemes = self.lexemes
        heads: list[tuple[str, float]] = []
        while True:
            pos = self.pos
            kind = kinds[pos]
            if kind == IDENT:
                name = lexemes[pos]
                if kinds[pos + 1] == ".":
                    heads.append((name, INF))
                    self.pos = pos + 2
                    continue
                self.pos = pos + 1
                if self.defined is None or name in self.defined:
                    p: Process = Var(name)
                else:
                    p = Prefix(name, INF, NIL)
            elif kind == "<":
                self.pos = pos + 1
                action = self.expect(IDENT, "an action name")
                self.expect(",", "',' between action and rate")
                rate = self.parse_rate()
                self.expect(">", "'>' closing the rated action")
                heads.append((action, rate))
                if kinds[self.pos] == ".":
                    self.pos += 1
                    continue
                p = NIL
            elif kind == "0":
                self.pos = pos + 1
                p = NIL
            elif kind == "(":
                self.pos = pos + 1
                p = self.parse_seq()
                self.expect(")", "')'")
            else:
                raise self.fail("a process")
            for action, rate in reversed(heads):
                p = Prefix(action, rate, p)
            return p
