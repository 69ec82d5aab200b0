"""Human-friendly polynomial syntax.

A tokenizer plus recursive-descent parser for integer Laurent polynomial
expressions in the variable t, e.g. "t^2-t+1", "t + t^-1 - 1",
"2(t-1)(t+1)", "3t^-2".  Torus knot polynomials may be named "T(a,b)".
"""

from __future__ import annotations

import re

from .errors import ValidationError, int_literal
from .polyalg import LaurentPoly, torus_knot_alexander

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(t)|(\^)|(\+)|(-)|(\*)|(\()|(\)))")

_TORUS_RE = re.compile(r"^T\(\s*(\d+)\s*,\s*(\d+)\s*\)$")

# Deepest parenthesis nesting parsed; each level takes three frames of the
# recursive descent, so a bound keeps deep input off the interpreter's
# recursion limit.
MAX_NESTING = 100


def _tokenize(text: str, path: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValidationError(
                f"{path}: unexpected character {text[pos:].strip()[0]!r} "
                f"at offset {pos}")
        pos = m.end()
        for kind, group in (("int", 1), ("t", 2), ("pow", 3), ("plus", 4),
                            ("minus", 5), ("star", 6), ("open", 7), ("close", 8)):
            if m.group(group):
                tokens.append((kind, m.group(group)))
                break
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], path: str):
        self.tokens = tokens
        self.pos = 0
        self.path = path
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self, kind: str) -> str:
        actual, text = self.tokens[self.pos]
        if actual != kind:
            raise ValidationError(
                f"{self.path}: expected {kind}, got {actual or 'end'}")
        self.pos += 1
        return text

    def parse_expr(self) -> LaurentPoly:
        sign = 1
        if self.peek() in ("plus", "minus"):
            if self.take(self.peek()) == "-":
                sign = -1
        out = self.parse_term()
        if sign < 0:
            out = -out
        while self.peek() in ("plus", "minus"):
            op = self.take(self.peek())
            term = self.parse_term()
            out = out + term if op == "+" else out - term
        return out

    def parse_term(self) -> LaurentPoly:
        out = self.parse_factor()
        while True:
            k = self.peek()
            if k == "star":
                self.take("star")
                out = out * self.parse_factor()
            elif k in ("int", "t", "open"):
                out = out * self.parse_factor()
            else:
                return out

    def parse_factor(self) -> LaurentPoly:
        k = self.peek()
        if k == "int":
            n = int_literal(self.take("int"), self.path)
            return LaurentPoly.from_dict({0: n})
        if k == "t":
            self.take("t")
            e = 1
            if self.peek() == "pow":
                self.take("pow")
                sign = 1
                if self.peek() == "minus":
                    self.take("minus")
                    sign = -1
                elif self.peek() == "plus":
                    self.take("plus")
                e = sign * int_literal(self.take("int"), self.path)
            return LaurentPoly.t_power(e)
        if k == "open":
            self.take("open")
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ValidationError(
                    f"{self.path}: parentheses nested deeper than {MAX_NESTING}")
            inner = self.parse_expr()
            self.take("close")
            self.depth -= 1
            return inner
        raise ValidationError(f"{self.path}: unexpected {k}")


def parse_poly(text: str, path: str = "polynomial expression") -> LaurentPoly:
    """Parse a polynomial expression or a T(a,b) torus knot name; a syntax
    error or an integer literal past the digit limit is rejected naming
    ``path``.

    >>> str(parse_poly("t^2 - t + 1"))
    't^2 - t + 1'
    >>> str(parse_poly("T(2,3)"))
    't - 1 + t^-1'
    """
    text = text.strip()
    m = _TORUS_RE.match(text)
    if m:
        return torus_knot_alexander(int_literal(m.group(1), path),
                                    int_literal(m.group(2), path))
    parser = _Parser(_tokenize(text, path), path)
    out = parser.parse_expr()
    parser.take("end")
    return out

