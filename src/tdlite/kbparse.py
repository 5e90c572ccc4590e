"""Concrete syntax for knowledge base files.

The file format has three mandatory sections::

    SIG
      concept Adult
      global role Name
      local role Attends
      individual John
    TBOX
      Adult SUB Person
    ABOX
      Adult(John)@1
      NOT Name(p1, Marc)@0

Unary operators bind tighter than AND, AND tighter than OR; SUB is a
non-associative top-level separator.  `#` starts a line comment.
"""

from __future__ import annotations

from .kb import (
    AlwF,
    AlwP,
    And,
    Assertion,
    AtLeast,
    Atomic,
    Bottom,
    Concept,
    ConceptAssertion,
    ConceptInclusion,
    KnowledgeBase,
    Not,
    NextF,
    NextP,
    Or,
    Role,
    RoleAssertion,
    Signature,
    SomeF,
    SomeP,
    Top,
)
from .record import Record


class KbSyntaxError(ValueError):
    """Parse failure with a 1-based source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind = kind  # NAME, INT, SYM, EOF
        self.text = text
        self.line = line
        self.col = col


_KEYWORDS = {
    "SIG", "TBOX", "ABOX", "SUB", "TOP", "BOT", "NOT", "AND", "OR",
    "X", "Y", "SOMF", "SOMP", "ALWF", "ALWP",
    "concept", "role", "global", "local", "individual",
}

_UNARY_OPS = {
    "NOT": Not,
    "X": NextF,
    "Y": NextP,
    "SOMF": SomeF,
    "SOMP": SomeP,
    "ALWF": AlwF,
    "ALWP": AlwP,
}


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if text.startswith(">=", i):
            toks.append(Token("SYM", ">=", line, start_col))
            i += 2
            col += 2
            continue
        if ch in "(),@-":
            toks.append(Token("SYM", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise KbSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str) -> "KbSyntaxError":
        t = self.peek()
        return KbSyntaxError(message, t.line, t.col)

    def expect_keyword(self, kw: str) -> Token:
        t = self.peek()
        if t.kind != "NAME" or t.text != kw:
            raise self.fail(f"expected {kw!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def expect_sym(self, sym: str) -> Token:
        t = self.peek()
        if t.kind != "SYM" or t.text != sym:
            raise self.fail(f"expected {sym!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def expect_name(self, what: str) -> str:
        t = self.peek()
        if t.kind != "NAME" or t.text in _KEYWORDS:
            raise self.fail(f"expected {what}, found {t.text or 'end of input'!r}")
        return self.next().text

    def at_keyword(self, *kws: str) -> bool:
        t = self.peek()
        return t.kind == "NAME" and t.text in kws

    # --- concepts ---

    def concept(self) -> Concept:
        c = self.and_level()
        while self.at_keyword("OR"):
            self.next()
            c = Or(c, self.and_level())
        return c

    def and_level(self) -> Concept:
        c = self.unary_level()
        while self.at_keyword("AND"):
            self.next()
            c = And(c, self.unary_level())
        return c

    def unary_level(self) -> Concept:
        t = self.peek()
        if t.kind == "NAME" and t.text in _UNARY_OPS:
            self.next()
            return _UNARY_OPS[t.text](self.unary_level())
        return self.atom()

    def atom(self) -> Concept:
        t = self.peek()
        if t.kind == "SYM" and t.text == "(":
            self.next()
            c = self.concept()
            self.expect_sym(")")
            return c
        if t.kind == "SYM" and t.text == ">=":
            self.next()
            q_tok = self.peek()
            if q_tok.kind != "INT":
                raise self.fail("expected a cardinality after '>='")
            self.next()
            return AtLeast(int(q_tok.text), self.role())
        if t.kind == "NAME":
            if t.text == "TOP":
                self.next()
                return Top()
            if t.text == "BOT":
                self.next()
                return Bottom()
            if t.text not in _KEYWORDS:
                self.next()
                return Atomic(t.text)
        raise self.fail(f"expected a concept, found {t.text or 'end of input'!r}")

    def role(self) -> Role:
        name = self.expect_name("a role name")
        t = self.peek()
        if t.kind == "SYM" and t.text == "-":
            self.next()
            return Role(name, True)
        return Role(name)

    # --- sections ---

    def signed_int(self) -> int:
        neg = False
        t = self.peek()
        if t.kind == "SYM" and t.text == "-":
            self.next()
            neg = True
        t = self.peek()
        if t.kind != "INT":
            raise self.fail("expected a timestamp")
        self.next()
        value = int(t.text)
        return -value if neg else value

    def kb(self) -> KnowledgeBase:
        self.expect_keyword("SIG")
        concepts: set[str] = set()
        global_roles: set[str] = set()
        local_roles: set[str] = set()
        individuals: set[str] = set()
        while self.at_keyword("concept", "global", "local", "individual"):
            kw = self.next().text
            if kw == "concept":
                concepts.add(self.expect_name("a concept name"))
            elif kw == "individual":
                individuals.add(self.expect_name("an individual name"))
            else:
                self.expect_keyword("role")
                name = self.expect_name("a role name")
                (global_roles if kw == "global" else local_roles).add(name)

        self.expect_keyword("TBOX")
        tbox: list[ConceptInclusion] = []
        while not self.at_keyword("ABOX"):
            lhs = self.concept()
            self.expect_keyword("SUB")
            rhs = self.concept()
            tbox.append(ConceptInclusion(lhs, rhs))

        self.expect_keyword("ABOX")
        abox: list[Assertion] = []
        while self.peek().kind != "EOF":
            positive = True
            if self.at_keyword("NOT"):
                self.next()
                positive = False
            name = self.expect_name("a concept or role name")
            self.expect_sym("(")
            first = self.expect_name("an individual name")
            second = None
            if self.peek().kind == "SYM" and self.peek().text == ",":
                self.next()
                second = self.expect_name("an individual name")
            self.expect_sym(")")
            self.expect_sym("@")
            n = self.signed_int()
            if second is None:
                abox.append(ConceptAssertion(positive, name, first, n))
            else:
                abox.append(RoleAssertion(positive, name, first, second, n))

        sig = Signature(
            frozenset(concepts),
            frozenset(global_roles),
            frozenset(local_roles),
            frozenset(individuals),
        )
        return KnowledgeBase(sig, tuple(tbox), tuple(abox))


def parse_kb(text: str) -> KnowledgeBase:
    parser = _Parser(tokenize(text))
    kb = parser.kb()
    t = parser.peek()
    if t.kind != "EOF":
        raise KbSyntaxError(f"unexpected trailing input {t.text!r}", t.line, t.col)
    return kb


# --- printing ---

# precedence levels: 0 = OR, 1 = AND, 2 = unary/atom
_UNARY_NAMES = {
    Not: "NOT",
    NextF: "X",
    NextP: "Y",
    SomeF: "SOMF",
    SomeP: "SOMP",
    AlwF: "ALWF",
    AlwP: "ALWP",
}


def print_concept(c: Concept, level: int = 0) -> str:
    """The text of a concept at a precedence level, parenthesized when
    its operator binds more loosely.  A walk with an explicit stack of
    pending text and (concept, level) pairs, so nesting depth is not
    bounded by the recursion limit."""
    parts: list[str] = []
    stack: list[object] = [(c, level)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        n, level = item
        if isinstance(n, Top):
            parts.append("TOP")
        elif isinstance(n, Bottom):
            parts.append("BOT")
        elif isinstance(n, Atomic):
            parts.append(n.name)
        elif isinstance(n, AtLeast):
            s = f">= {n.q} {n.role}"
            parts.append(f"({s})" if level > 1 else s)
        elif isinstance(n, (Or, And)):
            op, left, right, loosest = (" OR ", 0, 1, 0) if isinstance(n, Or) else (" AND ", 1, 2, 1)
            parens = level > loosest
            if parens:
                stack.append(")")
            stack.extend([(n.right, right), op, (n.left, left)])
            if parens:
                parts.append("(")
        else:
            parts.append(f"{_UNARY_NAMES[type(n)]} ")
            stack.append((n.arg, 2))
    return "".join(parts)


def print_kb(kb: KnowledgeBase) -> str:
    lines = ["SIG"]
    for name in sorted(kb.signature.concepts):
        lines.append(f"concept {name}")
    for name in sorted(kb.signature.global_roles):
        lines.append(f"global role {name}")
    for name in sorted(kb.signature.local_roles):
        lines.append(f"local role {name}")
    for name in sorted(kb.signature.individuals):
        lines.append(f"individual {name}")
    lines.append("TBOX")
    for ci in kb.tbox:
        lines.append(f"{print_concept(ci.lhs)} SUB {print_concept(ci.rhs)}")
    lines.append("ABOX")
    for a in kb.abox:
        neg = "" if a.positive else "NOT "
        if isinstance(a, ConceptAssertion):
            lines.append(f"{neg}{a.concept}({a.individual})@{a.time}")
        else:
            lines.append(f"{neg}{a.role}({a.subject}, {a.obj})@{a.time}")
    return "\n".join(lines) + "\n"
