"""Surface notation: lexer, parser, printer and evaluator.

The grammar (whitespace insignificant, literals are unsigned digit runs):

    expr  := chain | arrow | call | atom
    chain := atom ("->" atom)+
    arrow := atom caret+ atom
    call  := "ack" "(" expr "," expr ")"
           | "knuth" "(" expr "," expr "," expr ")"
           | "conway" "(" [expr ("," expr)*] ")"
    atom  := natural-literal | "(" expr ")"

``a -> b -> c`` is one flat chain, never a nested binary operator, and the
caret form is deliberately non-associative: ``2^^3^^2`` is a parse error,
parenthesize to nest.  ``k`` carets mean the level-``k`` arrow (one caret is
plain exponentiation); level 0 (multiplication) is only reachable through
``knuth(a,0,b)``.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .budget import (
    Budget,
    EvalStats,
    Meter,
    Record,
    decimal_to_int,
    int_to_decimal,
    value_text,
)
from .hyperops import (
    DEFAULT_BUDGET,
    _take_inputs,
    eval_ack_prim,
    eval_ack_ref,
    eval_conway_prim,
    eval_conway_ref,
    eval_knuth_prim,
    eval_knuth_ref,
    run_budgeted,
)

MAX_LITERAL_DIGITS = 10**5
MAX_NESTING = 200

REFERENCE = "reference"
PRIMITIVE = "primitive"
BOTH = "both"
FORMS = (REFERENCE, PRIMITIVE, BOTH)


class SourcePos(NamedTuple):
    offset: int
    line: int
    column: int


class ParseError(Exception):
    """Syntax failure, with position and what would have been accepted."""

    def __init__(self, message: str, pos: SourcePos, expected: frozenset[str]):
        super().__init__(f"{message} at line {pos.line}, column {pos.column}")
        self.message = message
        self.pos = pos
        self.expected = expected


class MismatchError(Exception):
    """Reference and fold forms disagreed: an implementation bug, not bad input."""

    def __init__(self, reference_value: int, primitive_value: int):
        super().__init__(
            "reference and primitive evaluations disagree: "
            f"{int_to_decimal(reference_value)} vs {int_to_decimal(primitive_value)}"
        )
        self.reference_value = reference_value
        self.primitive_value = primitive_value


# ---------------------------------------------------------------------------
# abstract syntax
# ---------------------------------------------------------------------------


class NatLit(Record):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)


class Ack(Record):
    __slots__ = __match_args__ = ("m", "n")

    def __init__(self, m: Expr, n: Expr):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)


class Knuth(Record):
    __slots__ = __match_args__ = ("a", "level", "b")

    def __init__(self, a: Expr, level: Expr, b: Expr):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "b", b)


class ChainE(Record):
    __slots__ = __match_args__ = ("items",)

    def __init__(self, items: tuple[Expr, ...]):  # written order, length >= 2
        if len(items) < 2:
            raise ValueError("chain expressions need at least two items")
        object.__setattr__(self, "items", items)


class ConwayCall(Record):
    __slots__ = __match_args__ = ("items",)

    def __init__(self, items: tuple[Expr, ...]):  # any length, 0 legal
        object.__setattr__(self, "items", items)


Expr = Union[NatLit, Ack, Knuth, ChainE, ConwayCall]


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # NUMBER NAME ARROW CARETS LPAREN RPAREN COMMA EOF
    text: str
    offset: int


_PUNCTUATION = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA"}


def _error(text: str, offset: int, message: str, expected) -> ParseError:
    """A ParseError at ``offset``; its line and column are counted only here."""
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return ParseError(message, SourcePos(offset, line, column), frozenset(expected))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    offset = 0
    size = len(text)
    while offset < size:
        ch = text[offset]
        if ch in " \t\r\n":
            offset += 1
            continue
        end = offset + 1
        if ch.isdecimal():
            while end < size and text[end].isdecimal():
                end += 1
            if end - offset > MAX_LITERAL_DIGITS:
                raise _error(
                    text,
                    offset,
                    f"numeral longer than {MAX_LITERAL_DIGITS} digits",
                    {"shorter numeral"},
                )
            kind = "NUMBER"
        elif ch.isalpha() or ch == "_":
            while end < size and (text[end].isalnum() or text[end] == "_"):
                end += 1
            kind = "NAME"
        elif ch == "-":
            if not text.startswith(">", end):
                raise _error(text, offset, "stray '-' (did you mean '->'?)", {"'->'"})
            end += 1
            kind = "ARROW"
        elif ch == "^":
            while end < size and text[end] == "^":
                end += 1
            kind = "CARETS"
        elif ch in _PUNCTUATION:
            kind = _PUNCTUATION[ch]
        else:
            raise _error(text, offset, f"unexpected character {ch!r}", {"expression"})
        tokens.append(_Token(kind, text[offset:end], offset))
        offset = end
    tokens.append(_Token("EOF", "", offset))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: set[str]) -> ParseError:
        tok = self.peek()
        what = "end of input" if tok.kind == "EOF" else repr(tok.text)
        return _error(
            self.text,
            tok.offset,
            f"expected {' or '.join(sorted(expected))}, found {what}",
            expected,
        )

    def expect(self, kind: str, expected: set[str]) -> _Token:
        if self.peek().kind != kind:
            raise self.fail(expected)
        return self.take()

    def expr(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _error(
                self.text,
                self.peek().offset,
                f"nesting deeper than {MAX_NESTING}",
                {"shallower expression"},
            )
        try:
            if self.peek().kind == "NAME":
                return self.call()
            first = self.atom()
            kind = self.peek().kind
            if kind == "ARROW":
                items = [first]
                while self.peek().kind == "ARROW":
                    self.take()
                    items.append(self.atom())
                return ChainE(tuple(items))
            if kind == "CARETS":
                carets = self.take()
                rhs = self.atom()
                if self.peek().kind == "CARETS":
                    raise _error(
                        self.text,
                        self.peek().offset,
                        "caret arrows do not chain; parenthesize to nest",
                        {"end of expression"},
                    )
                return Knuth(first, NatLit(len(carets.text)), rhs)
            return first
        finally:
            self.depth -= 1

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.take()
            return NatLit(decimal_to_int(tok.text))
        if tok.kind == "LPAREN":
            self.take()
            inner = self.expr()
            self.expect("RPAREN", {"')'"})
            return inner
        raise self.fail({"number", "'('"})

    def call(self) -> Expr:
        name = self.take()
        if name.text not in ("ack", "knuth", "conway"):
            raise _error(
                self.text,
                name.offset,
                f"unknown function {name.text!r}",
                {"'ack'", "'knuth'", "'conway'"},
            )
        self.expect("LPAREN", {"'('"})
        if name.text == "conway":
            items: list[Expr] = []
            if self.peek().kind != "RPAREN":
                items.append(self.expr())
                while self.peek().kind == "COMMA":
                    self.take()
                    items.append(self.expr())
            self.expect("RPAREN", {"')'", "','"})
            return ConwayCall(tuple(items))
        node, arity = (Ack, 2) if name.text == "ack" else (Knuth, 3)
        args = [self.expr()]
        for _ in range(arity - 1):
            self.expect("COMMA", {"','"})
            args.append(self.expr())
        self.expect("RPAREN", {"')'"})
        return node(*args)


def parse(text: str) -> Expr:
    """Parse one expression; the whole input must be consumed."""
    parser = _Parser(text)
    node = parser.expr()
    if parser.peek().kind != "EOF":
        raise parser.fail({"end of input"})
    return node


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------


def _atomic(e: Expr) -> str:
    text = render(e)
    if isinstance(e, NatLit):
        return text
    return f"({text})"


def render(e: Expr) -> str:
    """Canonical text such that parse(render(e)) == e."""
    match e:
        case NatLit(value):
            return int_to_decimal(value)
        case Ack(m, n):
            return f"ack({render(m)},{render(n)})"
        case Knuth(a, level, b):
            if isinstance(level, NatLit) and 1 <= level.value <= 4:
                return f"{_atomic(a)}{'^' * level.value}{_atomic(b)}"
            return f"knuth({render(a)},{render(level)},{render(b)})"
        case ChainE(items):
            return "->".join(_atomic(item) for item in items)
        case ConwayCall(items):
            return f"conway({','.join(render(item) for item in items)})"
    raise TypeError(f"not an expression: {value_text(e)}")


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------


def _eval_node(e: Expr, prim: bool, meter: Meter) -> int:
    match e:
        case NatLit(value):
            return _take_inputs(meter, (("literal", value),))[0]
        case Ack(m, n):
            mv = _eval_node(m, prim, meter)
            nv = _eval_node(n, prim, meter)
            return (eval_ack_prim if prim else eval_ack_ref)(mv, nv, meter)
        case Knuth(a, level, b):
            av = _eval_node(a, prim, meter)
            lv = _eval_node(level, prim, meter)
            bv = _eval_node(b, prim, meter)
            return (eval_knuth_prim if prim else eval_knuth_ref)(av, lv, bv, meter)
        case ChainE(items) | ConwayCall(items):
            entries = [_eval_node(item, prim, meter) for item in items]
            return (eval_conway_prim if prim else eval_conway_ref)(entries, meter)
    raise TypeError(f"not an expression: {value_text(e)}")


def evaluate(
    e: Expr, form: str = BOTH, budget: Budget = DEFAULT_BUDGET
) -> tuple[int, EvalStats]:
    """Evaluate bottom-up and eagerly; one budget spans the whole tree.

    ``form="both"`` runs the tree once per form, each under its own fresh
    budget, and raises :class:`MismatchError` when the values differ; the
    returned stats are the two runs combined (steps summed, peak maxed).
    """
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}, got {form!r}")
    if form != BOTH:
        return run_budgeted(_eval_node, e, form == PRIMITIVE, budget=budget)
    ref_value, ref_stats = run_budgeted(_eval_node, e, False, budget=budget)
    prim_value, prim_stats = run_budgeted(_eval_node, e, True, budget=budget)
    if ref_value != prim_value:
        raise MismatchError(ref_value, prim_value)
    return ref_value, ref_stats.combined(prim_stats)
