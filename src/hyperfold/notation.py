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

from dataclasses import dataclass
from typing import NamedTuple, Union

from .budget import Budget, EvalStats, Meter, decimal_to_int, int_to_decimal
from .hyperops import (
    DEFAULT_BUDGET,
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


@dataclass(frozen=True)
class NatLit:
    value: int


@dataclass(frozen=True)
class Ack:
    m: "Expr"
    n: "Expr"


@dataclass(frozen=True)
class Knuth:
    a: "Expr"
    level: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class ChainE:
    items: tuple["Expr", ...]  # written order, length >= 2

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("chain expressions need at least two items")


@dataclass(frozen=True)
class ConwayCall:
    items: tuple["Expr", ...]  # any length, 0 legal


Expr = Union[NatLit, Ack, Knuth, ChainE, ConwayCall]


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # NUMBER NAME ARROW CARETS LPAREN RPAREN COMMA EOF
    text: str
    pos: SourcePos


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    offset = 0
    line = 1
    col = 1
    size = len(text)

    def here() -> SourcePos:
        return SourcePos(offset, line, col)

    def advance(k: int) -> None:
        nonlocal offset, line, col
        for _ in range(k):
            if text[offset] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            offset += 1

    while offset < size:
        ch = text[offset]
        if ch in " \t\r\n":
            advance(1)
            continue
        pos = here()
        if ch.isdecimal():
            end = offset
            while end < size and text[end].isdecimal():
                end += 1
            run = text[offset:end]
            if len(run) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"numeral longer than {MAX_LITERAL_DIGITS} digits",
                    pos,
                    frozenset({"shorter numeral"}),
                )
            tokens.append(_Token("NUMBER", run, pos))
            advance(end - offset)
        elif ch.isalpha() or ch == "_":
            end = offset
            while end < size and (text[end].isalnum() or text[end] == "_"):
                end += 1
            tokens.append(_Token("NAME", text[offset:end], pos))
            advance(end - offset)
        elif ch == "-":
            if offset + 1 < size and text[offset + 1] == ">":
                tokens.append(_Token("ARROW", "->", pos))
                advance(2)
            else:
                raise ParseError(
                    "stray '-' (did you mean '->'?)", pos, frozenset({"'->'"})
                )
        elif ch == "^":
            end = offset
            while end < size and text[end] == "^":
                end += 1
            tokens.append(_Token("CARETS", text[offset:end], pos))
            advance(end - offset)
        elif ch == "(":
            tokens.append(_Token("LPAREN", ch, pos))
            advance(1)
        elif ch == ")":
            tokens.append(_Token("RPAREN", ch, pos))
            advance(1)
        elif ch == ",":
            tokens.append(_Token("COMMA", ch, pos))
            advance(1)
        else:
            raise ParseError(
                f"unexpected character {ch!r}", pos, frozenset({"expression"})
            )
    tokens.append(_Token("EOF", "", here()))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
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
        return ParseError(
            f"expected {' or '.join(sorted(expected))}, found {what}",
            tok.pos,
            frozenset(expected),
        )

    def expect(self, kind: str, expected: set[str]) -> _Token:
        if self.peek().kind != kind:
            raise self.fail(expected)
        return self.take()

    def expr(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING}",
                self.peek().pos,
                frozenset({"shallower expression"}),
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
                    raise ParseError(
                        "caret arrows do not chain; parenthesize to nest",
                        self.peek().pos,
                        frozenset({"end of expression"}),
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
            raise ParseError(
                f"unknown function {name.text!r}",
                name.pos,
                frozenset({"'ack'", "'knuth'", "'conway'"}),
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
        first = self.expr()
        self.expect("COMMA", {"','"})
        second = self.expr()
        if name.text == "ack":
            self.expect("RPAREN", {"')'"})
            return Ack(first, second)
        self.expect("COMMA", {"','"})
        third = self.expr()
        self.expect("RPAREN", {"')'"})
        return Knuth(first, second, third)


def parse(text: str) -> Expr:
    """Parse one expression; the whole input must be consumed."""
    parser = _Parser(_tokenize(text))
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
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------


def _eval_node(e: Expr, prim: bool, meter: Meter) -> int:
    match e:
        case NatLit(value):
            meter.note(value)
            return value
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
    raise TypeError(f"not an expression: {e!r}")


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
