"""Recursive-descent parser for the Overlog dialect.

Grammar sketch (see DESIGN.md §5 for a worked example)::

    program   := "program" IDENT ";" (decl | rule)*
    decl      := define | event | timer | watch
    define    := "define" "(" name "," "keys" "(" ints ")" "," "{" types "}" ")" ";"
    event     := "event" "(" name "," NUMBER ")" ";"
    timer     := "timer" "(" name "," NUMBER ")" ";"
    watch     := "watch" "(" name ")" ";"
    rule      := [IDENT] ["delete"] atom ":-" body ";"
    body      := elem ("," elem)*
    elem      := "notin" atom | VARIABLE ":=" expr | atom | expr

Disambiguation conventions (as in P2):

* builtin function names begin with ``f_``; any other ``ident(`` in a body
  is a predicate atom,
* aggregate head arguments are ``count<V>``, ``sum<V>``, ``min<V>``,
  ``max<V>``, ``avg<V>``, ``list<V>`` plus the sketch aggregates
  ``percentile<V>`` and ``count_distinct_approx<V>`` (``count<*>``
  counts rows per group),
* a rule may be given an explicit name by prefixing it with an identifier;
  unnamed rules receive ``<program>_r<N>``.
"""

from __future__ import annotations

from typing import Optional

from .ast import (
    AGGREGATE_FUNCS,
    AggSpec,
    Assign,
    Atom,
    BinOp,
    BodyElem,
    Cond,
    Const,
    Decl,
    EventDecl,
    Expr,
    FuncCall,
    HeadArg,
    NotIn,
    Program,
    Rule,
    TableDecl,
    TimerDecl,
    UnOp,
    Var,
)
from .errors import ParseError
from .lexer import Token, tokenize

_COMPARISON_OPS = {"==", "!=", "<", "<=", ">", ">="}


class Parser:
    """Single-use parser over a token stream."""

    def __init__(self, tokens: list[Token]):
        self._toks = tokens
        self._pos = 0
        self._rule_counter = 0
        self._program_name = "anonymous"
        self.watches: list[str] = []

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self._pos + offset, len(self._toks) - 1)
        return self._toks[idx]

    def _next(self) -> Token:
        tok = self._toks[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self._peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ParseError(
                f"expected {want!r}, found {tok.value!r}", tok.line, tok.col
            )
        return self._next()

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self._peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self._next()
        return None

    # -- toplevel -----------------------------------------------------------

    def parse_program(self) -> Program:
        self._expect("KEYWORD", "program")
        name = self._expect("IDENT").value
        self._expect("OP", ";")
        self._program_name = name
        decls: list[Decl] = []
        rules: list[Rule] = []
        while self._peek().kind != "EOF":
            tok = self._peek()
            if tok.kind == "KEYWORD" and tok.value == "define":
                decls.append(self._parse_define())
            elif tok.kind == "KEYWORD" and tok.value == "event":
                decls.append(self._parse_event())
            elif tok.kind == "KEYWORD" and tok.value == "timer":
                decls.append(self._parse_timer())
            elif tok.kind == "KEYWORD" and tok.value == "watch":
                self._parse_watch()
            else:
                rules.append(self._parse_rule())
        return Program(name=name, decls=tuple(decls), rules=tuple(rules))

    # -- declarations -------------------------------------------------------

    def _parse_define(self) -> TableDecl:
        self._expect("KEYWORD", "define")
        self._expect("OP", "(")
        name = self._expect("IDENT").value
        self._expect("OP", ",")
        self._expect("KEYWORD", "keys")
        self._expect("OP", "(")
        keys: list[int] = []
        if not self._accept("OP", ")"):
            keys.append(int(self._expect("NUMBER").value))
            while self._accept("OP", ","):
                keys.append(int(self._expect("NUMBER").value))
            self._expect("OP", ")")
        self._expect("OP", ",")
        self._expect("OP", "{")
        types: list[str] = []
        types.append(self._parse_type_name())
        while self._accept("OP", ","):
            types.append(self._parse_type_name())
        self._expect("OP", "}")
        self._expect("OP", ")")
        self._expect("OP", ";")
        return TableDecl(name=name, keys=tuple(keys), types=tuple(types))

    def _parse_type_name(self) -> str:
        tok = self._peek()
        if tok.kind in ("IDENT", "VARIABLE"):
            return self._next().value
        raise ParseError(f"expected type name, found {tok.value!r}", tok.line, tok.col)

    def _parse_event(self) -> EventDecl:
        self._expect("KEYWORD", "event")
        self._expect("OP", "(")
        name = self._expect("IDENT").value
        self._expect("OP", ",")
        arity = int(self._expect("NUMBER").value)
        self._expect("OP", ")")
        self._expect("OP", ";")
        return EventDecl(name=name, arity=arity)

    def _parse_timer(self) -> TimerDecl:
        self._expect("KEYWORD", "timer")
        self._expect("OP", "(")
        name = self._expect("IDENT").value
        self._expect("OP", ",")
        period = int(self._expect("NUMBER").value)
        self._expect("OP", ")")
        self._expect("OP", ";")
        return TimerDecl(name=name, period_ms=period)

    def _parse_watch(self) -> None:
        self._expect("KEYWORD", "watch")
        self._expect("OP", "(")
        self.watches.append(self._expect("IDENT").value)
        self._expect("OP", ")")
        self._expect("OP", ";")

    # -- rules --------------------------------------------------------------

    def _parse_rule(self) -> Rule:
        name: Optional[str] = None
        # `ident ident(` or `ident delete` means the first ident is a rule name.
        if self._peek().kind == "IDENT":
            nxt = self._peek(1)
            if (nxt.kind == "IDENT" and self._peek(2).value == "(") or (
                nxt.kind == "KEYWORD" and nxt.value == "delete"
            ):
                name = self._next().value
        is_delete = bool(self._accept("KEYWORD", "delete"))
        head = self._parse_atom(allow_agg=True)
        deferred = False
        if self._peek().value == "@" and self._peek(1).value == "next":
            self._next()
            self._next()
            deferred = True
        self._expect("OP", ":-")
        body: list[BodyElem] = [self._parse_body_elem()]
        while self._accept("OP", ","):
            body.append(self._parse_body_elem())
        self._expect("OP", ";")
        if name is None:
            self._rule_counter += 1
            name = f"{self._program_name}_r{self._rule_counter}"
        return Rule(
            name=name,
            head=head,
            body=tuple(body),
            delete=is_delete,
            deferred=deferred,
        )

    def _parse_body_elem(self) -> BodyElem:
        tok = self._peek()
        if tok.kind == "KEYWORD" and tok.value == "notin":
            self._next()
            return NotIn(self._parse_atom(allow_agg=False))
        if tok.kind == "VARIABLE" and self._peek(1).value == ":=":
            var = Var(self._next().value)
            self._next()  # :=
            return Assign(var=var, expr=self._parse_expr())
        if (
            tok.kind == "IDENT"
            and not tok.value.startswith("f_")
            and self._peek(1).value == "("
        ):
            return self._parse_atom(allow_agg=False)
        return Cond(self._parse_expr())

    def _parse_atom(self, allow_agg: bool) -> Atom:
        name_tok = self._expect("IDENT")
        self._expect("OP", "(")
        args: list[HeadArg] = []
        loc: Optional[int] = None
        if not self._accept("OP", ")"):
            while True:
                if self._accept("OP", "@"):
                    if loc is not None:
                        raise ParseError(
                            "multiple location specifiers in one atom",
                            name_tok.line,
                            name_tok.col,
                        )
                    loc = len(args)
                args.append(self._parse_head_arg(allow_agg))
                if not self._accept("OP", ","):
                    break
            self._expect("OP", ")")
        return Atom(name=name_tok.value, args=tuple(args), loc=loc)

    def _parse_head_arg(self, allow_agg: bool) -> HeadArg:
        tok = self._peek()
        if (
            allow_agg
            and tok.kind == "IDENT"
            and tok.value in AGGREGATE_FUNCS
            and self._peek(1).value == "<"
        ):
            func = self._next().value
            self._expect("OP", "<")
            if self._accept("OP", "*"):
                var = Var("_")
            else:
                var = Var(self._expect("VARIABLE").value)
            self._expect("OP", ">")
            return AggSpec(func=func, var=var)
        return self._parse_expr()

    # -- expressions --------------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept("OP", "||"):
            left = BinOp("||", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_comparison()
        while self._accept("OP", "&&"):
            left = BinOp("&&", left, self._parse_comparison())
        return left

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        tok = self._peek()
        if tok.kind == "OP" and tok.value in _COMPARISON_OPS:
            op = self._next().value
            return BinOp(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            tok = self._peek()
            if tok.kind == "OP" and tok.value in ("+", "-"):
                op = self._next().value
                left = BinOp(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            if tok.kind == "OP" and tok.value in ("*", "/", "%"):
                op = self._next().value
                left = BinOp(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self._accept("OP", "-"):
            return UnOp("-", self._parse_unary())
        if self._accept("OP", "!"):
            return UnOp("!", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        if tok.kind == "NUMBER":
            self._next()
            if "." in tok.value:
                return Const(float(tok.value))
            return Const(int(tok.value))
        if tok.kind == "STRING":
            self._next()
            return Const(tok.value)
        if tok.kind == "KEYWORD" and tok.value in ("true", "false"):
            self._next()
            return Const(tok.value == "true")
        if tok.kind == "KEYWORD" and tok.value == "nil":
            self._next()
            return Const(None)
        if tok.kind == "VARIABLE":
            self._next()
            return Var(tok.value)
        if tok.kind == "IDENT":
            # Builtin function call (f_*); bare lowercase idents are invalid.
            if self._peek(1).value == "(":
                name = self._next().value
                self._expect("OP", "(")
                args: list[Expr] = []
                if not self._accept("OP", ")"):
                    args.append(self._parse_expr())
                    while self._accept("OP", ","):
                        args.append(self._parse_expr())
                    self._expect("OP", ")")
                return FuncCall(name=name, args=tuple(args))
            raise ParseError(
                f"bare identifier {tok.value!r} in expression", tok.line, tok.col
            )
        if self._accept("OP", "("):
            inner = self._parse_expr()
            self._expect("OP", ")")
            return inner
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)


# Source text -> its Program: replicas of one program parse it once per
# process.  AST nodes are frozen, so sharing one Program is safe; the memo
# is emptied when it outgrows _PARSED_LIMIT.
_PARSED: dict[str, Program] = {}
_PARSED_LIMIT = 256


def parse(source: str) -> Program:
    """Parse Overlog source text into a :class:`Program`."""
    program = _PARSED.get(source)
    if program is None:
        if len(_PARSED) >= _PARSED_LIMIT:
            _PARSED.clear()
        program = _PARSED[source] = Parser(tokenize(source)).parse_program()
    return program


def parse_with_watches(source: str) -> tuple[Program, list[str]]:
    """Like :func:`parse`, additionally returning ``watch(...)`` relations."""
    parser = Parser(tokenize(source))
    program = parser.parse_program()
    return program, parser.watches
