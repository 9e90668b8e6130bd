"""The textual query language: parse, print, check, evaluate.

A program is a sequence of ``NAME = expr;`` bindings and ``OUTPUT expr;``
directives.  Expressions are operation calls over graph values, bare names,
or ``LOAD "file"``.  Conditions are normalized to disjunctive normal form at
parse time (negation stays on the atoms), and ``print_program`` emits a
canonical form that re-parses to the same tree.

Each operation is one row of the op table ``OPS``: its keyword, its tree
node class, the grammar of its arguments after the source, and the function
that evaluates it.  The grammar is a tuple of separators (``,`` ``;``
``->``) and argument kinds; the kind table ``KINDS`` says how each kind is
parsed, printed and checked.  The parser, the printer, the checker and the
evaluator are each one loop over a row, and the node's fields after
``source`` are the row's arguments in grammar order.
"""
from __future__ import annotations

import datetime
import re
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Iterable, NamedTuple, Sequence

from .dims import DimensionCatalog, DimensionError, RollupStep
from .hypergraph import Graphoid, GraphoidError, edgify
from .metrics import NodeFilter
from . import metrics, olap
from .olap import Atom, Condition, TargetSet


class GqlError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class GqlSyntaxError(GqlError):
    pass


class GqlEvalError(GqlError):
    pass


# ---------------------------------------------------------------------------
# tokens

@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    value: object
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<DATE>\d{4}-\d{2}-\d{2})
  | (?P<NUMBER>-?\d+(?:\.\d+)?)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*")
  | (?P<ARROW>->)
  | (?P<TYPENAME>\#[A-Za-z_][A-Za-z0-9_]*)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<PUNCT>[(){},;:.=<>*])
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")  # the only escapes are \" and \\


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise GqlSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        raw = m.group()
        if kind == "WS":
            pass
        elif kind == "DATE":
            try:
                day = datetime.date.fromisoformat(raw)
            except ValueError:
                raise GqlSyntaxError(f"no such date {raw}", line, col) from None
            tokens.append(Token("DATE", raw, day, line, col))
        elif kind == "NUMBER":
            value = float(raw) if "." in raw else int(raw)
            tokens.append(Token("NUMBER", raw, value, line, col))
        elif kind == "STRING":
            for esc in _ESCAPE_RE.finditer(raw):
                if esc.group(1) not in '"\\':
                    raise GqlSyntaxError(f"unknown escape {esc.group()} in string", line, col + esc.start())
            tokens.append(Token("STRING", raw, _ESCAPE_RE.sub(r"\1", raw[1:-1]), line, col))
        elif kind == "NAME":
            upper = raw.upper()
            if upper in KEYWORDS:
                tokens.append(Token(upper, raw, upper, line, col))
            else:
                tokens.append(Token("NAME", raw, raw, line, col))
        elif kind == "TYPENAME":
            tokens.append(Token("TYPENAME", raw, raw, line, col))
        elif kind == "ARROW":
            tokens.append(Token("->", raw, raw, line, col))
        else:
            tokens.append(Token(raw, raw, raw, line, col))
        for ch in raw:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(Token("EOF", "", None, line, col))
    return tokens


# ---------------------------------------------------------------------------
# syntax tree

@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Load:
    path: str


@dataclass(frozen=True)
class ClimbOp:
    source: object
    targets: TargetSet
    step: RollupStep


@dataclass(frozen=True)
class MinimizeOp:
    source: object


@dataclass(frozen=True)
class GroupOp:
    source: object
    type_name: str
    step: RollupStep


@dataclass(frozen=True)
class AggrOp:
    source: object
    edge_type: str
    measures: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class RollupOp:
    source: object
    targets: TargetSet
    step: RollupStep
    edge_type: str
    measures: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class DrilldownOp:
    source: object
    targets: TargetSet
    dimension: str
    to_level: str
    edge_type: str
    measures: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class SliceOp:
    source: object
    dimension: str
    measures: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class DiceOp:
    source: object
    condition: Condition


@dataclass(frozen=True)
class SdiceOp:
    source: object
    condition: Condition


@dataclass(frozen=True)
class NdeleteOp:
    source: object
    node_type: str


@dataclass(frozen=True)
class EdgifyOp:
    source: object
    node_type: str
    dimension: str


@dataclass(frozen=True)
class ShortestPathsOp:
    source: object
    from_filter: NodeFilter
    to_filter: NodeFilter
    via: TargetSet = TargetSet.everything()


@dataclass(frozen=True)
class Statement:
    name: str | None  # None for OUTPUT
    expr: object
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Program:
    statements: tuple[Statement, ...]


# condition trees prior to normalization

@dataclass(frozen=True)
class BoolAtom:
    atom: Atom


@dataclass(frozen=True)
class BoolNot:
    item: object


@dataclass(frozen=True)
class BoolAnd:
    items: tuple


@dataclass(frozen=True)
class BoolOr:
    items: tuple


def _to_nnf(tree, negate: bool = False):
    if isinstance(tree, BoolAtom):
        a = tree.atom
        return BoolAtom(Atom(a.dim, a.level, a.cmp, a.value, a.negated ^ negate))
    if isinstance(tree, BoolNot):
        return _to_nnf(tree.item, not negate)
    if isinstance(tree, BoolAnd):
        items = tuple(_to_nnf(i, negate) for i in tree.items)
        return BoolOr(items) if negate else BoolAnd(items)
    if isinstance(tree, BoolOr):
        items = tuple(_to_nnf(i, negate) for i in tree.items)
        return BoolAnd(items) if negate else BoolOr(items)
    raise TypeError(f"not a condition tree: {tree!r}")


def _to_clauses(tree) -> tuple[tuple[Atom, ...], ...]:
    if isinstance(tree, BoolAtom):
        return ((tree.atom,),)
    if isinstance(tree, BoolOr):
        out: tuple[tuple[Atom, ...], ...] = ()
        for item in tree.items:
            out += _to_clauses(item)
        return out
    if isinstance(tree, BoolAnd):
        combos: tuple[tuple[Atom, ...], ...] = ((),)
        for item in tree.items:
            parts = _to_clauses(item)
            combos = tuple(left + right for left in combos for right in parts)
        return combos
    raise TypeError(f"not a condition tree: {tree!r}")


def normalize_condition(tree) -> Condition:
    """Push negation to the atoms, distribute AND over OR."""
    return Condition(_to_clauses(_to_nnf(tree)))


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise GqlSyntaxError(f"expected {kind!r}, found {shown!r}", tok.line, tok.col)
        return self.next()

    def fail(self, message: str) -> GqlSyntaxError:
        tok = self.peek()
        return GqlSyntaxError(message, tok.line, tok.col)

    # program ---------------------------------------------------------------

    def program(self) -> Program:
        statements = []
        while self.peek().kind != "EOF":
            statements.append(self.statement())
        if not statements:
            raise self.fail("empty program")
        return Program(tuple(statements))

    def statement(self) -> Statement:
        tok = self.peek()
        if tok.kind == "OUTPUT":
            self.next()
            expr = self.expression()
            self.expect(";")
            return Statement(None, expr, tok.line, tok.col)
        name = self.expect("NAME")
        self.expect("=")
        expr = self.expression()
        self.expect(";")
        return Statement(name.value, expr, name.line, name.col)

    def expression(self):
        tok = self.peek()
        if tok.kind == "LOAD":
            self.next()
            path = self.expect("STRING")
            return Load(path.value)
        if tok.kind in _BY_KEYWORD:
            return self.op_call()
        if tok.kind == "NAME":
            if self.peek(1).kind == "(":
                raise GqlSyntaxError(f"unknown operation {tok.value!r}", tok.line, tok.col)
            self.next()
            return Ref(tok.value)
        raise self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")

    def op_call(self):
        spec = _BY_KEYWORD[self.next().kind]
        self.expect("(")
        args = [self.expression()]
        for item in spec.grammar:
            if item in KINDS:
                args.append(KINDS[item].parse(self))
            elif self.peek().kind == ")" and len(args) >= spec.required:
                break  # the remaining arguments take the node's defaults
            else:
                self.expect(item)
        self.expect(")")
        return spec.node(*args)

    # argument kinds ------------------------------------------------------------

    def type_name(self) -> str:
        return self.expect("TYPENAME").value

    def dimension(self) -> str:
        return self.expect("NAME").value

    def target_set(self) -> TargetSet:
        tok = self.peek()
        if tok.kind == "*":
            self.next()
            return TargetSet.everything()
        self.expect("{")
        names = [self.expect("TYPENAME").value]
        while self.peek().kind == ",":
            self.next()
            names.append(self.expect("TYPENAME").value)
        self.expect("}")
        return TargetSet.of(*names)

    def edge_type_or_star(self) -> str:
        tok = self.peek()
        if tok.kind == "*":
            self.next()
            return olap.WILDCARD
        return self.expect("TYPENAME").value

    def level_name(self) -> str:
        # the top level shares its spelling with a keyword-free NAME
        tok = self.peek()
        if tok.kind == "NAME":
            return self.next().value
        raise self.fail(f"expected a level name, found {tok.text!r}")

    def step(self) -> RollupStep:
        dim = self.expect("NAME").value
        self.expect(":")
        frm = self.level_name()
        self.expect("->")
        to = self.level_name()
        return RollupStep(dim, frm, to)

    def measures(self) -> tuple[tuple[str, str], ...]:
        pairs = [self.measure_pair()]
        while self.peek().kind == ",":
            self.next()
            pairs.append(self.measure_pair())
        return tuple(pairs)

    def measure_pair(self) -> tuple[str, str]:
        dim = self.expect("NAME").value
        self.expect(",")
        fn = self.expect("NAME").value
        return (dim, fn)

    def node_filter(self) -> NodeFilter:
        ntype = self.expect("TYPENAME").value
        if self.peek().kind == "WHERE":
            self.next()
            return NodeFilter(ntype, self.condition())
        return NodeFilter(ntype)

    # conditions ---------------------------------------------------------------

    def condition(self) -> Condition:
        return normalize_condition(self.bool_or())

    def bool_or(self):
        items = [self.bool_and()]
        while self.peek().kind == "OR":
            self.next()
            items.append(self.bool_and())
        return items[0] if len(items) == 1 else BoolOr(tuple(items))

    def bool_and(self):
        items = [self.bool_unit()]
        while self.peek().kind == "AND":
            self.next()
            items.append(self.bool_unit())
        return items[0] if len(items) == 1 else BoolAnd(tuple(items))

    def bool_unit(self):
        tok = self.peek()
        if tok.kind == "NOT":
            self.next()
            return BoolNot(self.bool_unit())
        if tok.kind == "(":
            self.next()
            inner = self.bool_or()
            self.expect(")")
            return inner
        return BoolAtom(self.atom())

    def atom(self) -> Atom:
        dim = self.expect("NAME").value
        level: str | None = None
        if self.peek().kind == ".":
            self.next()
            level = self.level_name()
        cmp_tok = self.peek()
        if cmp_tok.kind not in ("<", "=", ">"):
            raise self.fail(f"expected a comparator, found {cmp_tok.text!r}")
        self.next()
        lit = self.peek()
        if lit.kind not in ("NUMBER", "STRING", "DATE"):
            raise self.fail(f"expected a literal, found {lit.text or 'end of input'!r}")
        self.next()
        return Atom(dim, level, cmp_tok.kind, lit.value)


def parse(text: str) -> Program:
    """Parse a program; raises GqlSyntaxError with line/col on the first error."""
    parser = _Parser(tokenize(text))
    program = parser.program()
    return program


def parse_condition(text: str) -> Condition:
    """Parse a bare condition (handy for tests and filters)."""
    parser = _Parser(tokenize(text))
    cond = parser.condition()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise GqlSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return cond


# ---------------------------------------------------------------------------
# printer

def format_value(value: object) -> str:
    text = olap.format_constant(value)
    if text is None:
        raise GqlError(f"cannot print literal {value!r}", 0, 0)
    return text


def format_atom(atom: Atom) -> str:
    name = atom.dim if atom.level is None else f"{atom.dim}.{atom.level}"
    text = f"{name} {atom.cmp} {format_value(atom.value)}"
    return f"NOT {text}" if atom.negated else text


def format_condition(cond: Condition) -> str:
    parts = []
    for clause in cond.clauses:
        text = " AND ".join(format_atom(a) for a in clause)
        if len(cond.clauses) > 1 and len(clause) > 1:
            text = f"({text})"
        parts.append(text)
    return " OR ".join(parts)


def _format_targets(targets: TargetSet) -> str:
    if targets.is_wildcard:
        return "*"
    return "{" + ", ".join(targets.names or ()) + "}"


def _format_step(step: RollupStep) -> str:
    return f"{step.dimension}: {step.from_level} -> {step.to_level}"


def _format_measures(measures: Sequence[tuple[str, str]]) -> str:
    return ", ".join(f"{dim}, {fn}" for dim, fn in measures)


def _format_filter(flt: NodeFilter) -> str:
    if flt.condition is None:
        return flt.ntype
    return f"{flt.ntype} WHERE {format_condition(flt.condition)}"


_SEPARATORS = {",": ", ", ";": "; ", "->": " -> "}


def format_expr(expr) -> str:
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Load):
        return f'LOAD {format_value(expr.path)}'
    spec = _BY_NODE.get(type(expr))
    if spec is None:
        raise GqlError(f"cannot print expression {expr!r}", 0, 0)
    text = format_expr(expr.source)
    operands = iter(_operands(expr))
    for item in spec.grammar:
        text += KINDS[item].show(next(operands)) if item in KINDS else _SEPARATORS[item]
    return f"{spec.keyword}({text})"


def print_program(program: Program) -> str:
    lines = []
    for stmt in program.statements:
        expr = format_expr(stmt.expr)
        lines.append(f"OUTPUT {expr};" if stmt.name is None else f"{stmt.name} = {expr};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# static checks

# Each checker yields the problems of one argument.  ``previous`` is the
# argument before it: a level is checked against the dimension it follows.

def _no_problems(catalog: DimensionCatalog, value, previous) -> Iterable[str]:
    return ()


def _condition_problems(catalog: DimensionCatalog, cond: Condition, previous) -> Iterable[str]:
    return olap.condition_problems(catalog, cond)


def _filter_problems(catalog: DimensionCatalog, flt: NodeFilter, previous) -> Iterable[str]:
    return metrics.filter_problems(catalog, flt)


def _step_problems(catalog: DimensionCatalog, step: RollupStep, previous) -> Iterable[str]:
    return catalog.step_problems(step)


def _dimension_problems(catalog: DimensionCatalog, dim: str, previous) -> Iterable[str]:
    return () if dim in catalog else (f"unknown dimension {dim!r}",)


def _level_problems(catalog: DimensionCatalog, level: str, dim: str) -> Iterable[str]:
    if dim in catalog and not catalog.schema(dim).has_level(level):
        yield f"dimension {dim} has no level {level!r}"


def _measure_problems(catalog: DimensionCatalog, measures, previous) -> Iterable[str]:
    return olap.measure_problems(measures)


def check(program: Program, catalog: DimensionCatalog, defined: set[str] | None = None) -> list[str]:
    """Name discipline and catalog-level validity, without evaluating."""
    report: list[str] = []
    env: set[str] = set(defined or ())

    def walk(expr, where: str) -> None:
        if isinstance(expr, Ref):
            if expr.name not in env:
                report.append(f"{where}: name {expr.name!r} used before definition")
            return
        if isinstance(expr, Load):
            return
        spec = _BY_NODE.get(type(expr))
        if spec is None:
            report.append(f"{where}: unknown expression {expr!r}")
            return
        walk(expr.source, where)
        previous = None
        for kind, value in zip(spec.kinds, _operands(expr)):
            report.extend(f"{where}: {problem}" for problem in KINDS[kind].check(catalog, value, previous))
            previous = value

    for stmt in program.statements:
        where = f"line {stmt.line}"
        walk(stmt.expr, where)
        if stmt.name is not None:
            if stmt.name in env:
                report.append(f"{where}: name {stmt.name!r} is already bound")
            env.add(stmt.name)
    return report


# ---------------------------------------------------------------------------
# the op table

class ArgKind(NamedTuple):
    parse: Callable[[_Parser], object]
    show: Callable[[object], str]
    check: Callable[[DimensionCatalog, object, object], Iterable[str]]


KINDS = {
    "targets": ArgKind(_Parser.target_set, _format_targets, _no_problems),
    "step": ArgKind(_Parser.step, _format_step, _step_problems),
    "type": ArgKind(_Parser.type_name, str, _no_problems),
    "edge": ArgKind(_Parser.edge_type_or_star, str, _no_problems),
    "dim": ArgKind(_Parser.dimension, str, _dimension_problems),
    "level": ArgKind(_Parser.level_name, str, _level_problems),
    "measures": ArgKind(_Parser.measures, _format_measures, _measure_problems),
    "condition": ArgKind(_Parser.condition, format_condition, _condition_problems),
    "filter": ArgKind(_Parser.node_filter, _format_filter, _filter_problems),
}


@dataclass(frozen=True)
class OpSpec:
    keyword: str
    node: type
    grammar: tuple[str, ...]  # separators and argument kinds after the source
    evaluate: Callable[..., object]  # (source graph, *arguments) -> value

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(item for item in self.grammar if item in KINDS)

    @property
    def required(self) -> int:
        """Fields of the node, the source included, that have no default."""
        return sum(f.default is MISSING for f in fields(self.node))


def _operands(op) -> list:
    """An op node's fields after its source, in grammar order."""
    return [getattr(op, f.name) for f in fields(op)[1:]]


def _late(module, name: str) -> Callable[..., object]:
    """Call ``module.name`` as it is bound at call time, so a wrapper swapped
    into the module (a tracer, a test double) sees the calls made here."""
    return lambda *args: getattr(module, name)(*args)


def _edgify(g: Graphoid, node_type: str, dimension: str) -> Graphoid:
    slot = g.node_type(node_type).slot_of(dimension)
    if slot is None:
        raise GraphoidError(f"type {node_type} lacks dimension {dimension}")
    return edgify(g, node_type, slot)


OPS = (
    OpSpec("CLIMB", ClimbOp, (",", "targets", ",", "step"), _late(olap, "climb")),
    OpSpec("MINIMIZE", MinimizeOp, (), _late(olap, "minimize")),
    OpSpec("GROUP", GroupOp, (",", "type", ",", "step"), _late(olap, "group")),
    OpSpec("AGGR", AggrOp, (",", "edge", ",", "measures"), _late(olap, "aggr")),
    OpSpec("ROLLUP", RollupOp, (",", "targets", ",", "step", ";", "edge", ",", "measures"), _late(olap, "roll_up")),
    OpSpec("DRILLDOWN", DrilldownOp, (",", "targets", ",", "dim", "->", "level", ";", "edge", ",", "measures"),
           _late(olap, "drill_down")),
    OpSpec("SLICE", SliceOp, (",", "dim", ";", "measures"), _late(olap, "slice_out")),
    OpSpec("DICE", DiceOp, (",", "condition"), _late(olap, "dice")),
    OpSpec("SDICE", SdiceOp, (",", "condition"), _late(olap, "s_dice")),
    OpSpec("NDELETE", NdeleteOp, (",", "type"), _late(olap, "n_delete")),
    OpSpec("EDGIFY", EdgifyOp, (",", "type", ",", "dim"), _edgify),
    OpSpec("SHORTESTPATHS", ShortestPathsOp, (",", "filter", ",", "filter", ",", "targets"),
           _late(metrics, "shortest_paths")),
)
OP_NAMES = tuple(spec.keyword for spec in OPS)
KEYWORDS = ("OUTPUT", "LOAD", "WHERE", "AND", "OR", "NOT") + OP_NAMES
_BY_KEYWORD = dict(zip(OP_NAMES, OPS))
_BY_NODE = {spec.node: spec for spec in OPS}


# ---------------------------------------------------------------------------
# evaluation

Loader = Callable[[str], Graphoid]


@dataclass
class EvalOutcome:
    bindings: dict[str, object]
    outputs: list[object]


def eval_program(
    program: Program,
    catalog: DimensionCatalog,
    loader: Loader | None = None,
    bindings: dict[str, object] | None = None,
) -> EvalOutcome:
    """Run the statements in order; OUTPUT values are collected in order."""
    env: dict[str, object] = dict(bindings or {})
    outputs: list[object] = []

    def graph_of(value, stmt) -> Graphoid:
        if not isinstance(value, Graphoid):
            raise GqlEvalError("expression expects a graph value", stmt.line, stmt.col)
        return value

    def evaluate(expr, stmt):
        if isinstance(expr, Ref):
            if expr.name not in env:
                raise GqlEvalError(f"name {expr.name!r} is not bound", stmt.line, stmt.col)
            return env[expr.name]
        if isinstance(expr, Load):
            if loader is None:
                raise GqlEvalError("LOAD is not available here", stmt.line, stmt.col)
            return loader(expr.path)
        spec = _BY_NODE.get(type(expr))
        if spec is None:
            raise GqlEvalError(f"cannot evaluate {expr!r}", stmt.line, stmt.col)
        return spec.evaluate(graph_of(evaluate(expr.source, stmt), stmt), *_operands(expr))

    for stmt in program.statements:
        try:
            value = evaluate(stmt.expr, stmt)
        except (GraphoidError, DimensionError) as exc:
            raise GqlEvalError(str(exc), stmt.line, stmt.col) from exc
        if stmt.name is None:
            outputs.append(value)
        else:
            if stmt.name in env:
                raise GqlEvalError(f"name {stmt.name!r} is already bound", stmt.line, stmt.col)
            env[stmt.name] = value
    return EvalOutcome(env, outputs)
