"""Typed AST for the supported Verilog subset.

Every node carries a source location and exposes:

* ``node_type`` — the canonical name used by the context-extraction
  vocabulary (paper §IV-B: paths are sequences of AST node types, with
  operators mapped to distinct names such as ``And``, ``Or``, ``Not``).
* ``children()`` — child nodes in source order, enabling generic walks.

Statements additionally carry a stable ``stmt_id`` (assigned by the parser
in source order) that the simulator, slicer, and explainer all use as the
statement key.

ASTs are read-only once parsed.  Caches key on node identity (the
simulator's compile cache on the module object), and a mutant from
:func:`repro.datagen.mutation.apply_mutation` shares every node it does
not change with its golden design, so an in-place edit would leak into
every design that shares the node.  Derive a changed design as a new
tree instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

# ----------------------------------------------------------------------
# Operator name tables (operator symbol -> vocabulary node type)
# ----------------------------------------------------------------------

BINARY_OP_NAMES = {
    "&": "And",
    "|": "Or",
    "^": "Xor",
    "~^": "Xnor",
    "^~": "Xnor",
    "&&": "LogicalAnd",
    "||": "LogicalOr",
    "==": "Equal",
    "!=": "NotEqual",
    "===": "CaseEqual",
    "!==": "CaseNotEqual",
    "<": "LessThan",
    ">": "GreaterThan",
    "<=": "LessEqual",
    ">=": "GreaterEqual",
    "+": "Plus",
    "-": "Minus",
    "*": "Times",
    "/": "Divide",
    "%": "Mod",
    "<<": "ShiftLeft",
    ">>": "ShiftRight",
    "<<<": "ArithShiftLeft",
    ">>>": "ArithShiftRight",
}

UNARY_OP_NAMES = {
    "~": "Not",
    "!": "LogicalNot",
    "-": "UnaryMinus",
    "+": "UnaryPlus",
    "&": "ReduceAnd",
    "|": "ReduceOr",
    "^": "ReduceXor",
    "~&": "ReduceNand",
    "~|": "ReduceNor",
    "~^": "ReduceXnor",
    "^~": "ReduceXnor",
}


@dataclass
class Node:
    """Base class of all AST nodes."""

    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)

    @property
    def node_type(self) -> str:
        """Canonical node-type name used by the context vocabulary."""
        return type(self).__name__

    def children(self) -> Iterator["Node"]:
        """Yield child nodes in source order."""
        return iter(())

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants in pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expressions."""


@dataclass
class Identifier(Expr):
    """A reference to a declared signal or parameter."""

    name: str = ""

    @property
    def node_type(self) -> str:
        return "Identifier"


@dataclass
class Number(Expr):
    """A numeric literal with an optional explicit width.

    Attributes:
        value: The integer value (two-state: x/z digits are folded to 0).
        width: Explicit bit width, or None for unsized literals.
        text: Original source text, preserved for printing.
    """

    value: int = 0
    width: int | None = None
    text: str = ""

    @property
    def node_type(self) -> str:
        return "Constant"


@dataclass
class UnaryOp(Expr):
    """A unary operator application (logical, bitwise, or reduction)."""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]

    @property
    def node_type(self) -> str:
        return UNARY_OP_NAMES[self.op]

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass
class BinaryOp(Expr):
    """A binary operator application."""

    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]

    @property
    def node_type(self) -> str:
        return BINARY_OP_NAMES[self.op]

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right


@dataclass
class Ternary(Expr):
    """The conditional operator ``cond ? then : else``."""

    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    otherwise: Expr = None  # type: ignore[assignment]

    @property
    def node_type(self) -> str:
        return "Conditional"

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then
        yield self.otherwise


@dataclass
class BitSelect(Expr):
    """A single-bit select ``base[index]``."""

    base: Identifier = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]

    @property
    def node_type(self) -> str:
        return "BitSelect"

    def children(self) -> Iterator[Node]:
        yield self.base
        yield self.index


@dataclass
class PartSelect(Expr):
    """A constant part select ``base[msb:lsb]``."""

    base: Identifier = None  # type: ignore[assignment]
    msb: Expr = None  # type: ignore[assignment]
    lsb: Expr = None  # type: ignore[assignment]

    @property
    def node_type(self) -> str:
        return "PartSelect"

    def children(self) -> Iterator[Node]:
        yield self.base
        yield self.msb
        yield self.lsb


@dataclass
class Concat(Expr):
    """A concatenation ``{a, b, c}``."""

    parts: list[Expr] = field(default_factory=list)

    @property
    def node_type(self) -> str:
        return "Concat"

    def children(self) -> Iterator[Node]:
        yield from self.parts


@dataclass
class Repeat(Expr):
    """A replication ``{count{expr}}`` with a constant count."""

    count: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]

    @property
    def node_type(self) -> str:
        return "Repeat"

    def children(self) -> Iterator[Node]:
        yield self.count
        yield self.value


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


@dataclass
class Lvalue(Node):
    """An assignment target: an identifier with an optional bit/part select."""

    name: str = ""
    index: Expr | None = None
    msb: Expr | None = None
    lsb: Expr | None = None

    @property
    def node_type(self) -> str:
        return "Lvalue"

    def children(self) -> Iterator[Node]:
        if self.index is not None:
            yield self.index
        if self.msb is not None:
            yield self.msb
        if self.lsb is not None:
            yield self.lsb


@dataclass
class Statement(Node):
    """Base class for procedural statements."""

    stmt_id: int = field(default=-1, kw_only=True)


@dataclass
class Assignment(Statement):
    """A procedural assignment (blocking or non-blocking)."""

    target: Lvalue = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]
    blocking: bool = True

    @property
    def node_type(self) -> str:
        return "BlockingAssignment" if self.blocking else "NonBlockingAssignment"

    def children(self) -> Iterator[Node]:
        yield self.target
        yield self.rhs


@dataclass
class Block(Statement):
    """A ``begin ... end`` sequential block."""

    statements: list[Statement] = field(default_factory=list)

    @property
    def node_type(self) -> str:
        return "Block"

    def children(self) -> Iterator[Node]:
        yield from self.statements


@dataclass
class If(Statement):
    """An ``if (cond) then_stmt [else else_stmt]`` statement."""

    cond: Expr = None  # type: ignore[assignment]
    then_stmt: Statement = None  # type: ignore[assignment]
    else_stmt: Statement | None = None

    @property
    def node_type(self) -> str:
        return "IfStatement"

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then_stmt
        if self.else_stmt is not None:
            yield self.else_stmt


@dataclass
class CaseItem(Node):
    """One arm of a case statement; ``labels`` is empty for ``default``."""

    labels: list[Expr] = field(default_factory=list)
    body: Statement = None  # type: ignore[assignment]

    @property
    def node_type(self) -> str:
        return "CaseItem"

    def children(self) -> Iterator[Node]:
        yield from self.labels
        yield self.body


@dataclass
class Case(Statement):
    """A ``case``/``casez``/``casex`` statement."""

    subject: Expr = None  # type: ignore[assignment]
    items: list[CaseItem] = field(default_factory=list)
    kind: str = "case"

    @property
    def node_type(self) -> str:
        return "CaseStatement"

    def children(self) -> Iterator[Node]:
        yield self.subject
        yield from self.items


# ----------------------------------------------------------------------
# Module-level constructs
# ----------------------------------------------------------------------


@dataclass
class NetDecl(Node):
    """A signal declaration (input/output/wire/reg, possibly several kinds).

    Attributes:
        name: Signal name.
        kinds: Subset of {"input", "output", "inout", "wire", "reg", "integer"}.
        msb, lsb: Constant range bounds; both 0 for scalar signals.
        signed: True for ``signed`` declarations.
    """

    name: str = ""
    kinds: frozenset[str] = frozenset()
    msb: int = 0
    lsb: int = 0
    signed: bool = False

    @property
    def width(self) -> int:
        """Bit width of the declared signal."""
        return abs(self.msb - self.lsb) + 1

    @property
    def is_input(self) -> bool:
        return "input" in self.kinds

    @property
    def is_output(self) -> bool:
        return "output" in self.kinds

    @property
    def is_reg(self) -> bool:
        return "reg" in self.kinds or "integer" in self.kinds


@dataclass
class ParamDecl(Node):
    """A ``parameter`` or ``localparam`` declaration with a constant value."""

    name: str = ""
    value: int = 0
    local: bool = False


@dataclass
class ContinuousAssign(Statement):
    """A module-level ``assign target = expr;``."""

    target: Lvalue = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]

    @property
    def node_type(self) -> str:
        return "ContinuousAssign"

    def children(self) -> Iterator[Node]:
        yield self.target
        yield self.rhs


@dataclass
class SensItem(Node):
    """One sensitivity-list entry: ``posedge sig``, ``negedge sig``, or ``sig``."""

    edge: str = "level"  # "posedge" | "negedge" | "level"
    signal: str = ""


@dataclass
class AlwaysBlock(Node):
    """An ``always @(...)`` block.

    ``sens`` empty means ``@(*)`` (combinational, implicit sensitivity).
    """

    sens: list[SensItem] = field(default_factory=list)
    body: Statement = None  # type: ignore[assignment]

    @property
    def node_type(self) -> str:
        return "AlwaysBlock"

    @property
    def is_clocked(self) -> bool:
        """True when any sensitivity item is edge-triggered."""
        return any(item.edge != "level" for item in self.sens)

    def children(self) -> Iterator[Node]:
        yield self.body


@dataclass
class Module(Node):
    """A parsed Verilog module.

    ``directives`` records the backtick compiler directives the lexer
    skipped while tokenizing the module's source (the subset has no
    preprocessor); ingestion reports surface them as diagnostics.
    """

    name: str = ""
    ports: list[str] = field(default_factory=list)
    decls: dict[str, NetDecl] = field(default_factory=dict)
    params: dict[str, ParamDecl] = field(default_factory=dict)
    assigns: list[ContinuousAssign] = field(default_factory=list)
    always_blocks: list[AlwaysBlock] = field(default_factory=list)
    directives: list = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.assigns
        yield from self.always_blocks

    @property
    def inputs(self) -> list[str]:
        """Names of input ports in declaration order."""
        return [n for n, d in self.decls.items() if d.is_input]

    @property
    def outputs(self) -> list[str]:
        """Names of output ports in declaration order."""
        return [n for n, d in self.decls.items() if d.is_output]

    def signal_width(self, name: str) -> int:
        """Width of a declared signal; raises KeyError for unknown names."""
        return self.decls[name].width

    def statements(self) -> list[Statement]:
        """All assignment statements in the module, in stmt_id order.

        Includes continuous assigns and every procedural :class:`Assignment`
        nested anywhere inside always blocks.
        """
        found: list[Statement] = list(self.assigns)
        for blk in self.always_blocks:
            for node in blk.body.walk():
                if isinstance(node, Assignment):
                    found.append(node)
        found.sort(key=lambda s: s.stmt_id)
        return found

    def statement_by_id(self, stmt_id: int) -> Statement:
        """Look up an assignment statement by its stable id."""
        for stmt in self.statements():
            if stmt.stmt_id == stmt_id:
                return stmt
        raise KeyError(f"no statement with id {stmt_id}")


def collect_identifiers(expr: Node) -> list[str]:
    """Return names of all identifiers referenced in an expression subtree.

    Names are returned in first-use order without duplicates.
    """
    seen: list[str] = []
    for node in expr.walk():
        if isinstance(node, Identifier) and node.name not in seen:
            seen.append(node.name)
    return seen
