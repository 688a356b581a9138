"""Bug-injection mutation engine (paper §V "Bug injection").

Implements the paper's three data-centric mutation classes:

* **Negation** — insert a wrong ``~`` in front of an operand, or remove
  an existing one;
* **Variable misuse** — replace an operand identifier with another
  declared signal, preferring syntactically similar names (replicating
  copy-paste errors);
* **Operation substitution** — replace a Boolean/arithmetic operator
  with a different one from the same arity group (e.g. ``|`` -> ``&``).

One bug per mutated design (no masking interplay).  Mutants that would
create a combinational cycle (possible with variable misuse) are rejected
at sampling time via a conservative static cycle check.

A mutant shares structure with its golden design: :func:`apply_mutation`
copies only the path from the module down to the mutated statement plus
that statement's RHS, and every other node (and the ``decls``/``params``
tables) is the golden object.  This relies on ASTs being read-only after
parsing; the only in-place edits in the package are the ones
:func:`apply_mutation` makes to its own fresh copies.
"""

from __future__ import annotations

import copy
import difflib
from dataclasses import dataclass

import networkx as nx

from ..verilog.ast_nodes import (
    AlwaysBlock,
    Assignment,
    BinaryOp,
    BitSelect,
    CaseItem,
    ContinuousAssign,
    Identifier,
    Module,
    Node,
    PartSelect,
    Statement,
    UnaryOp,
)
from ..verilog.printer import statement_source

#: Operator substitution groups: any operator may be replaced by another
#: member of its group.
SUBSTITUTION_GROUPS: tuple[tuple[str, ...], ...] = (
    ("&", "|", "^"),
    ("&&", "||"),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("+", "-"),
    ("<<", ">>"),
)

_GROUP_OF: dict[str, tuple[str, ...]] = {
    op: group for group in SUBSTITUTION_GROUPS for op in group
}


@dataclass(frozen=True)
class Mutation:
    """A single planned mutation.

    Attributes:
        kind: "negation", "misuse", or "operation".
        stmt_id: Statement the mutation applies to.
        node_index: Index of the mutated node in the statement RHS
            pre-order walk (stable across mutants).
        detail: Human-readable description of the change.
        replacement: For misuse: the new identifier name.  For operation:
            the new operator.  For negation: "insert" or "remove".
    """

    kind: str
    stmt_id: int
    node_index: int
    detail: str
    replacement: str


def _rhs_nodes(stmt: Statement) -> list[Node]:
    """Pre-order nodes of a statement's RHS (index space for mutations)."""
    return list(stmt.rhs.walk())


def _similar_names(name: str, candidates: list[str]) -> list[str]:
    """Candidates ordered by syntactic similarity to ``name`` (stable, so
    filtering the result equals ranking the filtered candidates)."""
    return sorted(
        candidates,
        key=lambda c: difflib.SequenceMatcher(None, name, c).ratio(),
        reverse=True,
    )


def enumerate_mutations(
    module: Module,
    kinds: tuple[str, ...] = ("negation", "operation", "misuse"),
    misuse_candidates_per_site: int = 2,
    min_operands: int = 0,
    restrict_to: set[int] | None = None,
) -> list[Mutation]:
    """Enumerate every applicable mutation site in a design.

    Args:
        module: The golden design.
        kinds: Which mutation classes to enumerate.
        misuse_candidates_per_site: How many similar-name replacements to
            emit per identifier site.
        min_operands: Only mutate statements whose RHS references at
            least this many operand instances.  The paper's campaign
            targets *data-centric* bugs; single-operand statements have
            a degenerate attention vector ([1.0]) that carries no
            localization signal, so data-flow campaigns use
            ``min_operands=2``.
        restrict_to: Optional stmt_id filter, applied before any
            per-site work (the result equals filtering the unrestricted
            list afterwards).

    Returns:
        All mutations, statement order then node order.
    """
    mutations: list[Mutation] = []
    signal_names = list(module.decls)
    # The similarity ranking depends only on the operand: score it once.
    ranked: dict[str, list[str]] = {}
    for stmt in module.statements():
        if restrict_to is not None and stmt.stmt_id not in restrict_to:
            continue
        nodes = _rhs_nodes(stmt)
        n_operands = sum(1 for n in nodes if isinstance(n, Identifier))
        if n_operands < min_operands:
            continue
        source = statement_source(stmt)
        for index, node in enumerate(nodes):
            if "negation" in kinds:
                mutations.extend(_negation_mutations(stmt, index, node, source))
            if "operation" in kinds and isinstance(node, BinaryOp):
                group = _GROUP_OF.get(node.op, ())
                for new_op in group:
                    if new_op != node.op:
                        mutations.append(
                            Mutation(
                                kind="operation",
                                stmt_id=stmt.stmt_id,
                                node_index=index,
                                detail=f"{source}: {node.op!r} -> {new_op!r}",
                                replacement=new_op,
                            )
                        )
            if "misuse" in kinds and isinstance(node, Identifier):
                if node.name not in module.decls:
                    continue  # parameters are not misuse targets
                if node.name not in ranked:
                    width = module.decls[node.name].width
                    ranked[node.name] = _similar_names(
                        node.name,
                        [
                            c
                            for c in signal_names
                            if c != node.name and module.decls[c].width == width
                        ],
                    )
                replacements = [c for c in ranked[node.name] if c != stmt.target.name]
                for candidate in replacements[:misuse_candidates_per_site]:
                    mutations.append(
                        Mutation(
                            kind="misuse",
                            stmt_id=stmt.stmt_id,
                            node_index=index,
                            detail=f"{source}: {node.name} -> {candidate}",
                            replacement=candidate,
                        )
                    )
    return mutations


def _negation_mutations(
    stmt: Statement, index: int, node: Node, source: str
) -> list[Mutation]:
    out: list[Mutation] = []
    if isinstance(node, UnaryOp) and node.op == "~":
        out.append(
            Mutation(
                kind="negation",
                stmt_id=stmt.stmt_id,
                node_index=index,
                detail=f"{source}: remove ~ before {type(node.operand).__name__}",
                replacement="remove",
            )
        )
    elif isinstance(node, Identifier):
        out.append(
            Mutation(
                kind="negation",
                stmt_id=stmt.stmt_id,
                node_index=index,
                detail=f"{source}: insert ~ before {node.name}",
                replacement="insert",
            )
        )
    return out


def apply_mutation(module: Module, mutation: Mutation) -> Module:
    """Apply a mutation to a path copy of the design.

    The mutant is a new :class:`Module` whose nodes on the path down to
    the mutated statement are shallow copies, whose mutated statement
    and RHS are fresh copies, and whose every other node is shared with
    ``module`` by reference.

    Returns:
        The mutated module (the input module is never modified).

    Raises:
        ValueError: If the mutation site cannot be located or the mutation
            cannot be applied there.
    """
    found = _copy_path(module, mutation.stmt_id)
    if found is None:
        raise ValueError(f"no statement with id {mutation.stmt_id}")
    mutant, stmt = found
    nodes = _rhs_nodes(stmt)
    if mutation.node_index >= len(nodes):
        raise ValueError(f"node index {mutation.node_index} out of range")
    target_node = nodes[mutation.node_index]

    if mutation.kind == "negation":
        _apply_negation(stmt, target_node, mutation)
    elif mutation.kind == "operation":
        if not isinstance(target_node, BinaryOp):
            raise ValueError("operation mutation site is not a binary operator")
        target_node.op = mutation.replacement
    elif mutation.kind == "misuse":
        if not isinstance(target_node, Identifier):
            raise ValueError("misuse mutation site is not an identifier")
        target_node.name = mutation.replacement
    else:
        raise ValueError(f"unknown mutation kind {mutation.kind!r}")
    return mutant  # type: ignore[return-value]


#: Node types that can lie on the path from a module to an assignment.
_PATH_TYPES = (AlwaysBlock, Statement, CaseItem)


def _copy_path(node: Node, stmt_id: int) -> tuple[Node, Statement] | None:
    """Copy ``node`` with a fresh copy of assignment ``stmt_id`` and its RHS.

    Only the nodes on the path down to the assignment are (shallow)
    copied; everything else is shared.  Returns ``(copy, fresh
    assignment)``, or None when the assignment is not inside ``node``.
    """
    if isinstance(node, (Assignment, ContinuousAssign)):
        if node.stmt_id != stmt_id:
            return None
        fresh = copy.copy(node)
        fresh.rhs = copy.deepcopy(node.rhs)
        return fresh, fresh
    for attr, value in vars(node).items():
        if isinstance(value, _PATH_TYPES):
            found = _copy_path(value, stmt_id)
            if found is not None:
                clone = copy.copy(node)
                setattr(clone, attr, found[0])
                return clone, found[1]
        elif isinstance(value, list):
            for i, element in enumerate(value):
                if not isinstance(element, _PATH_TYPES):
                    break
                found = _copy_path(element, stmt_id)
                if found is not None:
                    clone = copy.copy(node)
                    setattr(clone, attr, [*value[:i], found[0], *value[i + 1 :]])
                    return clone, found[1]
    return None


def _apply_negation(stmt: Statement, node: Node, mutation: Mutation) -> None:
    if mutation.replacement == "remove":
        if not (isinstance(node, UnaryOp) and node.op == "~"):
            raise ValueError("negation-remove site is not a ~ operator")
        _replace_child(stmt, node, node.operand)
    else:
        if not isinstance(node, Identifier):
            raise ValueError("negation-insert site is not an identifier")
        # Verilog can only select from a named signal, so a select base
        # stays an identifier and the whole select is negated: ``~x[7:0]``.
        site = next(
            (
                parent
                for parent in stmt.rhs.walk()
                if isinstance(parent, (BitSelect, PartSelect))
                and parent.base is node
            ),
            node,
        )
        wrapper = UnaryOp(op="~", operand=site, line=site.line, col=site.col)
        _replace_child(stmt, site, wrapper)


def _replace_child(stmt: Statement, old: Node, new: Node) -> None:
    """Replace ``old`` with ``new`` anywhere in the statement RHS."""
    if stmt.rhs is old:
        stmt.rhs = new
        return
    for parent in stmt.rhs.walk():
        for attr, value in vars(parent).items():
            if value is old:
                setattr(parent, attr, new)
                return
            if isinstance(value, list):
                for i, element in enumerate(value):
                    if element is old:
                        value[i] = new
                        return
    raise ValueError("mutation site not found in statement")


def creates_combinational_cycle(module: Module) -> bool:
    """Check whether a design's combinational logic could oscillate.

    The simulator evaluates combinational processes in order and iterates
    to a fixpoint, so a read is only a *cross-pass* dependence when the
    variable is combinationally driven and has not yet been assigned
    unconditionally earlier in the same pass of the same process (ordered
    blocking-assignment semantics).  A cycle among cross-pass dependences
    means the fixpoint may not exist; we reject such mutants, matching
    real simulators rejecting oscillating netlists.

    The dependence structure is built by the lint layer's
    :func:`repro.lint.comb_feedback`; the ``cycle.comb`` lint rule and
    this rejection check share one analysis by construction.
    """
    from ..lint.cycles import comb_feedback

    graph, cross_edges = comb_feedback(module)
    # Oscillation requires a feedback loop whose state crosses evaluation
    # passes: a cycle in the full read graph containing a cross-pass edge.
    component_of: dict[str, int] = {}
    for index, component in enumerate(nx.strongly_connected_components(graph)):
        for node in component:
            component_of[node] = index
    for src, dst in cross_edges:
        if src == dst or component_of.get(src) == component_of.get(dst):
            return True
    return False


def dead_statement_ids(module: Module) -> set[int]:
    """Statement ids whose target is outside every output's cone.

    Delegates to the lint layer's dead-code analysis
    (:func:`repro.lint.unobservable_statement_ids`).  A bug injected into
    such a statement can never symptomatize at any output, so campaigns
    skip those sites (``sample_mutations(..., exclude_dead=True)``).
    Empty for designs without outputs.
    """
    from ..lint.deadcode import unobservable_statement_ids

    return unobservable_statement_ids(module)


def sample_mutations(
    module: Module,
    counts: dict[str, int],
    seed: int = 0,
    restrict_to: set[int] | None = None,
    min_operands: int = 0,
    exclude_dead: bool = False,
) -> list[Mutation]:
    """Sample a bug-injection campaign plan.

    Args:
        module: The golden design.
        counts: Mutation kind -> number of mutants to draw.
        seed: Sampling seed.
        restrict_to: Optional stmt_id filter; when localizing failures at
            a target output, restricting injection to the target's
            dependency cone mirrors the paper's per-target campaigns.
        min_operands: Forwarded to :func:`enumerate_mutations`; use 2
            for data-centric campaigns (see there).
        exclude_dead: Skip statements outside every output's dependency
            cone (:func:`dead_statement_ids`) — bugs there are
            unobservable.  A no-op when ``restrict_to`` is an output's
            cone, since dead statements are disjoint from it; sampling
            order (and thus the drawn plan) is unchanged in that case.

    Returns:
        The sampled mutations (cycle-inducing misuse mutants excluded).
    """
    import random

    rng = random.Random(seed)
    plan: list[Mutation] = []
    all_mutations = enumerate_mutations(
        module, kinds=tuple(counts), min_operands=min_operands, restrict_to=restrict_to
    )
    if exclude_dead:
        dead = dead_statement_ids(module)
        if dead:
            all_mutations = [m for m in all_mutations if m.stmt_id not in dead]
    # Negation and operation mutants keep every statement's identifier
    # list and structure, so the combinational read graph (and with it
    # the cycle verdict) is the golden design's; only misuse rewires it.
    golden_cycle = creates_combinational_cycle(module)
    for kind, count in counts.items():
        pool = [m for m in all_mutations if m.kind == kind]
        rng.shuffle(pool)
        taken = 0
        for mutation in pool:
            if taken >= count:
                break
            try:
                mutant = apply_mutation(module, mutation)
            except ValueError:
                continue
            if mutation.kind == "misuse":
                cyclic = creates_combinational_cycle(mutant)
            else:
                cyclic = golden_cycle
            if cyclic:
                continue
            plan.append(mutation)
            taken += 1
    return plan
