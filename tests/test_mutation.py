"""Tests for the mutation (bug-injection) engine."""

import copy
import difflib
import pathlib
import random

import pytest

from repro.analysis import compute_static_slice
from repro.api import DEFAULT_PLAN
from repro.datagen import (
    Mutation,
    apply_mutation,
    creates_combinational_cycle,
    dead_statement_ids,
    enumerate_mutations,
    sample_mutations,
)
from repro.designs import REGISTRY, load_design
from repro.ingest import ingest_directory
from repro.sim import (
    SimulationError,
    Simulator,
    TestbenchConfig,
    generate_testbench_suite,
)
from repro.verilog import parse_module
from repro.verilog.ast_nodes import BitSelect, Identifier, PartSelect, UnaryOp
from repro.verilog.printer import format_module, statement_source

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "examples" / "corpus"

SIMPLE = (
    "module t(a, b, c, y); input a, b, c; output y;"
    " assign y = a & ~b | c; endmodule"
)


class TestEnumeration:
    def test_all_kinds_present(self):
        kinds = {m.kind for m in enumerate_mutations(parse_module(SIMPLE))}
        assert kinds == {"negation", "operation", "misuse"}

    def test_negation_insert_sites(self):
        muts = enumerate_mutations(parse_module(SIMPLE), kinds=("negation",))
        inserts = [m for m in muts if m.replacement == "insert"]
        assert len(inserts) == 3  # a, b, c

    def test_negation_remove_sites(self):
        muts = enumerate_mutations(parse_module(SIMPLE), kinds=("negation",))
        removes = [m for m in muts if m.replacement == "remove"]
        assert len(removes) == 1  # the ~b

    def test_operation_substitutions_within_group(self):
        muts = enumerate_mutations(parse_module(SIMPLE), kinds=("operation",))
        replacements = {m.replacement for m in muts}
        assert replacements <= {"&", "|", "^"}
        assert len(muts) == 4  # two ops x two alternatives each

    def test_misuse_same_width_only(self):
        src = (
            "module t(a, b, w, y); input a, b; input [3:0] w; output y;"
            " assign y = a & b; endmodule"
        )
        muts = enumerate_mutations(parse_module(src), kinds=("misuse",))
        assert all(m.replacement != "w" for m in muts)

    def test_misuse_excludes_own_target(self):
        muts = enumerate_mutations(parse_module(SIMPLE), kinds=("misuse",))
        assert all(m.replacement != "y" for m in muts)

    @pytest.mark.parametrize("per_site", [1, 2, 5])
    def test_misuse_ranking_matches_per_site_scoring(self, per_site):
        corpus = ingest_directory(CORPUS)
        modules = [load_design(n) for n in REGISTRY] + [
            corpus.module(n) for n in corpus.names()
        ]
        for module in modules:
            assert enumerate_mutations(
                module, kinds=("misuse",), misuse_candidates_per_site=per_site
            ) == _reference_misuse(module, per_site)

    def test_parameters_not_misused(self):
        src = (
            "module t(a, y); parameter P = 1; input a; output y;"
            " assign y = a & P; endmodule"
        )
        muts = enumerate_mutations(parse_module(src), kinds=("misuse",))
        # P itself is not a site; only 'a' is.
        assert all("P ->" not in m.detail for m in muts)


def _reference_misuse(module, per_site=2):
    """Misuse mutations by per-site similarity scoring (no shared ranking)."""
    out = []
    for stmt in module.statements():
        source = statement_source(stmt)
        for index, node in enumerate(stmt.rhs.walk()):
            if not isinstance(node, Identifier) or node.name not in module.decls:
                continue
            width = module.decls[node.name].width
            candidates = [
                c
                for c in module.decls
                if c not in (node.name, stmt.target.name)
                and module.decls[c].width == width
            ]
            candidates.sort(
                key=lambda c: difflib.SequenceMatcher(None, node.name, c).ratio(),
                reverse=True,
            )
            out += [
                Mutation("misuse", stmt.stmt_id, index, f"{source}: {node.name} -> {c}", c)
                for c in candidates[:per_site]
            ]
    return out


class TestApplication:
    def test_negation_insert(self):
        m = parse_module(SIMPLE)
        mut = [
            x
            for x in enumerate_mutations(m, kinds=("negation",))
            if x.replacement == "insert" and "before a" in x.detail
        ][0]
        mutant = apply_mutation(m, mut)
        assert "~a" in statement_source(mutant.statements()[0])

    def test_negation_remove(self):
        m = parse_module(SIMPLE)
        mut = [
            x
            for x in enumerate_mutations(m, kinds=("negation",))
            if x.replacement == "remove"
        ][0]
        mutant = apply_mutation(m, mut)
        assert "~" not in statement_source(mutant.statements()[0])

    def test_operation_substitution(self):
        m = parse_module(SIMPLE)
        mut = [
            x
            for x in enumerate_mutations(m, kinds=("operation",))
            if "'|' -> '&'" in x.detail or x.replacement == "^"
        ][0]
        mutant = apply_mutation(m, mut)
        assert format_module(mutant) != format_module(m)

    def test_misuse_replacement(self):
        m = parse_module(SIMPLE)
        mut = enumerate_mutations(m, kinds=("misuse",))[0]
        mutant = apply_mutation(m, mut)
        assert format_module(mutant) != format_module(m)

    def test_golden_never_modified(self):
        m = parse_module(SIMPLE)
        before = format_module(m)
        for mut in enumerate_mutations(m)[:10]:
            apply_mutation(m, mut)
        assert format_module(m) == before

    def test_mutant_is_simulatable(self):
        m = parse_module(SIMPLE)
        for mut in enumerate_mutations(m)[:8]:
            mutant = apply_mutation(m, mut)
            trace = Simulator(mutant).run([{"a": 1, "b": 0, "c": 1}])
            assert trace.n_cycles == 1

    def test_bad_node_index_raises(self):
        m = parse_module(SIMPLE)
        bad = Mutation(
            kind="operation", stmt_id=0, node_index=999, detail="", replacement="&"
        )
        with pytest.raises(ValueError):
            apply_mutation(m, bad)

    def test_kind_site_mismatch_raises(self):
        m = parse_module(SIMPLE)
        bad = Mutation(
            kind="misuse", stmt_id=0, node_index=0, detail="", replacement="a"
        )  # node 0 is the top-level BinaryOp, not an Identifier
        with pytest.raises(ValueError):
            apply_mutation(m, bad)

    def test_unknown_statement_raises_value_error(self):
        m = parse_module(SIMPLE)
        bad = Mutation(
            kind="negation", stmt_id=9999, node_index=0, detail="", replacement="insert"
        )
        with pytest.raises(ValueError, match="9999"):
            apply_mutation(m, bad)

    def test_unknown_kind_raises(self):
        m = parse_module(SIMPLE)
        bad = Mutation(kind="alien", stmt_id=0, node_index=0, detail="", replacement="")
        with pytest.raises(ValueError):
            apply_mutation(m, bad)


class TestCycleCheck:
    def test_golden_arbiter_is_clean(self, arbiter):
        assert not creates_combinational_cycle(arbiter)

    def test_assign_loop_detected(self):
        m = parse_module(
            "module t(x, y); input x; output y; wire a, b;"
            " assign a = ~b; assign b = a & x; assign y = b; endmodule"
        )
        assert creates_combinational_cycle(m)

    def test_self_loop_detected(self):
        m = parse_module(
            "module t(x, y); input x; output y; assign y = y ^ x; endmodule"
        )
        assert creates_combinational_cycle(m)

    def test_blocking_chain_with_defaults_is_clean(self):
        m = parse_module(
            "module t(a, y); input a; output reg y; reg n;"
            " always @(*) begin n = a; n = n ^ a; y = n; end endmodule"
        )
        assert not creates_combinational_cycle(m)

    def test_use_before_def_in_block_is_cross_pass(self):
        # y reads n before n is assigned: n's value comes from the previous
        # pass, and n depends on y -> cycle.
        m = parse_module(
            "module t(a, y); input a; output reg y; reg n;"
            " always @(*) begin y = n; n = y ^ a; end endmodule"
        )
        assert creates_combinational_cycle(m)

    def test_clocked_feedback_is_fine(self, arbiter):
        # state feeds back through a clocked block; that's sequential, OK.
        assert not creates_combinational_cycle(arbiter)


class TestSampling:
    def test_counts_respected(self):
        m = parse_module(SIMPLE)
        plan = sample_mutations(m, {"negation": 2, "operation": 2}, seed=0)
        kinds = [p.kind for p in plan]
        assert kinds.count("negation") == 2
        assert kinds.count("operation") == 2

    def test_restrict_to_filter(self, arbiter):
        plan = sample_mutations(arbiter, {"negation": 10}, seed=0, restrict_to={2})
        assert all(p.stmt_id == 2 for p in plan)

    def test_deterministic(self):
        m = parse_module(SIMPLE)
        p1 = sample_mutations(m, {"misuse": 3}, seed=4)
        p2 = sample_mutations(m, {"misuse": 3}, seed=4)
        assert p1 == p2

    def test_pool_exhaustion_is_graceful(self):
        m = parse_module(SIMPLE)
        plan = sample_mutations(m, {"negation": 999}, seed=0)
        assert 0 < len(plan) < 999


# ----------------------------------------------------------------------
# Structure sharing: a mutant is a path copy of its golden design
# ----------------------------------------------------------------------


def _reference_apply(golden, mutation):
    """Apply ``mutation`` to a deep copy of ``golden`` (full-copy reference)."""
    mutant = copy.deepcopy(golden)
    stmt = mutant.statement_by_id(mutation.stmt_id)
    node = list(stmt.rhs.walk())[mutation.node_index]
    if mutation.kind == "operation":
        node.op = mutation.replacement
    elif mutation.kind == "misuse":
        node.name = mutation.replacement
    elif mutation.replacement == "remove":
        _reference_replace(stmt, node, node.operand)
    else:
        # Negating a select base negates the whole select.
        for parent in stmt.rhs.walk():
            if isinstance(parent, (BitSelect, PartSelect)) and parent.base is node:
                node = parent
                break
        wrapper = UnaryOp(op="~", operand=node, line=node.line, col=node.col)
        _reference_replace(stmt, node, wrapper)
    return mutant


def _reference_replace(stmt, old, new):
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
    raise AssertionError("site not found")


def _assert_path_copies(golden):
    """Every enumerated mutant equals the full-copy reference, leaves the
    golden design untouched, and shares every statement it does not change."""
    before = format_module(golden)
    snapshot = copy.deepcopy(golden)
    golden_nodes = {id(node) for node in golden.walk()}
    golden_stmts = {s.stmt_id: s for s in golden.statements()}
    mutations = enumerate_mutations(golden)
    assert mutations
    for mutation in mutations:
        mutant = apply_mutation(golden, mutation)
        assert mutant is not golden
        # Dataclass equality compares every field of every node, so it
        # implies equal printed source.
        assert mutant == _reference_apply(golden, mutation), mutation.detail
        assert mutant.decls is golden.decls
        assert mutant.params is golden.params
        for stmt in mutant.statements():
            if stmt.stmt_id == mutation.stmt_id:
                assert id(stmt) not in golden_nodes
                assert all(id(n) not in golden_nodes for n in stmt.rhs.walk())
            else:
                assert stmt is golden_stmts[stmt.stmt_id]
    assert format_module(golden) == before
    assert golden == snapshot


class TestStructureSharing:
    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_registry_mutants_are_path_copies(self, name):
        _assert_path_copies(load_design(name))

    def test_corpus_mutants_are_path_copies(self):
        corpus = ingest_directory(CORPUS)
        assert len(corpus) >= 24
        for name in corpus.names():
            _assert_path_copies(corpus.module(name))

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_golden_simulator_unaffected_by_mutants(self, name):
        golden = load_design(name)
        stimuli = generate_testbench_suite(golden, 3, TestbenchConfig(n_cycles=6), seed=2)
        simulator = Simulator(golden)
        program = simulator.program
        before = [(t.outputs, list(t.executions)) for t in simulator.run_suite(stimuli)]
        mutations = enumerate_mutations(golden)
        for mutation in random.Random(0).sample(mutations, min(12, len(mutations))):
            mutant = apply_mutation(golden, mutation)
            try:
                Simulator(mutant).run_suite(stimuli)
            except SimulationError:
                pass  # an oscillating mutant is irrelevant here
        assert simulator.program is program
        assert Simulator(golden).program is program
        after = [(t.outputs, list(t.executions)) for t in simulator.run_suite(stimuli)]
        assert after == before


def _assert_negation_inserts_run(golden):
    """Every negation-insert mutant prints, and the interpreted oracle and
    the compiled engine simulate it identically."""
    stimuli = generate_testbench_suite(golden, 2, TestbenchConfig(n_cycles=6), seed=4)
    inserts = [
        m for m in enumerate_mutations(golden, kinds=("negation",))
        if m.replacement == "insert"
    ]
    for mutation in inserts:
        mutant = apply_mutation(golden, mutation)
        format_module(mutant)
        runs = {}
        for engine in ("interpreted", "compiled"):
            try:
                traces = Simulator(mutant, engine=engine).run_suite(stimuli)
                runs[engine] = [(t.outputs, list(t.executions)) for t in traces]
            except SimulationError:
                runs[engine] = "oscillates"
        assert runs["interpreted"] == runs["compiled"], mutation.detail


class TestNegationInsert:
    def test_select_base_negates_the_whole_select(self):
        golden = parse_module(
            "module t(a, y); input [7:0] a; output [3:0] y;"
            " assign y = a[5:2]; endmodule"
        )
        (mutation,) = enumerate_mutations(golden, kinds=("negation",))
        assert mutation.replacement == "insert"
        mutant = apply_mutation(golden, mutation)
        assert statement_source(mutant.statements()[0]).endswith("~a[5:2];")

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_registry_negation_inserts_run(self, name):
        _assert_negation_inserts_run(load_design(name))

    def test_corpus_negation_inserts_run(self):
        corpus = ingest_directory(CORPUS)
        for name in corpus.names():
            _assert_negation_inserts_run(corpus.module(name))


# ----------------------------------------------------------------------
# Sampling equivalence: cone-scoped enumeration + one golden cycle verdict
# ----------------------------------------------------------------------


def _reference_sample(
    module, counts, seed=0, restrict_to=None, min_operands=0, exclude_dead=False
):
    """Filter after enumerating; run the cycle check on every candidate."""
    rng = random.Random(seed)
    candidates = enumerate_mutations(module, kinds=tuple(counts), min_operands=min_operands)
    if restrict_to is not None:
        candidates = [m for m in candidates if m.stmt_id in restrict_to]
    if exclude_dead:
        dead = dead_statement_ids(module)
        candidates = [m for m in candidates if m.stmt_id not in dead]
    plan = []
    for kind, count in counts.items():
        pool = [m for m in candidates if m.kind == kind]
        rng.shuffle(pool)
        taken = 0
        for mutation in pool:
            if taken >= count:
                break
            try:
                mutant = apply_mutation(module, mutation)
            except ValueError:
                continue
            if creates_combinational_cycle(mutant):
                continue
            plan.append(mutation)
            taken += 1
    return plan


#: The golden design already oscillates (m <-> n).
CYCLIC_GOLDEN = (
    "module t(a, b, y); input a, b; output y; wire m, n;"
    " assign m = n & a; assign n = m | ~b; assign y = m ^ b; endmodule"
)

#: Misusing ``a`` as ``y`` in ``m = a & b`` closes the loop m -> n -> y -> m.
MISUSE_CYCLE = (
    "module t(a, b, y); input a, b; output y; wire m, n;"
    " assign m = a & b; assign n = m | a; assign y = n ^ b; endmodule"
)


class TestSamplingEquivalence:
    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_matches_reference_on_registry(self, name):
        module = load_design(name)
        cones = [None] + [
            compute_static_slice(module, out).stmt_ids for out in module.outputs
        ]
        for seed in range(10):
            for cone in cones:
                kwargs = dict(seed=seed, restrict_to=cone, min_operands=2, exclude_dead=True)
                assert sample_mutations(module, dict(DEFAULT_PLAN), **kwargs) == (
                    _reference_sample(module, dict(DEFAULT_PLAN), **kwargs)
                )

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_cone_scoped_enumeration_equals_filtered(self, name):
        module = load_design(name)
        full = enumerate_mutations(module)
        for out in module.outputs:
            cone = compute_static_slice(module, out).stmt_ids
            assert enumerate_mutations(module, restrict_to=cone) == [
                m for m in full if m.stmt_id in cone
            ]

    def test_cyclic_golden_rejects_every_negation_and_operation(self):
        module = parse_module(CYCLIC_GOLDEN)
        assert creates_combinational_cycle(module)
        counts = {"negation": 99, "operation": 99, "misuse": 99}
        assert any(m.kind != "misuse" for m in enumerate_mutations(module))
        for seed in range(5):
            plan = sample_mutations(module, counts, seed=seed)
            assert all(m.kind == "misuse" for m in plan)
            assert plan == _reference_sample(module, counts, seed=seed)

    def test_cycle_creating_misuse_is_rejected(self):
        module = parse_module(MISUSE_CYCLE)
        assert not creates_combinational_cycle(module)
        misuses = enumerate_mutations(module, kinds=("misuse",))
        cyclic = [
            m for m in misuses if creates_combinational_cycle(apply_mutation(module, m))
        ]
        assert any(m.stmt_id == 0 and m.replacement == "y" for m in cyclic)
        for seed in range(5):
            plan = sample_mutations(module, {"misuse": 99}, seed=seed)
            assert plan and not set(plan) & set(cyclic)
            assert sorted(plan, key=misuses.index) == [
                m for m in misuses if m not in cyclic
            ]
            assert plan == _reference_sample(module, {"misuse": 99}, seed=seed)
