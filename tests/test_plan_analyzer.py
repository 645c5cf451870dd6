"""Tests for the static plan analyzer (:mod:`repro.analysis.plan`).

These pin the PR's tentpole contract: effect signatures stay consistent
with ``validation_scope()``, pre-flight diagnostics are exact (every
one reproduces as a dynamic failure), normalization rewrites preserve
what a plan computes, and ``Workspace.apply_plan`` is all-or-nothing.
"""

import pytest

from repro.analysis.plan import (
    PlanPreflightError,
    analyze_plan,
    conflict_edges,
    main as plan_main,
    normalize_plan,
)
from repro.concepts.base import ConceptKind
from repro.model.errors import SchemaError
from repro.model.fingerprint import schema_fingerprint
from repro.model.types import scalar
from repro.ops.attribute_ops import (
    AddAttribute,
    DeleteAttribute,
    ModifyAttributeType,
)
from repro.ops.base import OperationError
from repro.ops.effects import footprints_overlap
from repro.ops.type_ops import AddTypeDefinition, DeleteTypeDefinition
from repro.ops.type_property_ops import (
    AddExtentName,
    AddKeyList,
    AddSupertype,
    DeleteExtentName,
    ModifyExtentName,
)
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)


@pytest.fixture
def workspace(small):
    return Workspace(small, name="plan_ws")


def _generated_corpus():
    spec = WorkloadSpec(types=24, seed=7, isa_fraction=0.4,
                        part_of_chain=5, instance_of_chain=4)
    schema = generate_schema(spec)
    plan = generate_operations(schema, 60, seed=3)
    return schema, plan


class TestEffectSignatures:
    def test_signatures_consistent_with_validation_scope(self):
        """No declared write may escape ``validation_scope()``."""
        from repro.ops.effects import signature_scope_violations

        _, plan = _generated_corpus()
        for operation in plan:
            assert signature_scope_violations(operation) == []

    def test_conflicts_with_is_symmetric(self):
        _, plan = _generated_corpus()
        signatures = [operation.effect_signature() for operation in plan]
        for first in signatures[:30]:
            for second in signatures[:30]:
                assert (
                    (first.conflicts_with(second) is None)
                    == (second.conflicts_with(first) is None)
                )

    def test_indexed_overlap_matches_quadratic_reference(self):
        """conflicts_with must agree with the footprints_overlap reference."""
        _, plan = _generated_corpus()
        signatures = [operation.effect_signature() for operation in plan]
        for first in signatures[:30]:
            for second in signatures[:30]:
                reference = bool(
                    footprints_overlap(first.writes, second.writes)
                    or footprints_overlap(first.writes, second.reads)
                    or footprints_overlap(first.reads, second.writes)
                    or (first.binding_names() & second.mentioned_names())
                    or (second.binding_names() & first.mentioned_names())
                )
                assert (
                    first.conflicts_with(second) is not None
                ) == reference

    def test_membership_overlaps_every_aspect(self):
        delete = DeleteTypeDefinition("Person").effect_signature()
        add = AddAttribute(
            "Person", scalar("long"), "extra"
        ).effect_signature()
        assert delete.conflicts_with(add) is not None

    def test_disjoint_ops_commute(self):
        first = AddAttribute("Person", scalar("long"), "a")
        second = AddAttribute("Department", scalar("long"), "b")
        assert first.effect_signature().conflicts_with(
            second.effect_signature()
        ) is None


class TestPreflight:
    def test_unknown_type(self, small):
        analysis = analyze_plan(
            [AddAttribute("Ghost", scalar("long"), "x")], small
        )
        assert [d.code for d in analysis.diagnostics] == ["unknown-type"]
        assert analysis.diagnostics[0].index == 0
        assert not analysis.is_clean()

    def test_use_after_delete_names_the_deleting_op(self, small):
        plan = [
            DeleteTypeDefinition("Department"),
            AddAttribute("Department", scalar("long"), "x"),
        ]
        analysis = analyze_plan(plan, small)
        codes = {(d.index, d.code) for d in analysis.diagnostics}
        assert (1, "use-after-delete") in codes
        assert "op[0]" in analysis.diagnostics[0].message

    def test_create_then_use_is_clean(self, small):
        plan = [
            AddTypeDefinition("Fresh"),
            AddAttribute("Fresh", scalar("long"), "x"),
        ]
        assert analyze_plan(plan, small).is_clean()

    def test_duplicate_type(self, small):
        analysis = analyze_plan([AddTypeDefinition("Person")], small)
        assert [d.code for d in analysis.diagnostics] == ["duplicate-type"]

    def test_extent_state_add_over_existing(self, small):
        analysis = analyze_plan([AddExtentName("Person", "folk")], small)
        assert [d.code for d in analysis.diagnostics] == ["extent-state"]

    def test_extent_state_modify_wrong_old_name(self, small):
        analysis = analyze_plan(
            [ModifyExtentName("Person", "wrong", "folk")], small
        )
        assert [d.code for d in analysis.diagnostics] == ["extent-state"]

    def test_extent_state_delete_wrong_name(self, small):
        analysis = analyze_plan([DeleteExtentName("Person", "wrong")], small)
        assert [d.code for d in analysis.diagnostics] == ["extent-state"]

    def test_extent_clash_globally_unique(self, small):
        analysis = analyze_plan(
            [ModifyExtentName("Person", "people", "departments")], small
        )
        assert [d.code for d in analysis.diagnostics] == ["extent-clash"]

    def test_extent_add_on_extentless_type_is_clean(self, small):
        assert analyze_plan(
            [AddExtentName("Employee", "workers")], small
        ).is_clean()

    def test_failed_op_contributes_no_effects(self, small):
        """Skip-on-failure keeps the simulation exact for later ops."""
        plan = [
            AddExtentName("Person", "extra"),        # fails: has an extent
            ModifyExtentName("Person", "extra", "other"),  # still 'people'
        ]
        analysis = analyze_plan(plan, small)
        assert [(d.index, d.code) for d in analysis.diagnostics] == [
            (0, "extent-state"), (1, "extent-state"),
        ]

    def test_inadmissible_by_kind(self, small):
        analysis = analyze_plan(
            [AddSupertype("Department", "Person")],
            small,
            kind=ConceptKind.WAGON_WHEEL,
        )
        assert [d.code for d in analysis.diagnostics] == ["inadmissible"]
        assert analyze_plan(
            [AddSupertype("Department", "Person")],
            small,
            kind=ConceptKind.GENERALIZATION,
        ).is_clean()

    def test_every_diagnostic_is_a_real_dynamic_failure(self, small):
        """No false positives: diagnosed ops fail when actually applied."""
        plans = [
            [AddAttribute("Ghost", scalar("long"), "x")],
            [DeleteTypeDefinition("Department"),
             AddAttribute("Department", scalar("long"), "x")],
            [AddTypeDefinition("Person")],
            [AddExtentName("Person", "folk")],
            [ModifyExtentName("Person", "people", "departments")],
        ]
        for plan in plans:
            analysis = analyze_plan(plan, small)
            diagnosed = {d.index for d in analysis.diagnostics}
            assert diagnosed
            workspace = Workspace(small.copy(), name="dyncheck")
            for index, operation in enumerate(plan):
                if index in diagnosed:
                    with pytest.raises((OperationError, SchemaError)):
                        workspace.apply(operation)
                else:
                    workspace.apply(operation)

    def test_no_schema_checks_admissibility_only(self):
        analysis = analyze_plan(
            [AddAttribute("Nowhere", scalar("long"), "x")], schema=None
        )
        assert analysis.is_clean()


class TestConflictGraphAndBatches:
    def test_write_write_edge(self):
        plan = [
            AddAttribute("Person", scalar("long"), "a"),
            AddAttribute("Person", scalar("long"), "b"),
        ]
        edges = conflict_edges(
            [operation.effect_signature() for operation in plan]
        )
        assert len(edges) == 1
        assert edges[0].earlier == 0 and edges[0].later == 1
        assert "write-write" in edges[0].reason

    def test_wildcard_read_edge(self):
        plan = [
            AddAttribute("Person", scalar("long"), "a"),
            AddKeyList("Employee", ("name",)),
        ]
        edges = conflict_edges(
            [operation.effect_signature() for operation in plan]
        )
        assert any("read-after-write" in edge.reason for edge in edges)

    def test_edges_skippable(self, small):
        analysis = analyze_plan(
            [AddAttribute("Person", scalar("long"), "a")], small,
            edges=False,
        )
        assert analysis.edges == []
        assert analysis.is_clean()


class TestNormalization:
    def test_dead_attribute_pair_eliminated(self):
        plan = [
            AddAttribute("Person", scalar("long"), "tmp"),
            DeleteAttribute("Person", "tmp"),
        ]
        normalized, notes = normalize_plan(plan)
        assert normalized == []
        assert any("dead pair" in note for note in notes)

    def test_dead_pair_blocked_by_conflicting_op_between(self):
        # The key list reads (*, ATTRS): it may observe the attribute,
        # so the pair cannot be slid together and must survive.
        plan = [
            AddAttribute("Person", scalar("long"), "tmp"),
            AddKeyList("Employee", ("name",)),
            DeleteAttribute("Person", "tmp"),
        ]
        normalized, notes = normalize_plan(plan)
        assert normalized == plan
        assert notes == []

    def test_add_modify_fusion(self):
        plan = [
            AddAttribute("Person", scalar("long"), "age"),
            ModifyAttributeType(
                "Person", "age", scalar("long"), scalar("float")
            ),
        ]
        normalized, notes = normalize_plan(plan)
        assert len(normalized) == 1
        fused = normalized[0]
        assert isinstance(fused, AddAttribute)
        assert fused.domain_type == scalar("float")
        assert any("fused" in note for note in notes)

    def test_modify_chain_fusion(self):
        plan = [
            ModifyExtentName("Person", "people", "folk"),
            ModifyExtentName("Person", "folk", "citizens"),
        ]
        normalized, _ = normalize_plan(plan)
        assert len(normalized) == 1
        assert normalized[0].old_extent_name == "people"
        assert normalized[0].new_extent_name == "citizens"

    def test_identity_chain_dropped(self):
        plan = [
            ModifyExtentName("Person", "people", "folk"),
            ModifyExtentName("Person", "folk", "people"),
        ]
        normalized, notes = normalize_plan(plan)
        assert normalized == []
        assert any("identity" in note for note in notes)

    def test_type_group_elimination(self):
        plan = [
            AddTypeDefinition("Scratch"),
            AddAttribute("Scratch", scalar("long"), "x"),
            AddKeyList("Scratch", ("x",)),
            DeleteTypeDefinition("Scratch"),
        ]
        normalized, notes = normalize_plan(plan)
        assert normalized == []
        assert any("group" in note for note in notes)

    def test_normalized_plan_computes_the_same_schema(self, small):
        plan = [
            AddAttribute("Person", scalar("long"), "tmp"),
            AddAttribute("Department", scalar("string"), "label"),
            DeleteAttribute("Person", "tmp"),
            ModifyExtentName("Person", "people", "folk"),
            ModifyExtentName("Person", "folk", "citizens"),
        ]
        normalized, _ = normalize_plan(plan)
        assert len(normalized) < len(plan)
        original_ws = Workspace(small.copy(), name="orig")
        for operation in plan:
            original_ws.apply(operation)
        normalized_ws = Workspace(small.copy(), name="norm")
        for operation in normalized:
            normalized_ws.apply(operation)
        assert schema_fingerprint(original_ws.schema) == schema_fingerprint(
            normalized_ws.schema
        )


class TestApplyPlan:
    def test_matches_per_op_application(self, small):
        schema, plan = _generated_corpus()
        naive = Workspace(schema, name="naive")
        for operation in plan:
            naive.apply(operation)
        planned = Workspace(schema, name="planned")
        entries = planned.apply_plan(plan)
        assert schema_fingerprint(naive.schema) == schema_fingerprint(
            planned.schema
        )
        assert len(entries) == planned.undo_depth

    def test_preflight_rejection_leaves_workspace_untouched(self, workspace):
        before = schema_fingerprint(workspace.schema)
        with pytest.raises(PlanPreflightError) as excinfo:
            workspace.apply_plan([
                AddAttribute("Person", scalar("long"), "ok"),
                AddAttribute("Ghost", scalar("long"), "x"),
            ])
        assert excinfo.value.diagnostics[0].code == "unknown-type"
        assert schema_fingerprint(workspace.schema) == before
        assert workspace.undo_depth == 0

    def test_dynamic_failure_rolls_back_everything(self, workspace):
        before = schema_fingerprint(workspace.schema)
        plan = [
            AddAttribute("Person", scalar("long"), "fresh"),
            # Statically clean (the analyzer does not model
            # attribute-level state) but dynamically a duplicate.
            AddAttribute("Person", scalar("long"), "id"),
        ]
        assert analyze_plan(plan, workspace.schema).is_clean()
        with pytest.raises(OperationError):
            workspace.apply_plan(plan)
        assert schema_fingerprint(workspace.schema) == before
        assert workspace.undo_depth == 0
        assert workspace.redo_depth == 0

    def test_normalize_off_applies_plan_verbatim(self, workspace):
        plan = [
            AddAttribute("Person", scalar("long"), "tmp"),
            DeleteAttribute("Person", "tmp"),
        ]
        entries = workspace.apply_plan(plan, normalize=False)
        assert len(entries) == 2

    def test_normalize_on_skips_dead_work(self, workspace):
        plan = [
            AddAttribute("Person", scalar("long"), "tmp"),
            DeleteAttribute("Person", "tmp"),
        ]
        entries = workspace.apply_plan(plan)
        assert entries == []
        assert workspace.undo_depth == 0


class TestCLI:
    def test_clean_script_exits_zero(self, tmp_path, capsys):
        from tests.conftest import SMALL_ODL

        schema_file = tmp_path / "small.odl"
        schema_file.write_text(SMALL_ODL, encoding="utf-8")
        script = tmp_path / "plan.txt"
        script.write_text(
            "add_attribute(Person, long, extra);\n"
            "add_attribute(Department, long, floor);\n",
            encoding="utf-8",
        )
        code = plan_main([
            "--schema", str(schema_file), "--script", str(script),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pre-flight: clean" in out

    def test_diagnosed_script_exits_nonzero(self, tmp_path, capsys):
        from tests.conftest import SMALL_ODL

        schema_file = tmp_path / "small.odl"
        schema_file.write_text(SMALL_ODL, encoding="utf-8")
        script = tmp_path / "plan.txt"
        script.write_text(
            "add_attribute(Ghost, long, x);\n", encoding="utf-8"
        )
        code = plan_main([
            "--schema", str(schema_file), "--script", str(script),
            "--edges",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "unknown-type" in out
