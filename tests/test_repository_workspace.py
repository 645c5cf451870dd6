"""Unit tests for the workspace (apply / undo / redo / log)."""

import itertools

import pytest

from repro.catalog import SCHEMA_BUILDERS
from repro.concepts.base import ConceptKind
from repro.concepts.decompose import decompose
from repro.knowledge.propagation import expand
from repro.model.attributes import Attribute
from repro.model.fingerprint import schema_fingerprint, schemas_equal
from repro.model.interface import InterfaceDef
from repro.model.types import NamedType, scalar
from repro.model.validation import validate_schema
from repro.ops.attribute_ops import AddAttribute, DeleteAttribute
from repro.ops.base import (
    ConstraintViolation,
    InadmissibleOperationError,
    OperationContext,
)
from repro.ops.composite import CompositeOperation
from repro.ops.type_ops import DeleteTypeDefinition
from repro.ops.type_property_ops import AddSupertype, DeleteSupertype
from repro.repository.workspace import Workspace


@pytest.fixture
def workspace(small):
    return Workspace(small, name="small_custom")


class TestApply:
    def test_apply_changes_workspace_not_reference(self, workspace):
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        assert "dob" in workspace.schema.get("Person").attributes
        assert "dob" not in workspace.reference.get("Person").attributes

    def test_propagation_by_default(self, workspace):
        entry = workspace.apply(DeleteTypeDefinition("Department"))
        assert len(entry.plan) == 2
        workspace.schema.validate()

    def test_propagation_disabled_fails_on_referenced_type(self, workspace):
        with pytest.raises(ConstraintViolation):
            workspace.apply(DeleteTypeDefinition("Department"), propagate=False)
        # The failed apply must leave the workspace untouched.
        assert schemas_equal(workspace.schema, workspace.reference)
        assert workspace.log == []

    def test_concept_admissibility_enforced(self, workspace):
        wheel = decompose(workspace.reference).by_identifier("ww:Person")
        with pytest.raises(InadmissibleOperationError):
            workspace.apply(AddSupertype("Department", "Person"), concept=wheel)
        assert workspace.log == []

    def test_concept_admissible_operation_passes(self, workspace):
        wheel = decompose(workspace.reference).by_identifier("ww:Person")
        entry = workspace.apply(
            AddAttribute("Person", scalar("date"), "dob"), concept=wheel
        )
        assert entry.concept_id == "ww:Person"

    def test_apply_kind_checked(self, workspace):
        with pytest.raises(InadmissibleOperationError):
            workspace.apply_kind_checked(
                AddSupertype("Department", "Person"), ConceptKind.WAGON_WHEEL
            )
        workspace.apply_kind_checked(
            AddSupertype("Department", "Person"), ConceptKind.GENERALIZATION
        )
        assert "Person" in workspace.schema.get("Department").supertypes

    def test_feedback_collected(self, workspace):
        entry = workspace.apply(DeleteTypeDefinition("Person"))
        assert any(m.code == "delete-supertype-of" for m in entry.feedback)
        assert any(m.code == "cascaded" for m in entry.feedback)

    def test_mid_plan_failure_rolls_back(self, workspace, monkeypatch):
        """If a later plan step fails, earlier steps are undone."""
        from repro.ops import type_ops

        original_apply = type_ops.DeleteTypeDefinition.apply

        def exploding_apply(self, schema, context=None):
            raise ConstraintViolation("injected failure")

        monkeypatch.setattr(
            type_ops.DeleteTypeDefinition, "apply", exploding_apply
        )
        before = schema_fingerprint(workspace.schema)
        with pytest.raises(ConstraintViolation):
            workspace.apply(DeleteTypeDefinition("Department"))
        monkeypatch.setattr(
            type_ops.DeleteTypeDefinition, "apply", original_apply
        )
        assert schema_fingerprint(workspace.schema) == before


class TestHistory:
    def test_undo_last(self, workspace):
        before = schema_fingerprint(workspace.schema)
        workspace.apply(DeleteTypeDefinition("Department"))
        entry = workspace.undo_last()
        assert entry is not None
        assert schema_fingerprint(workspace.schema) == before
        assert workspace.log == []

    def test_undo_empty(self, workspace):
        assert workspace.undo_last() is None

    def test_redo(self, workspace):
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        after = schema_fingerprint(workspace.schema)
        workspace.undo_last()
        workspace.redo()
        assert schema_fingerprint(workspace.schema) == after
        assert len(workspace.log) == 1

    def test_redo_preserves_propagated_flag(self, workspace):
        workspace.apply(
            AddAttribute("Person", scalar("date"), "dob"), propagate=False
        )
        workspace.undo_last()
        entry = workspace.redo()
        assert entry is not None
        assert entry.propagated is False

    def test_failed_redo_rolls_back_and_keeps_redo_stack(self, workspace):
        """A step that fails mid-redo must not leave earlier steps applied."""
        # Deleting Department cascades: plan is [delete relationship ends,
        # delete type].  After the undo, wire in a *new* reference to
        # Department so the final plan step fails validation while the
        # cascade step has already been applied.
        workspace.apply(DeleteTypeDefinition("Department"))
        assert len(workspace.log[-1].plan) > 1
        workspace.undo_last()
        workspace.schema.get("Person").add_attribute(
            Attribute("dept_ref", NamedType("Department"))
        )
        before = schema_fingerprint(workspace.schema)
        with pytest.raises(ConstraintViolation):
            workspace.redo()
        assert schema_fingerprint(workspace.schema) == before
        assert workspace.log == []
        # The entry stays redoable: clear the blocker and redo succeeds.
        workspace.schema.get("Person").remove_attribute("dept_ref")
        entry = workspace.redo()
        assert entry is not None
        assert "Department" not in workspace.schema

    def test_redo_cleared_by_new_apply(self, workspace):
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        workspace.undo_last()
        workspace.apply(AddAttribute("Person", scalar("date"), "hired"))
        assert workspace.redo() is None

    def test_reset(self, workspace):
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        workspace.reset()
        assert schemas_equal(workspace.schema, workspace.reference)
        assert workspace.log == []

    def test_script_round_trips_through_language(self, workspace):
        from repro.ops.language import parse_script

        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        workspace.apply(DeleteAttribute("Employee", "salary"))
        script = workspace.script()
        assert parse_script(script) == workspace.applied_operations()

    def test_history_describes_cascades(self, workspace):
        workspace.apply(DeleteTypeDefinition("Department"))
        assert "(+1 cascaded)" in workspace.history()


# ----------------------------------------------------------------------
# One apply pipeline: the same feedback and the same atomicity from
# every entry point
# ----------------------------------------------------------------------


class _DeleteOne(CompositeOperation):
    """A composite whose plan is a single primitive."""

    composite_name = "delete_one"

    def __init__(self, operation):
        self.operation = operation

    def expand_plan(self, schema, context=None):
        return [self.operation]

    def describe(self):
        return f"delete_one({self.operation.to_text()})"


def _codes(entries):
    return [(note.code, note.subject) for entry in entries for note in entry.feedback]


#: ``delete_type_definition(Person)`` on the university schema: each
#: step's cautions in plan order, then one note per cascade.
PERSON_DELETE_FEEDBACK = [
    ("isa-rewiring", "Student ISA Person"),
    ("isa-rewiring", "Faculty ISA Person"),
    ("delete-supertype-of", "Person"),
    ("delete-cascade-extent", "Person"),
    ("cascaded", "delete_supertype(Student, Person)"),
    ("cascaded", "delete_supertype(Faculty, Person)"),
]


class TestFeedback:
    def test_apply(self, university):
        entry = Workspace(university).apply(DeleteTypeDefinition("Person"))
        assert _codes([entry]) == PERSON_DELETE_FEEDBACK

    def test_apply_plan(self, university):
        entries = Workspace(university).apply_plan(
            [DeleteTypeDefinition("Person")]
        )
        assert _codes(entries) == PERSON_DELETE_FEEDBACK

    def test_apply_composite(self, university):
        entries = Workspace(university).apply_composite(
            _DeleteOne(DeleteTypeDefinition("Person"))
        )
        assert _codes(entries) == PERSON_DELETE_FEEDBACK

    def test_compiled_plan_skips_feedback(self, university):
        entries = Workspace(university).apply_plan_compiled(
            [DeleteTypeDefinition("Person")]
        )
        assert _codes(entries) == []
        assert [step.to_text() for step in entries[0].plan] == [
            "delete_supertype(Student, Person)",
            "delete_supertype(Faculty, Person)",
            "delete_type_definition(Person)",
        ]


def _catalog_deletes():
    """Every type, attribute and supertype delete in every catalog schema."""
    cases = []
    for name, build in SCHEMA_BUILDERS.items():
        for interface in build():
            typename = interface.name
            operations = [DeleteTypeDefinition(typename)]
            operations += [
                DeleteAttribute(typename, attribute)
                for attribute in interface.attributes
            ]
            operations += [
                DeleteSupertype(typename, supertype)
                for supertype in interface.supertypes
            ]
            cases += [
                pytest.param(name, operation, id=f"{name}:{operation.to_text()}")
                for operation in operations
            ]
    return cases


@pytest.mark.parametrize("catalog, operation", _catalog_deletes())
def test_apply_and_apply_plan_agree_on_catalog_deletes(catalog, operation):
    """Same plan and feedback from ``apply`` and ``apply_plan([op])``,
    and the plan is the one the read-only planner ``expand`` predicts."""
    schema = SCHEMA_BUILDERS[catalog]()
    entry = Workspace(schema).apply(operation)
    (planned,) = Workspace(schema).apply_plan([operation], normalize=False)
    assert planned.plan == entry.plan
    assert _codes([planned]) == _codes([entry])
    assert expand(schema, operation, OperationContext(reference=schema)) == (
        entry.plan
    )


class TestAtomicUnderAnyException:
    """A mutator failing mid-cascade leaves no trace, whatever it raises."""

    ENTRIES = {
        "apply": lambda ws, op: ws.apply(op),
        "apply_plan": lambda ws, op: ws.apply_plan([op]),
        "apply_plan_compiled": lambda ws, op: ws.apply_plan_compiled([op]),
        "apply_composite": lambda ws, op: ws.apply_composite(_DeleteOne(op)),
    }

    @staticmethod
    def _fail_second_remove_supertype(monkeypatch, workspace):
        # delete_type_definition(Person) cascades into two
        # delete_supertype steps; the second one's mutator raises.  Only
        # calls on the workspace's own interfaces count, so a planner
        # that rehearses the plan on a scratch copy cannot absorb the
        # failure.
        original = InterfaceDef.remove_supertype
        calls = itertools.count(1)

        def remove_supertype(self, *args, **kwargs):
            live = workspace.schema.interfaces.get(self.name) is self
            if live and next(calls) == 2:
                raise RuntimeError("injected failure")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(InterfaceDef, "remove_supertype", remove_supertype)

    @staticmethod
    def _state(workspace):
        return (
            schema_fingerprint(workspace.schema),
            list(workspace.issues),
            workspace.undo_depth,
            workspace.redo_depth,
        )

    def _assert_restored(self, workspace, before):
        assert self._state(workspace) == before
        assert workspace.schema.index.adjacency.check_integrity() == []
        assert workspace.schema.validation.validate() == validate_schema(
            workspace.schema
        )

    @pytest.mark.parametrize("entry_point", sorted(ENTRIES))
    def test_apply_entries(self, university, monkeypatch, entry_point):
        workspace = Workspace(university)
        workspace.apply(AddAttribute("Student", scalar("date"), "enrolled"))
        workspace.apply(AddAttribute("Faculty", scalar("date"), "hired"))
        workspace.undo_last()  # one step to undo, one to redo
        before = self._state(workspace)
        self._fail_second_remove_supertype(monkeypatch, workspace)
        with pytest.raises(RuntimeError, match="injected"):
            self.ENTRIES[entry_point](workspace, DeleteTypeDefinition("Person"))
        self._assert_restored(workspace, before)
        monkeypatch.undo()
        workspace.apply(DeleteTypeDefinition("Person"))  # still usable
        assert "Person" not in workspace.schema

    def test_redo(self, university, monkeypatch):
        workspace = Workspace(university)
        workspace.apply(DeleteTypeDefinition("Person"))
        workspace.undo_last()
        before = self._state(workspace)
        self._fail_second_remove_supertype(monkeypatch, workspace)
        with pytest.raises(RuntimeError, match="injected"):
            workspace.redo()
        self._assert_restored(workspace, before)
        monkeypatch.undo()
        assert workspace.redo() is not None
        assert "Person" not in workspace.schema
