"""SchemaIndex: memoized graph queries and their invalidation contract.

Three layers of coverage:

* unit tests that the indexed queries equal the full-scan reference
  implementations (``repro.model.index.scan_*``) and that the
  generation counter is bumped by every mutating entry point;
* the dangling-supertype resolution fixes (``ancestors`` /
  ``isa_related`` symmetry, ``generalization_roots`` with unresolved
  supertypes);
* a property-style test: after any random operation sequence from the
  workload generator -- including undo, redo, and reset -- every
  indexed query still equals its full-scan counterpart.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.model.attributes import Attribute
from repro.model.index import (
    scan_aggregation_roots,
    scan_ancestors,
    scan_descendants,
    scan_generalization_roots,
    scan_instance_of_roots,
    scan_parts,
    scan_relationship_pairs,
    scan_subtypes,
    scan_wholes,
)
from repro.model.interface import InterfaceDef
from repro.model.relationships import RelationshipEnd, RelationshipKind
from repro.model.schema import Schema
from repro.model.types import NamedType, ScalarType, set_of
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)


def assert_index_matches_scan(schema: Schema) -> None:
    """Every indexed query equals its full-scan counterpart."""
    for name in schema.type_names():
        assert schema.subtypes(name) == scan_subtypes(schema, name)
        assert schema.descendants(name) == scan_descendants(schema, name)
        assert schema.ancestors(name) == scan_ancestors(schema, name)
        assert schema.parts(name) == scan_parts(schema, name)
        assert schema.wholes(name) == scan_wholes(schema, name)
    assert schema.generalization_roots() == scan_generalization_roots(schema)
    assert schema.aggregation_roots() == scan_aggregation_roots(schema)
    assert schema.instance_of_roots() == scan_instance_of_roots(schema)
    assert schema.relationship_pairs() == scan_relationship_pairs(schema)


def _association(name, target, inverse_type, inverse_name, to_many=False):
    target_type = set_of(target) if to_many else NamedType(target)
    return RelationshipEnd(
        name, target_type, inverse_type, inverse_name,
        RelationshipKind.ASSOCIATION,
    )


@pytest.fixture
def workload_schema() -> Schema:
    return generate_schema(WorkloadSpec(types=30, seed=7))


class TestIndexedQueriesMatchScans:
    def test_on_generated_schema(self, workload_schema):
        assert_index_matches_scan(workload_schema)

    def test_on_catalog_schemas(self, university, house, software, acedb):
        for schema in (university, house, software, acedb):
            assert_index_matches_scan(schema)

    def test_queries_hit_the_cache_when_unchanged(self, workload_schema):
        workload_schema.descendants("Type000")
        workload_schema.subtypes("Type001")
        before = workload_schema.index.stats()
        workload_schema.descendants("Type000")
        workload_schema.subtypes("Type001")
        after = workload_schema.index.stats()
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]

    def test_stats_exposes_index_counters(self, workload_schema):
        stats = workload_schema.stats()
        for key in ("index.hits", "index.misses", "index.rebuilds",
                    "index.generation"):
            assert key in stats


class TestGenerationBumps:
    """Every mutating entry point invalidates the index."""

    def _schema(self) -> Schema:
        schema = Schema("gen")
        schema.add_interface(InterfaceDef("Base"))
        schema.add_interface(InterfaceDef("Sub", supertypes=["Base"]))
        return schema

    def test_add_remove_interface_bump(self):
        schema = self._schema()
        generation = schema.generation
        schema.add_interface(InterfaceDef("Extra"))
        assert schema.generation > generation
        generation = schema.generation
        schema.remove_interface("Extra")
        assert schema.generation > generation

    def test_supertype_mutators_bump_and_requery(self):
        schema = self._schema()
        assert schema.subtypes("Base") == ["Sub"]
        schema.add_interface(InterfaceDef("Other"))
        schema.get("Other").add_supertype("Base")
        assert schema.subtypes("Base") == ["Sub", "Other"]
        schema.get("Other").remove_supertype("Base")
        assert schema.subtypes("Base") == ["Sub"]
        schema.get("Sub").set_supertypes(["Other"])
        assert schema.subtypes("Base") == []
        assert schema.subtypes("Other") == ["Sub"]

    def test_relationship_mutators_bump_and_requery(self):
        schema = self._schema()
        whole = schema.get("Base")
        whole.add_relationship(
            RelationshipEnd(
                "has_parts", set_of("Sub"), "Sub", "part_of_whole",
                RelationshipKind.PART_OF,
            )
        )
        assert schema.parts("Base") == ["Sub"]
        whole.remove_relationship("has_parts")
        assert schema.parts("Base") == []

    def test_detached_interface_stops_bumping(self):
        schema = self._schema()
        removed = schema.remove_interface("Sub")
        generation = schema.generation
        removed.add_attribute(Attribute("orphan", ScalarType("long")))
        assert schema.generation == generation

    def test_interface_shared_by_two_schemas_is_borrowed_cow(self):
        # Adding an interface already on another schema's spine borrows
        # it copy-on-write: the owner mutating it privatises the
        # as-added state into the borrower, whose content -- and hence
        # generation -- does not change.
        first = self._schema()
        second = Schema("other")
        shared = first.get("Base")
        second.add_interface(shared)
        first_generation = first.generation
        second_generation = second.generation
        shared.add_attribute(Attribute("a", ScalarType("long")))
        assert first.generation > first_generation
        assert second.generation == second_generation
        assert second.get("Base") is not shared
        assert "a" not in second.get("Base").attributes
        assert "a" in first.get("Base").attributes

    def test_attribute_and_operation_mutators_bump(self):
        schema = self._schema()
        interface = schema.get("Base")
        generation = schema.generation
        interface.add_attribute(Attribute("a", ScalarType("long")))
        assert schema.generation > generation
        generation = schema.generation
        interface.remove_attribute("a")
        assert schema.generation > generation


class TestDanglingSupertypeResolution:
    """Satellite fix: unresolved supertypes answer consistently."""

    def _schema(self) -> Schema:
        schema = Schema("dangling")
        schema.add_interface(
            InterfaceDef("Orphan", supertypes=["Missing"])
        )
        schema.add_interface(InterfaceDef("Child", supertypes=["Orphan"]))
        return schema

    def test_ancestors_excludes_dangling_names(self):
        schema = self._schema()
        assert schema.ancestors("Orphan") == set()
        assert schema.ancestors("Child") == {"Orphan"}

    def test_isa_related_is_symmetric_with_dangling_supertypes(self):
        schema = self._schema()
        # "Missing" is not a type; neither direction may claim kinship.
        assert not schema.isa_related("Orphan", "Missing")
        assert schema.isa_related("Child", "Orphan")
        assert schema.isa_related("Orphan", "Child")

    def test_dangling_only_supertypes_make_a_root(self):
        schema = self._schema()
        assert schema.generalization_roots() == ["Orphan"]

    def test_resolved_supertype_still_blocks_roothood(self):
        schema = self._schema()
        schema.add_interface(InterfaceDef("Top"))
        schema.get("Orphan").add_supertype("Top")
        assert schema.generalization_roots() == ["Top"]


class TestInvalidationAcrossWorkspaceHistory:
    """Property-style: ops, undo, redo, reset never leave stale caches."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_random_op_sequences_keep_index_fresh(self, seed):
        spec = WorkloadSpec(types=12, seed=seed % 1000)
        schema = generate_schema(spec)
        operations = generate_operations(schema, count=8, seed=seed)
        workspace = Workspace(schema)
        # warm every cache family so staleness, not cold misses, is tested
        assert_index_matches_scan(workspace.schema)
        for operation in operations:
            workspace.apply(operation)
            assert_index_matches_scan(workspace.schema)
        while workspace.log:
            workspace.undo_last()
            assert_index_matches_scan(workspace.schema)
        while workspace.redo() is not None:
            assert_index_matches_scan(workspace.schema)
        workspace.reset()
        assert_index_matches_scan(workspace.schema)
        assert_index_matches_scan(workspace.reference)

    def test_hand_built_mutation_stream(self):
        schema = Schema("stream")
        schema.add_interface(InterfaceDef("A"))
        schema.add_interface(InterfaceDef("B", supertypes=["A"]))
        assert_index_matches_scan(schema)
        schema.get("A").add_relationship(
            _association("to_b", "B", "B", "to_a", to_many=True)
        )
        schema.get("B").add_relationship(_association("to_a", "A", "A", "to_b"))
        assert_index_matches_scan(schema)
        schema.get("B").replace_relationship(
            _association("to_a", "A", "A", "to_b", to_many=True)
        )
        assert_index_matches_scan(schema)
        schema.remove_interface("B")
        assert_index_matches_scan(schema)
