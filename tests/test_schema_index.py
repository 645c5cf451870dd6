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
from repro.ops.type_ops import DeleteTypeDefinition
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


def _part_of(name, part, inverse_name):
    return RelationshipEnd(
        name, set_of(part), part, inverse_name, RelationshipKind.PART_OF
    )


def _to_whole(name, whole, inverse_name):
    return RelationshipEnd(
        name, NamedType(whole), whole, inverse_name, RelationshipKind.PART_OF
    )


def assert_ordered_queries_match_scan(schema: Schema, extra=()) -> None:
    """The order-bearing store queries equal their scans, name by name."""
    pairs = scan_relationship_pairs(schema)
    for name in [*schema.type_names(), *extra]:
        assert schema.subtypes(name) == scan_subtypes(schema, name)
        assert schema.wholes(name) == scan_wholes(schema, name)
        assert schema.index.ends_targeting({name}) == [
            (owner, end) for owner, end in pairs if end.target_type == name
        ]


class TestStoreOrderingMatchesScan:
    """The position column orders answers exactly as the scans do."""

    def _schema(self) -> Schema:
        schema = Schema("ordering")
        for name in ("Part", "Root", "Early", "Middle", "Late"):
            schema.add_interface(InterfaceDef(name))
        schema.get("Late").add_supertype("Root")
        schema.get("Late").add_relationship(_part_of("parts", "Part", "late"))
        schema.get("Part").add_relationship(_to_whole("late", "Late", "parts"))
        return schema

    def test_links_added_against_declaration_order(self):
        schema = self._schema()
        assert_ordered_queries_match_scan(schema)
        # Link order now differs from declaration order.
        schema.get("Early").add_supertype("Root")
        schema.get("Early").add_relationship(_part_of("parts", "Part", "early"))
        schema.get("Part").add_relationship(_to_whole("early", "Early", "parts"))
        assert schema.subtypes("Root") == ["Early", "Late"]
        assert schema.wholes("Part") == ["Early", "Late"]
        assert_ordered_queries_match_scan(schema)

    def test_type_delete_and_undo_restores_positions(self):
        schema = self._schema()
        schema.get("Middle").add_supertype("Root")
        schema.get("Early").add_supertype("Root")
        workspace = Workspace(schema)
        assert workspace.schema.subtypes("Root") == ["Early", "Middle", "Late"]
        workspace.apply(DeleteTypeDefinition("Middle"))
        assert_ordered_queries_match_scan(workspace.schema)
        workspace.undo_last()
        assert workspace.schema.type_names() == schema.type_names()
        assert workspace.schema.subtypes("Root") == ["Early", "Middle", "Late"]
        assert_ordered_queries_match_scan(workspace.schema)

    def test_reused_name_id_takes_a_fresh_position(self):
        schema = self._schema()
        assert_ordered_queries_match_scan(schema)  # build the store
        table = schema.index.adjacency.table
        freed = table.id_of("Middle")
        schema.remove_interface("Middle")
        schema.add_interface(InterfaceDef("Newest", supertypes=["Root"]))
        assert table.id_of("Newest") == freed
        schema.get("Newest").add_relationship(_part_of("parts", "Part", "newest"))
        schema.get("Part").add_relationship(_to_whole("newest", "Newest", "parts"))
        schema.get("Early").add_supertype("Root")
        assert schema.subtypes("Root") == ["Early", "Late", "Newest"]
        assert_ordered_queries_match_scan(schema, extra=("Middle",))

    def test_cow_fork_after_its_base_mutates(self):
        base = self._schema()
        assert_ordered_queries_match_scan(base)
        fork = base.fork()
        fork.edit("Middle").add_supertype("Root")  # on the overlay view
        assert fork.subtypes("Root") == ["Middle", "Late"]
        assert_ordered_queries_match_scan(fork)
        base.get("Early").add_supertype("Root")
        base.get("Early").add_relationship(_part_of("parts", "Part", "early"))
        base.get("Part").add_relationship(_to_whole("early", "Early", "parts"))
        assert fork.subtypes("Root") == ["Middle", "Late"]
        assert_ordered_queries_match_scan(fork)
        fork.remove_interface("Early")
        fork.add_interface(InterfaceDef("Early", supertypes=["Root"]))
        assert fork.subtypes("Root") == ["Middle", "Late", "Early"]
        assert_ordered_queries_match_scan(fork)
        assert base.subtypes("Root") == ["Early", "Late"]
        assert_ordered_queries_match_scan(base)
