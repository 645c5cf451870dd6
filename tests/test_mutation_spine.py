"""Unit tests for the mutation spine (MutationLog / records / subscribers).

The spine is the single change-truth channel behind the index, the
validation cache, and the fingerprint memos; these tests pin down its
stream semantics (dense seqs, synchronous subscribers), replayability,
the seq-stamped memo, journal folding, and the Aspect vocabulary.
"""

import pytest

from repro.model.attributes import Attribute
from repro.model.errors import UnknownPropertyError
from repro.model.fingerprint import (
    memoized_schema_fingerprint,
    schema_fingerprint,
    schemas_equal,
)
from repro.model.interface import InterfaceDef
from repro.model.mutation import (
    ALL_ASPECTS,
    Aspect,
    DirtyJournal,
    MutationLog,
    aspect_for_kind,
    touched_names_between,
)
from repro.model.relationships import RelationshipKind
from repro.model.schema import Schema
from repro.model.types import scalar


class TestAspect:
    def test_members_compare_like_legacy_strings(self):
        assert Aspect.ISA == "isa"
        assert Aspect.ATTRS == "attrs"
        assert Aspect.REL_PART_OF == "rel-part-of"
        assert Aspect.MEMBERSHIP == "membership"

    def test_members_hash_like_legacy_strings(self):
        scopes = {Aspect.KEYS: 1}
        assert scopes["keys"] == 1
        assert "keys" in scopes

    def test_all_aspects_excludes_membership(self):
        assert Aspect.MEMBERSHIP not in ALL_ASPECTS
        assert Aspect.ISA in ALL_ASPECTS
        assert len(ALL_ASPECTS) == len(Aspect) - 1

    def test_aspect_for_kind_covers_every_relationship_kind(self):
        for kind in RelationshipKind:
            assert aspect_for_kind(kind) in ALL_ASPECTS


class TestStream:
    def test_every_mutator_lands_one_record(self, small):
        before = small.log.seq
        person = small.get("Person")
        person.add_attribute(Attribute("dob", scalar("date")))
        person.remove_attribute("dob")
        person.set_extent("persons")
        assert small.log.seq == before + 3
        kinds = [r.kind for r in small.log.records[-3:]]
        assert kinds == ["add_attribute", "remove_attribute", "set_extent"]

    def test_seqs_are_dense(self, small):
        small.get("Person").set_extent("persons")
        seqs = [record.seq for record in small.log.records]
        assert seqs == list(range(1, small.log.seq + 1))
        assert len(small.log) == small.log.seq

    def test_generation_is_spine_seq(self, small):
        assert small.generation == small.log.seq
        small.get("Person").set_extent("persons")
        assert small.generation == small.log.seq

    def test_construction_emits_add_interface_records(self, small):
        adds = [r for r in small.log.records if r.kind == "add_interface"]
        assert [r.interface for r in adds] == list(small.interfaces)

    def test_subscribers_notified_synchronously(self, small):
        seen = []
        small.log.subscribe(seen.append)
        small.get("Person").add_key(("name",))
        assert [r.kind for r in seen] == ["add_key"]
        assert seen[0].interface == "Person"
        assert seen[0].aspects == frozenset({Aspect.KEYS})

    def test_detached_interface_stops_emitting(self, small):
        removed = small.interfaces["Employee"]
        small.remove_interface("Employee")
        before = small.log.seq
        removed.set_extent("ghosts")
        assert small.log.seq == before

    def test_records_since_is_the_suffix(self, small):
        mark = small.log.seq
        small.get("Person").set_extent("persons")
        small.get("Department").add_key(("code", "code"))
        suffix = small.log.records_since(mark)
        assert [r.kind for r in suffix] == ["set_extent", "add_key"]
        assert small.log.records_since(small.log.seq) == []


class TestReplay:
    def test_replay_reproduces_seed_schema(self, small):
        rebuilt = small.log.replay("rebuilt")
        assert schemas_equal(rebuilt, small)

    def test_replay_reproduces_mutated_schema(self, small):
        person = small.get("Person")
        person.add_attribute(Attribute("dob", scalar("date")))
        person.add_supertype("Department")
        person.remove_supertype("Department")
        person.insert_key(("name",), 0)
        person.replace_key_at(0, ("id", "name"))
        person.reorder_attributes(["name", "id", "dob"])
        small.remove_interface("Employee")
        small.reorder_interfaces(["Department", "Person"])
        rebuilt = small.log.replay()
        assert schema_fingerprint(rebuilt) == schema_fingerprint(small)
        assert rebuilt.type_names() == small.type_names()

    def test_replay_payload_isolated_from_later_mutations(self, small):
        """add_interface payloads are copies: later edits don't leak in."""
        fingerprint = schema_fingerprint(small)
        small.get("Person").add_attribute(Attribute("dob", scalar("date")))
        adds = [r for r in small.log.records if r.interface == "Person"]
        assert "dob" not in adds[0].payload["interface"].attributes
        rebuilt = small.log.replay()
        assert schema_fingerprint(rebuilt) == schema_fingerprint(small)

    def test_touch_makes_log_lossy(self, small):
        assert small.log.replayable
        small.touch()
        assert small.log.lossy
        with pytest.raises(ValueError):
            small.log.replay()

    def test_touch_order_is_replayable(self, small):
        small.touch_order()
        assert small.log.replayable
        rebuilt = small.log.replay()
        assert rebuilt.type_names() == small.type_names()


class TestMemo:
    def test_memo_caches_until_next_emit(self):
        log = MutationLog()
        calls = []

        def build():
            calls.append(1)
            return "value"

        assert log.memo("k", build) == "value"
        assert log.memo("k", build) == "value"
        assert len(calls) == 1
        log.emit("touch")
        assert log.memo("k", build) == "value"
        assert len(calls) == 2

    def test_fingerprint_memo_rides_the_spine(self, small):
        first = memoized_schema_fingerprint(small)
        assert memoized_schema_fingerprint(small) is first
        small.get("Person").set_extent("persons")
        second = memoized_schema_fingerprint(small)
        assert second is not first


class TestDirtyJournal:
    def fold(self, schema):
        journal = DirtyJournal()
        schema.log.subscribe(journal.observe)
        return journal

    def test_interface_mutation_touches_name_and_aspect(self, small):
        journal = self.fold(small)
        small.get("Person").add_key(("name",))
        assert journal.touched == {"Person": {Aspect.KEYS}}
        assert not journal.added and not journal.removed

    def test_membership_folds_into_added_removed(self, small):
        journal = self.fold(small)
        small.add_interface(InterfaceDef("Project"))
        small.remove_interface("Project")
        assert journal.added == {"Project"}
        assert journal.removed == {"Project"}

    def test_reorder_and_touch_fold(self, small):
        journal = self.fold(small)
        small.touch_order()
        assert journal.order_changed
        small.touch()
        assert journal.full

    def test_scope_record_splits_membership_by_presence(self, small):
        journal = self.fold(small)
        small.note_validation_scope(
            ("Person", "Ghost"),
            frozenset({Aspect.MEMBERSHIP, Aspect.ATTRS}),
        )
        assert journal.added == {"Person"}
        assert journal.removed == {"Ghost"}
        assert journal.touched["Person"] == {Aspect.ATTRS}
        assert journal.touched["Ghost"] == {Aspect.ATTRS}

    def test_schema_journal_cleared_by_validation(self, small):
        small.get("Person").set_extent("persons")
        assert small.journal.touched
        small.validation.validate()
        assert not small.journal.touched
        assert not small.journal.full


class TestTouchedNamesBetween:
    def test_unrelated_schemas_have_no_lineage(self, small, company):
        assert touched_names_between(small, company) is None

    def test_fork_divergence_names(self, small):
        branch = small.fork("branch")
        branch.get("Person").set_extent("persons")
        small.get("Department").add_key(("code", "code"))
        touched = touched_names_between(small, branch)
        assert touched == {"Person", "Department"}

    def test_lossy_segment_aborts(self, small):
        branch = small.fork("branch")
        branch.touch()
        assert touched_names_between(small, branch) is None

    def test_touch_outside_divergence_is_ignored(self, small):
        small.touch()  # lands *before* the fork point
        branch = small.fork("branch")
        branch.get("Person").set_extent("persons")
        assert touched_names_between(small, branch) == {"Person"}


class TestSchemaFork:
    def test_fork_is_isolated(self, small):
        branch = small.fork("branch")
        branch.get("Person").add_attribute(Attribute("dob", scalar("date")))
        assert "dob" not in small.get("Person").attributes
        small.get("Person").set_extent("persons")
        assert branch.get("Person").extent != "persons"

    def test_fork_records_lineage(self, small):
        branch = small.fork("branch")
        assert branch.log.origin is small.log
        assert branch.log.origin_seq == small.log.seq
        assert branch.log.base_seq == branch.log.seq

    def test_fork_equals_original(self, small):
        branch = small.fork("branch")
        assert schemas_equal(branch, small)


class TestStats:
    def test_namespaced_keys_present(self, small):
        small.validation.validate()
        stats = small.stats()
        assert stats["spine.seq"] == small.log.seq
        assert stats["spine.records"] == len(small.log)
        assert stats["spine.lossy"] == 0
        assert "index.rebuilds" in stats
        assert "validation.full" in stats

    def test_insert_and_replace_key_error_paths(self, small):
        person = small.get("Person")
        with pytest.raises(UnknownPropertyError):
            person.replace_key_at(5, ("id",))
        person.insert_key(("name",), 99)  # clamps like list.insert
        assert person.keys[-1] == ("name",)
