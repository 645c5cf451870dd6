"""The schema container of the extended ODMG object model.

A :class:`Schema` is a named collection of :class:`~repro.model.interface.
InterfaceDef` objects plus graph-structured queries over the three link
families the paper's concept schemas are built from:

* the **generalization hierarchy** (supertype lists),
* the **aggregation hierarchy** (part-of relationship ends),
* the **instance-of hierarchy** (instance-of relationship ends).

The queries here are purely structural; validation rules live in
:mod:`repro.model.validation` and concept-schema extraction in
:mod:`repro.concepts`.

Change propagation runs through one channel: every mutation lands a
:class:`~repro.model.mutation.MutationRecord` on the schema's
:class:`~repro.model.mutation.MutationLog`, and the cache layers (index
generation, validation dirty journal, fingerprint memos) are subscribers
of that spine -- see DESIGN.md §5e.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.model.errors import (
    DuplicateNameError,
    InvalidModelError,
    UnknownTypeError,
)
from repro.model.index import (
    SchemaIndex,
    scan_link_edges,
    scan_relationship_pairs,
)
from repro.model.interface import (
    InterfaceDef,
    _CowAnchor,
    _PayloadClaim,
    _SchemaShare,
)
from repro.model.mutation import Aspect, DirtyJournal, MutationLog
from repro.model.relationships import RelationshipEnd, RelationshipKind

if TYPE_CHECKING:
    from repro.model.validation_cache import ValidationCache

_MEMBERSHIP = frozenset({Aspect.MEMBERSHIP})
_ORDER: frozenset[Aspect] = frozenset()


@dataclass(slots=True)
class Schema:
    """A named, global schema: the unit the paper calls *shrink wrap*.

    Interfaces are held in insertion order (printed ODL is stable); lookup
    is by name, following the paper's name-equivalence assumption.
    """

    name: str
    interfaces: dict[str, InterfaceDef] = field(default_factory=dict)
    # Cache/history state, not schema content: excluded from __eq__/repr.
    _log: MutationLog = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )
    _journal: DirtyJournal = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )
    _index: SchemaIndex = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )
    _validation: "ValidationCache | None" = field(
        init=False, repr=False, compare=False, default=None
    )
    _analysis_hits: int = field(init=False, repr=False, compare=False, default=0)
    _analysis_misses: int = field(init=False, repr=False, compare=False, default=0)
    # Copy-on-write bookkeeping (DESIGN.md 5j).  ``_cow_sources`` names
    # the ancestor spines whose interfaces this schema may still share;
    # ``_cow_borrow`` is the one _SchemaShare registered on them;
    # ``_cow_anchor`` the weakly referenceable handle shares hold.
    _cow_sources: tuple = field(
        init=False, repr=False, compare=False, default=()
    )
    _cow_borrow: "_SchemaShare | None" = field(
        init=False, repr=False, compare=False, default=None
    )
    _cow_anchor: "_CowAnchor | None" = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidModelError("a schema must have a name")
        self._log = MutationLog()
        self._journal = DirtyJournal()
        self._log.subscribe(self._journal.observe)
        self._index = SchemaIndex(self)
        self._validation = None
        for interface in self.interfaces.values():
            self._adopt(interface)

    # ------------------------------------------------------------------
    # The mutation spine & its subscribers
    # ------------------------------------------------------------------

    @property
    def log(self) -> MutationLog:
        """The mutation spine: every change to this schema, in order."""
        return self._log

    @property
    def generation(self) -> int:
        """Monotonic mutation counter; stamps derived caches.

        Derived from the spine -- the generation *is* the log's sequence
        number, so any emitted record invalidates stamped caches.
        """
        return self._log.seq

    @property
    def index(self) -> SchemaIndex:
        """The graph-query facade over this schema's adjacency store."""
        return self._index

    @property
    def journal(self) -> DirtyJournal:
        """Accumulated dirty notes since the validation cache last read it.

        A spine subscriber: records fold into it as they are emitted.
        """
        return self._journal

    @property
    def validation(self) -> "ValidationCache":
        """The lazily created incremental validation cache."""
        if self._validation is None:
            from repro.model.validation_cache import ValidationCache

            self._validation = ValidationCache(self)
        return self._validation

    def _cow_share(self) -> _SchemaShare:
        """This schema's one CoW share object (created lazily).

        The same share serves every borrow this schema holds -- a claim
        or spine registration settles per interface, so one weakly held
        object is enough for any number of shared interfaces.
        """
        if self._cow_borrow is None:
            if self._cow_anchor is None:
                self._cow_anchor = _CowAnchor(self)
            self._cow_borrow = _SchemaShare(self._cow_anchor)
        return self._cow_borrow

    def _adopt(self, interface: InterfaceDef) -> None:
        """Take the interface as schema content and record the membership.

        An interface nobody else owns is attached to this spine
        (ownership); one already attached to another schema's spine is
        *borrowed* copy-on-write -- the owner mutating it privatises a
        frozen copy into this schema, and mutating it through this
        schema goes via :meth:`edit`, which materialises first.

        The membership record's payload carries the live interface, not
        an eager copy; a :class:`~repro.model.interface._PayloadClaim`
        freezes it to the as-added state on the interface's first
        mutation, so replay and delete-undo stay exact while unmutated
        adds cost nothing.
        """
        if interface._spines and self._log not in interface._spines:
            interface.register_claim(self._cow_share())
        else:
            interface._attach_spine(self._log)
        payload = {"interface": interface}
        interface.register_claim(_PayloadClaim(payload))
        self._log.emit(
            "add_interface",
            interface=interface.name,
            aspects=_MEMBERSHIP,
            payload=payload,
        )

    def touch(self) -> None:
        """Invalidate all caches after an out-of-band mutation.

        Every :class:`InterfaceDef` mutator and the interface-management
        methods below emit onto the spine automatically; code that
        mutates schema content directly must call this instead.  The
        emitted record is *lossy* -- subscribers cannot tell what moved
        (the validation cache marks everything dirty) and the log can no
        longer be replayed -- so prefer :meth:`reorder_interfaces` for
        pure reorderings and real mutators for everything else.
        """
        self._log.emit("touch")

    def touch_order(self) -> None:
        """Invalidate after reordering ``interfaces`` without edits.

        Restoring declaration order on undo changes no definition, only
        the order issues are reported in, so the validation cache only
        needs to re-assemble (and re-run order-sensitive tie-breaks),
        not re-check any interface.  Emits the already-applied order so
        the record stays replayable.
        """
        self._log.emit(
            "reorder_interfaces",
            aspects=_ORDER,
            payload={"order": tuple(self.interfaces)},
        )

    def note_validation_scope(
        self, names: Iterable[str], aspects: frozenset[Aspect]
    ) -> None:
        """Record an operation's declared read/write scope on the spine.

        Belt-and-suspenders over the mutator-level records: operations
        declare the types and aspects they may have touched
        (``SchemaOperation.validation_scope``), and the workspace feeds
        that here so the dirty set is correct even for operations whose
        undo closures mutate state out of band.  Membership is resolved
        against current content at emit time so the journal (and any
        other subscriber) can stay schema-agnostic.
        """
        names = tuple(names)
        added: tuple[str, ...] = ()
        removed: tuple[str, ...] = ()
        rest = aspects
        if Aspect.MEMBERSHIP in aspects:
            added = tuple(n for n in names if n in self.interfaces)
            removed = tuple(n for n in names if n not in self.interfaces)
            rest = aspects - _MEMBERSHIP
        self._log.emit(
            "scope",
            aspects=aspects,
            payload={
                "names": names,
                "aspects": rest,
                "added": added,
                "removed": removed,
            },
        )

    # ------------------------------------------------------------------
    # Interface management
    # ------------------------------------------------------------------

    def add_interface(self, interface: InterfaceDef) -> None:
        """Add an interface; the type name must be free in the schema."""
        if interface.name in self.interfaces:
            raise DuplicateNameError(
                f"schema {self.name!r} already defines {interface.name!r}"
            )
        self.interfaces[interface.name] = interface
        self._adopt(interface)

    def remove_interface(self, name: str) -> InterfaceDef:
        """Remove and return the interface called *name*.

        The CoW barrier runs before the spine detaches: any fork still
        sharing the object privatises its copy now, while the borrow
        registrations on this spine can still reach it -- a detached
        object re-adopted and mutated elsewhere would otherwise change
        under the forks silently.
        """
        try:
            removed = self.interfaces.pop(name)
        except KeyError:
            raise UnknownTypeError(
                f"schema {self.name!r} does not define {name!r}"
            ) from None
        removed._cow_barrier()
        removed._detach_spine(self._log)
        self._log.emit(
            "remove_interface", interface=name, aspects=_MEMBERSHIP
        )
        return removed

    def reorder_interfaces(self, order: list[str]) -> None:
        """Rebuild ``interfaces`` in *order* (undo of a type deletion).

        *order* must be a permutation of the current type names.
        """
        if set(order) != set(self.interfaces) or len(order) != len(
            self.interfaces
        ):
            raise UnknownTypeError(
                f"schema {self.name!r}: reorder {list(order)!r} is not a "
                f"permutation of {self.type_names()!r}"
            )
        self.interfaces = {name: self.interfaces[name] for name in order}
        self._log.emit(
            "reorder_interfaces",
            aspects=_ORDER,
            payload={"order": tuple(order)},
        )

    def get(self, name: str) -> InterfaceDef:
        """Return the interface called *name* or raise ``UnknownTypeError``.

        A borrowed interface (shared copy-on-write after :meth:`fork`,
        or a shared projection member) is materialised on fetch -- the
        caller may mutate the result, and the mutation must land in
        *this* schema, not the share's owner.  Owned interfaces return
        in O(1); bulk read paths that never hand the object out
        (iteration, the index, validation) use ``interfaces`` directly
        and keep the share.  :meth:`edit` is the explicit-intent alias
        mutating code uses.
        """
        try:
            interface = self.interfaces[name]
        except KeyError:
            raise UnknownTypeError(
                f"schema {self.name!r} does not define {name!r}"
            ) from None
        if self._log in interface._spines:
            return interface
        return self._materialise(name, interface)

    def _materialise(self, name: str, interface: InterfaceDef) -> InterfaceDef:
        """Privatise a borrowed *interface* under *name* (the CoW fault).

        The share is copied, re-keyed, and attached to this spine, so
        later mutations land here and nowhere else.  Materialisation
        changes no schema content, so no record is emitted; the first
        real mutator call on the returned object emits as usual.
        """
        clone = interface.copy()
        self.interfaces[name] = clone
        clone._attach_spine(self._log)
        return clone

    def edit(self, name: str) -> InterfaceDef:
        """Fetch *name* for mutation (explicit-intent alias of :meth:`get`).

        Since :meth:`get` already materialises borrowed shares on fetch,
        ``edit`` adds nothing today; mutating code calls it anyway to
        mark the fetch as a write, which keeps the CoW fault sites
        greppable and lets the two paths diverge again if reads ever
        stop materialising.
        """
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.interfaces

    def __iter__(self) -> Iterator[InterfaceDef]:
        return iter(self.interfaces.values())

    def __len__(self) -> int:
        return len(self.interfaces)

    def type_names(self) -> list[str]:
        """Interface names in declaration order."""
        return list(self.interfaces)

    # ------------------------------------------------------------------
    # Generalization hierarchy queries
    # ------------------------------------------------------------------

    def subtypes(self, name: str) -> list[str]:
        """Direct subtypes of *name*, in declaration order."""
        return self._index.subtypes(name)

    def ancestors(self, name: str) -> set[str]:
        """All (transitive) supertypes of *name*; excludes *name* itself.

        Only *resolved* supertypes count: a dangling supertype name is
        not a type of this schema, and including it would make
        ``isa_related`` asymmetric with ``descendants`` (which can never
        reach an undefined type).
        """
        interfaces = self.interfaces
        result: set[str] = set()
        frontier = [
            supertype
            for supertype in self.get(name).supertypes
            if supertype in interfaces
        ]
        while frontier:
            current = frontier.pop()
            if current in result:
                continue
            result.add(current)
            frontier.extend(
                supertype
                for supertype in interfaces[current].supertypes
                if supertype in interfaces
            )
        return result

    def descendants(self, name: str) -> set[str]:
        """All (transitive) subtypes of *name*; excludes *name* itself.

        Served from the index's incrementally maintained compact ISA
        adjacency (O(result) per query, no per-mutation rebuild); the
        ``index-vs-scan`` differential pins it to ``scan_descendants``.
        """
        self.get(name)  # raise for unknown types
        return self._index.descendants_of(name)

    def isa_related(self, first: str, second: str) -> bool:
        """True when the two types lie on one generalization path.

        This is the paper's *semantic stability* test: information may be
        moved between two object types only when one is an ancestor of the
        other (or they are the same type).
        """
        if first == second:
            return True
        return second in self.ancestors(first) or second in self.descendants(first)

    def generalization_roots(self) -> list[str]:
        """Types with subtypes but no resolved supertypes: hierarchy roots.

        A type whose only supertypes are dangling names tops every ISA
        path that actually exists in the schema, so it counts as a root.
        """
        with_subtypes = self._index.with_subtypes()
        interfaces = self.interfaces
        return [
            interface.name
            for interface in self
            if interface.name in with_subtypes
            and not any(s in interfaces for s in interface.supertypes)
        ]

    def inherited_attributes(self, name: str) -> dict[str, str]:
        """Map attribute name -> defining type, walking supertypes.

        Local attributes win over inherited ones (overriding); among
        multiple supertypes the first declaration wins, matching the
        left-to-right linearisation ODL implies.
        """
        result: dict[str, str] = {}
        interfaces = self.interfaces
        for owner in self._linearised_ancestry(name):
            for attr_name in interfaces[owner].attributes:
                result.setdefault(attr_name, owner)
        return result

    def _linearised_ancestry(self, name: str) -> list[str]:
        """*name* followed by its ancestors, nearest first, depth-first.

        Iterative (explicit iterator stack) so 10k-deep supertype chains
        stay well clear of the interpreter recursion limit, preserving
        the exact preorder the recursive form produced.
        """
        interfaces = self.interfaces
        if name not in interfaces:
            return []
        order = [name]
        seen = {name}
        stack = [iter(interfaces[name].supertypes)]
        while stack:
            for supertype in stack[-1]:
                if supertype in seen or supertype not in interfaces:
                    continue
                seen.add(supertype)
                order.append(supertype)
                stack.append(iter(interfaces[supertype].supertypes))
                break
            else:
                stack.pop()
        return order

    # ------------------------------------------------------------------
    # Part-of / instance-of hierarchy queries
    # ------------------------------------------------------------------

    def part_of_edges(self) -> list[tuple[str, str, RelationshipEnd]]:
        """(whole, part, to-parts end) triples, in declaration order."""
        return scan_link_edges(self, RelationshipKind.PART_OF)

    def instance_of_edges(self) -> list[tuple[str, str, RelationshipEnd]]:
        """(generic, instance, to-instances end) triples."""
        return scan_link_edges(self, RelationshipKind.INSTANCE_OF)

    def link_targets(self, name: str, kind: RelationshipKind) -> list[str]:
        """Many-side targets of *name*'s to-many ends of *kind*.

        The forward direction of a part-of (parts) or instance-of
        (instances) link, read off the owner's own ends in declaration
        order; empty for undefined names.  Reads ``interfaces`` directly
        so a copy-on-write share is never materialised.
        """
        interface = self.interfaces.get(name)
        if interface is None:
            return []
        return [
            end.target_type
            for end in interface.relationships.values()
            if end.kind is kind and end.is_to_many
        ]

    def link_sources(self, name: str, kind: RelationshipKind) -> list[str]:
        """Owners of to-many ends of *kind* targeting *name*.

        The reverse direction (wholes, generics): the owners come from
        the index's incoming-reference rows, in declaration order.
        """
        return [
            owner
            for owner, end in self._index.ends_targeting((name,))
            if end.kind is kind and end.is_to_many
        ]

    def parts(self, name: str) -> list[str]:
        """Direct components of *name* in the aggregation hierarchy."""
        return self.link_targets(name, RelationshipKind.PART_OF)

    def wholes(self, name: str) -> list[str]:
        """Direct wholes that *name* is a component of."""
        return self.link_sources(name, RelationshipKind.PART_OF)

    def aggregation_roots(self) -> list[str]:
        """Wholes that are not themselves parts of anything."""
        return self._link_roots(RelationshipKind.PART_OF)

    def instance_of_roots(self) -> list[str]:
        """Generic entities that are not instances of anything."""
        return self._link_roots(RelationshipKind.INSTANCE_OF)

    def _link_roots(self, kind: RelationshipKind) -> list[str]:
        """Types with outgoing but no incoming *kind* links, in order."""
        return [
            name
            for name in self.interfaces
            if self.link_targets(name, kind)
            and not self.link_sources(name, kind)
        ]

    # ------------------------------------------------------------------
    # Whole-schema helpers
    # ------------------------------------------------------------------

    def relationship_pairs(self) -> list[tuple[str, RelationshipEnd]]:
        """Every (owner name, end) pair in declaration order."""
        return scan_relationship_pairs(self)

    def find_inverse(self, owner: str, end: RelationshipEnd) -> RelationshipEnd | None:
        """The declared inverse end of *end*, or ``None`` if missing."""
        if end.inverse_type not in self.interfaces:
            return None
        other = self.interfaces[end.inverse_type]
        inverse = other.relationships.get(end.inverse_name)
        if inverse is None:
            return None
        if inverse.target_type != owner or inverse.inverse_name != end.name:
            return None
        return inverse

    def copy(self, name: str | None = None) -> "Schema":
        """Structural copy of the schema (optionally renamed)."""
        duplicate = Schema(name or self.name)
        for interface in self:
            duplicate.add_interface(interface.copy())
        return duplicate

    def fork(self, name: str | None = None) -> "Schema":
        """A copy-on-write branch whose spine records its lineage.

        O(1)-ish in schema size: the fork *shares* every
        :class:`InterfaceDef` object with this schema (one dict of
        pointers, no interface copies, no population records) and its
        adjacency index starts as an overlay view of this schema's
        columns (no O(types) rebuild).  Divergence is paid per touched
        interface: mutating the fork goes through :meth:`edit`, which
        privatises the interface there, and mutating *this* schema runs
        the CoW barrier, which privatises it into any live fork first
        -- no write is ever visible across the boundary.

        The fork's log remembers the origin log and the seq it branched
        at (with ``base_seq`` 0, marking a record-free fork), so
        :func:`repro.analysis.diff.schema_diff` diffs divergence
        suffixes and :meth:`~repro.model.mutation.MutationLog.replay`
        rebuilds through the origin prefix.  Forks are registered weakly
        on every source spine; a fork that dies simply stops costing its
        sources anything (:meth:`release_cow` drops the registration
        eagerly for scratch forks).
        """
        duplicate = Schema(name or self.name)
        duplicate.interfaces = dict(self.interfaces)
        duplicate._log.link_origin(self._log)
        duplicate._cow_sources = (*self._cow_sources, self._log)
        share = duplicate._cow_share()
        for log in duplicate._cow_sources:
            log._cow_borrows.append(share)
        duplicate._index.adopt_base_adjacency(self._index)
        return duplicate

    def release_cow(self) -> None:
        """Withdraw this fork's borrow registrations from its sources.

        The registrations are weak, so this is optional -- but a
        short-lived scratch fork (propagation expansion) that releases
        eagerly stops costing its sources per-mutation settle checks
        right away instead of at the next garbage-collection cycle.
        After release the schema must not be used again: interfaces it
        still shares would silently reflect future source mutations.
        """
        borrow = self._cow_borrow
        if borrow is None:
            return
        self._cow_borrow = None
        for log in self._cow_sources:
            try:
                log._cow_borrows.remove(borrow)
            except ValueError:
                pass
        self._cow_sources = ()

    def validate(self) -> None:
        """Raise :class:`~repro.model.errors.ValidationError` on problems.

        Delegates to :func:`repro.model.validation.validate_schema` and
        raises when any error-severity issue is found.
        """
        from repro.model.validation import validate_schema

        validate_schema(self, raise_on_error=True)

    def note_analysis_cache(self, hit: bool) -> None:
        """Count one plan-analysis memo lookup (hit or miss).

        Fed by the plan-analysis memo behind
        :meth:`repro.repository.workspace.Workspace.apply_plan`, so
        ``stats()`` exposes the retry-reuse rate.
        """
        if hit:
            self._analysis_hits += 1
        else:
            self._analysis_misses += 1

    def stats(self) -> dict[str, int]:
        """Size metrics plus spine and subscriber counters.

        Spine and subscriber counters live under namespaced keys
        (``spine.seq``, ``index.hits``, ``validation.full`` ...).
        """
        index = self._index.stats()
        if self._validation is not None:
            validation = self._validation.stats()
        else:
            validation = {
                "clean_hits": 0,
                "full_validations": 0,
                "incremental_validations": 0,
                "interfaces_revalidated": 0,
                "interfaces_reused": 0,
            }
        return {
            "interfaces": len(self),
            "attributes": sum(len(i.attributes) for i in self),
            "relationship_ends": sum(len(i.relationships) for i in self),
            "operations": sum(len(i.operations) for i in self),
            "supertype_links": sum(len(i.supertypes) for i in self),
            "part_of_links": len(self.part_of_edges()),
            "instance_of_links": len(self.instance_of_edges()),
            "spine.seq": self._log.seq,
            "spine.records": len(self._log),
            "spine.subscribers": self._log.subscriber_count,
            "spine.lossy": int(self._log.lossy),
            "index.hits": index["hits"],
            "index.misses": index["misses"],
            "index.rebuilds": index["rebuilds"],
            "index.generation": index["generation"],
            "validation.clean_hits": validation["clean_hits"],
            "validation.full": validation["full_validations"],
            "validation.incremental": validation["incremental_validations"],
            "validation.revalidated": validation["interfaces_revalidated"],
            "validation.reused": validation["interfaces_reused"],
            "analysis.hits": self._analysis_hits,
            "analysis.misses": self._analysis_misses,
        }

    def __str__(self) -> str:
        return f"schema {self.name} ({len(self)} interfaces)"


def schema_from_interfaces(name: str, interfaces: Iterable[InterfaceDef]) -> Schema:
    """Convenience constructor used by the catalog and tests."""
    schema = Schema(name)
    for interface in interfaces:
        schema.add_interface(interface)
    return schema
