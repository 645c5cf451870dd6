"""Graph queries over a schema's link graphs, and their reference scans.

Every concept-schema extraction, propagation expansion, and consistency
pass bottoms out in :class:`~repro.model.schema.Schema`'s graph queries.
:class:`SchemaIndex` answers the ones that need a reverse direction or
a declaration order from one store, the spine-fed
:class:`~repro.model.columnar.ColumnarAdjacency`:

* ``subtypes`` / ``children`` / ``with_subtypes`` -- the ISA children
  rows (``subtypes`` sorted by the position column);
* ``descendants_of`` / ``descendants_closure`` -- integer BFS over the
  same rows;
* ``referencers_of`` / ``ends_targeting`` -- the incoming-reference
  rows (``ends_targeting`` sorts the owners by position);
* ``declaration_key`` -- the position column as a sort key.

Forward links (supertypes, parts, instances) need no index: ``Schema``
reads them off the owner's own definition.

**Freshness.**  The store is a subscriber of the schema's mutation
spine (:mod:`repro.model.mutation`): it folds every record as it is
emitted, and a lossy record (``touch`` or an unknown kind) marks it
dirty for one scan rebuild on the next query.  Code that mutates schema
content without going through a mutator must call ``Schema.touch()``
itself -- see DESIGN.md §5e.

The module also ships the ``scan_*`` reference implementations: the
original full-scan queries, kept as the executable specification the
index is validated against (property tests) and benchmarked against
(``benchmarks/test_bench_index_scaling.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.model.columnar import ColumnarAdjacency
from repro.model.mutation import MutationRecord
from repro.model.relationships import RelationshipEnd, RelationshipKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.schema import Schema

#: (one-side owner, many-side target, to-many end) of one hierarchy link.
Edge = tuple[str, str, RelationshipEnd]


class SchemaIndex:
    """Query facade over the schema's columnar adjacency store.

    Holds no state of its own beyond counters: each query makes the
    store fresh (``hits`` when it already was, ``misses`` and
    ``rebuilds`` when the query triggered a scan rebuild) and answers
    from its columns.
    """

    __slots__ = ("_schema", "adjacency", "hits", "misses", "rebuilds")

    def __init__(self, schema: "Schema") -> None:
        self._schema = schema
        #: The columnar (struct-of-arrays) ISA / reverse-reference /
        #: position store.  The dict implementation it replaced survives
        #: as :class:`repro.model.columnar.DictAdjacency`, the reference
        #: spec the ``columnar-vs-dict-adjacency`` differential holds
        #: this store to.
        self.adjacency = ColumnarAdjacency(schema)
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0
        schema.log.subscribe(self._observe)

    def _observe(self, record: MutationRecord) -> None:
        """Fold one mutation record into the columnar store."""
        self.adjacency.observe(record)

    def adopt_base_adjacency(self, parent: "SchemaIndex") -> None:
        """Overlay the parent's columnar store instead of rebuilding.

        Called by ``Schema.fork`` right after the fork's fresh index is
        wired: replaces the cold (dirty) columnar store with a CoW
        overlay of the parent's, so the fork's first graph query costs
        O(ids) pointer copies instead of an O(types) scan rebuild.
        ``_observe`` looks ``self.adjacency`` up dynamically, so
        swapping the store here keeps the spine subscription intact.
        """
        self.adjacency = parent.adjacency.fork_view(self._schema)

    def _fresh(self) -> ColumnarAdjacency:
        """The store, rebuilt first if stale; counts the query."""
        adjacency = self.adjacency
        if adjacency.ensure_fresh():
            self.misses += 1
            self.rebuilds += 1
        else:
            self.hits += 1
        return adjacency

    def stats(self) -> dict[str, int]:
        """Query counters plus the store's size and rebuild counters."""
        adjacency = self.adjacency.stats()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rebuilds": self.rebuilds,
            "generation": self._schema.generation,
            "adjacency_ids": adjacency["ids"],
            "adjacency_capacity": adjacency["capacity"],
            "adjacency_free_ids": adjacency["free_ids"],
            "adjacency_rebuilds": adjacency["rebuilds"],
        }

    def reset_stats(self) -> None:
        """Zero the counters (benchmarks measure phases separately)."""
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # Generalization hierarchy
    # ------------------------------------------------------------------

    def subtypes(self, name: str) -> list[str]:
        """Direct subtypes of *name*, in declaration order.

        *name* may be a dangling supertype name (a subtype may reference
        a type the schema does not define).
        """
        return self._fresh().children_of(name, ordered=True)

    def children(self, name: str) -> list[str]:
        """Direct subtypes of *name* in no particular order (the cheap
        form for walks that only collect a set)."""
        return self._fresh().children_of(name)

    def with_subtypes(self) -> set[str]:
        """Every name, defined or dangling, with at least one subtype."""
        return self._fresh().with_children()

    def descendants_of(self, name: str) -> set[str]:
        """Transitive subtypes of *name*; excludes *name* itself.

        An integer BFS over the flat ISA-children rows, folded
        record-by-record from the spine, so a 100-op plan pays O(ops)
        maintenance instead of O(N) rebuilds.
        """
        return self._fresh().descendants_of(name)

    def descendants_closure(self, seeds: set[str]) -> set[str]:
        """Every descendant of any seed, the seeds themselves excluded
        unless reachable from another seed."""
        return self._fresh().descendants_closure(seeds)

    # ------------------------------------------------------------------
    # Reverse references (who mentions type X?) and declaration order
    # ------------------------------------------------------------------

    def referencers_of(self, target: str) -> set[str]:
        """Names of interfaces whose definition references *target*.

        Reference = supertype entry, attribute domain, relationship
        target/inverse type, or operation signature type — exactly
        :meth:`InterfaceDef.referenced_type_names`.  Maintained
        incrementally: a mutator record only marks its owner pending,
        and pending owners re-derive their reference rows lazily.
        """
        return self._fresh().referencers_of(target)

    def ends_targeting(
        self, targets: Iterable[str]
    ) -> list[tuple[str, RelationshipEnd]]:
        """(owner, end) pairs with ``end.target_type`` in *targets*.

        Same relative order as ``scan_relationship_pairs``: an end
        targeting X implies its owner references X
        (``referenced_type_names`` includes every end's target type),
        so only the referencing owners' ends are read, owners sorted by
        declaration position.
        """
        targets = set(targets)
        owners = self._fresh().referencers_in_order(targets)
        interfaces = self._schema.interfaces
        return [
            (owner, end)
            for owner in owners
            for end in interfaces[owner].relationships.values()
            if end.target_type in targets
        ]

    def declaration_key(self) -> Callable[[str], int]:
        """Sort key mapping a defined type name to its declaration
        position; sorting by it reproduces the schema's order."""
        return self._fresh().position_key()


# ----------------------------------------------------------------------
# Full-scan reference implementations
# ----------------------------------------------------------------------
#
# These are the pre-index query bodies, preserved verbatim in behaviour.
# The invalidation property tests assert that after any operation stream
# (including undo / redo / reset) every indexed query still equals its
# scan counterpart, and the scaling bench quantifies what the index buys
# over them.


def scan_link_edges(schema: "Schema", kind: RelationshipKind) -> list[Edge]:
    """Directed edges (one-side -> many-side) for part-of/instance-of.

    Only the to-many end contributes an edge so each relationship is
    counted once; the edge runs from the owner of the to-many end (the
    whole / the generic entity) to its target (the part / instance).
    """
    edges: list[Edge] = []
    for interface in schema:
        for end in interface.relationships_of_kind(kind):
            if end.is_to_many:
                edges.append((interface.name, end.target_type, end))
    return edges


def scan_subtypes(schema: "Schema", name: str) -> list[str]:
    """Direct subtypes of *name* by scanning every interface."""
    return [
        interface.name
        for interface in schema
        if name in interface.supertypes
    ]


def scan_descendants(schema: "Schema", name: str) -> set[str]:
    """Transitive subtypes of *name* via repeated full scans."""
    schema.get(name)  # raise for unknown types
    result: set[str] = set()
    frontier = scan_subtypes(schema, name)
    while frontier:
        current = frontier.pop()
        if current in result:
            continue
        result.add(current)
        frontier.extend(scan_subtypes(schema, current))
    return result


def scan_ancestors(schema: "Schema", name: str) -> set[str]:
    """Transitive *resolved* supertypes of *name* (dangling names are
    not types and are excluded, mirroring ``Schema.ancestors``)."""
    result: set[str] = set()
    frontier = [
        supertype
        for supertype in schema.get(name).supertypes
        if supertype in schema.interfaces
    ]
    while frontier:
        current = frontier.pop()
        if current in result:
            continue
        result.add(current)
        frontier.extend(
            supertype
            for supertype in schema.interfaces[current].supertypes
            if supertype in schema.interfaces
        )
    return result


def scan_generalization_roots(schema: "Schema") -> list[str]:
    """Types with subtypes but no *resolved* supertypes."""
    return [
        interface.name
        for interface in schema
        if not any(s in schema.interfaces for s in interface.supertypes)
        and scan_subtypes(schema, interface.name)
    ]


def scan_parts(schema: "Schema", name: str) -> list[str]:
    """Direct components of *name* by rebuilding the edge list."""
    edges = scan_link_edges(schema, RelationshipKind.PART_OF)
    return [part for whole, part, _ in edges if whole == name]


def scan_wholes(schema: "Schema", name: str) -> list[str]:
    """Direct wholes of *name* by rebuilding the edge list."""
    edges = scan_link_edges(schema, RelationshipKind.PART_OF)
    return [whole for whole, part, _ in edges if part == name]


def scan_aggregation_roots(schema: "Schema") -> list[str]:
    """Wholes that are not themselves parts of anything."""
    edges = scan_link_edges(schema, RelationshipKind.PART_OF)
    wholes = {whole for whole, _, _ in edges}
    parts = {part for _, part, _ in edges}
    return [name for name in schema.type_names() if name in wholes - parts]


def scan_instance_of_roots(schema: "Schema") -> list[str]:
    """Generic entities that are not instances of anything."""
    edges = scan_link_edges(schema, RelationshipKind.INSTANCE_OF)
    generics = {generic for generic, _, _ in edges}
    instances = {inst for _, inst, _ in edges}
    return [name for name in schema.type_names() if name in generics - instances]


def scan_relationship_pairs(
    schema: "Schema",
) -> list[tuple[str, RelationshipEnd]]:
    """Every (owner name, end) pair in declaration order."""
    return [
        (interface.name, end)
        for interface in schema
        for end in interface.relationships.values()
    ]
