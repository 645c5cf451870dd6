"""Aggregation hierarchy concept schemas.

"The aggregation hierarchy expresses part-of relationships between two
object types. ... We propose a rooted aggregation hierarchy as one of our
generic concept schema patterns.  This concept schema allows the designer
to consider the part-of explosion for each aggregated object."
(Section 3.3.3; Figure 5 is the house/lumber-yard parts explosion.)

One concept schema is extracted per aggregation *root* -- a whole that is
not itself a part of anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.concepts.base import ConceptKind, ConceptSchema
from repro.model.relationships import RelationshipKind
from repro.model.schema import Schema


@dataclass(frozen=True)
class PartEdge:
    """One whole -> part link, named by the whole's to-parts path."""

    whole: str
    part: str
    path_name: str

    def describe(self) -> str:
        return f"{self.part} part-of {self.whole} (via {self.path_name})"


@dataclass(frozen=True)
class AggregationHierarchy(ConceptSchema):
    """A rooted parts explosion."""

    edges: tuple[PartEdge, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ConceptKind.AGGREGATION)

    @property
    def root(self) -> str:
        """The root whole of the explosion (alias of ``anchor``)."""
        return self.anchor

    def parts_of(self, whole: str) -> list[str]:
        """Direct components of *whole* within this hierarchy."""
        return [e.part for e in self.edges if e.whole == whole]

    def wholes_of(self, part: str) -> list[str]:
        """Direct wholes of *part* within this hierarchy."""
        return [e.whole for e in self.edges if e.part == part]

    def bill_of_materials(self) -> list[tuple[int, str]]:
        """Depth-first (indent level, type) listing of the explosion.

        A shared part (one used by several wholes) appears once under
        each of its wholes, as in a conventional parts explosion.
        """
        listing: list[tuple[int, str]] = []

        def walk(node: str, level: int, path: frozenset[str]) -> None:
            listing.append((level, node))
            for part in self.parts_of(node):
                if part not in path:
                    walk(part, level + 1, path | {part})

        walk(self.root, 0, frozenset({self.root}))
        return listing


def constructor_edges(schema: Schema) -> list[tuple[str, str, str]]:
    """Implicit whole->part edges from collection-typed attributes.

    The paper's last proposed extension (Section 5): the object-oriented
    type constructors (set-of, list-of, bag-of, array-of) used to build
    complex objects "may be implemented as a variation of aggregation".
    An attribute like ``attribute set<Address> addresses`` therefore
    contributes an implicit (owner, element type, attribute name) edge
    when the element is an object type.
    """
    from repro.model.types import CollectionType, NamedType

    edges: list[tuple[str, str, str]] = []
    for interface in schema:
        for attribute in interface.attributes.values():
            if isinstance(attribute.type, CollectionType) and isinstance(
                attribute.type.element, NamedType
            ):
                edges.append(
                    (interface.name, attribute.type.element.name,
                     attribute.name)
                )
    return edges


def extract_aggregation_hierarchy(
    schema: Schema, root: str, include_constructors: bool = False
) -> AggregationHierarchy:
    """Extract the parts explosion rooted at *root*.

    Members are every type reachable from *root* by part-of edges; edges
    are all whole->part links between members.  With
    ``include_constructors`` set, collection-typed attributes over
    object types count as implicit aggregation edges too (the paper's
    type-constructor extension, see :func:`constructor_edges`).
    """
    schema.get(root)  # raise early on unknown types
    implicit = constructor_edges(schema) if include_constructors else []
    implicit_parts: dict[str, list[str]] = {}
    for whole, part, _ in implicit:
        implicit_parts.setdefault(whole, []).append(part)
    members = {root}
    frontier = [root]
    while frontier:
        whole = frontier.pop()
        for part in schema.parts(whole) + implicit_parts.get(whole, []):
            if part not in members:
                members.add(part)
                frontier.append(part)
    # Explicit edges in declaration order, read off the members' own
    # to-parts ends (dangling parts own none), then the implicit ones.
    interfaces = schema.interfaces
    explicit = [
        (whole, end.target_type, end.name)
        for whole in sorted(
            (name for name in members if name in interfaces),
            key=schema.index.declaration_key(),
        )
        for end in interfaces[whole].relationships.values()
        if end.kind is RelationshipKind.PART_OF and end.is_to_many
    ]
    edges = tuple(
        PartEdge(whole, part, path_name)
        for whole, part, path_name in explicit + implicit
        if whole in members and part in members
    )
    return AggregationHierarchy(
        anchor=root, members=frozenset(members), edges=edges
    )


def aggregation_roots_with_constructors(schema: Schema) -> list[str]:
    """Aggregation roots when constructor edges count as part-of."""
    edges = [
        (whole, part) for whole, part, _ in schema.part_of_edges()
    ] + [(whole, part) for whole, part, _ in constructor_edges(schema)]
    wholes = {whole for whole, _ in edges}
    parts = {part for _, part in edges}
    return [name for name in schema.type_names() if name in wholes - parts]


def extract_all_aggregation_hierarchies(
    schema: Schema, include_constructors: bool = False
) -> list[AggregationHierarchy]:
    """One hierarchy per aggregation root, in declaration order."""
    roots = (
        aggregation_roots_with_constructors(schema)
        if include_constructors
        else schema.aggregation_roots()
    )
    return [
        extract_aggregation_hierarchy(schema, root, include_constructors)
        for root in roots
    ]
