"""Shared mechanics for relationship operations of all three kinds.

Association, part-of, and instance-of relationship ends share storage and
inverse-pairing rules; the operation classes for each kind
(:mod:`repro.ops.relationship_ops`, :mod:`repro.ops.part_of_ops`,
:mod:`repro.ops.instance_of_ops`) are thin subclasses of the generic
bases defined here, differing in the relationship kind they police and
the concept schema types that may issue them (Table 1).

The heart of the module is :func:`retarget_end`, the primitive behind
``modify_relationship_target_type`` and its part-of / instance-of
variants.  It implements exactly the paper's Figure 8 example::

    modify_relationship_target_type(Employee, works_in_a, Person)

    Department: relationship set<Employee> has inverse Employee::works_in_a
    Employee:   relationship Department works_in_a inverse Department::has
      -- becomes --
    Department: relationship set<Person> has inverse Person::works_in_a
    Person:     relationship Department works_in_a inverse Department::has

i.e. one end is re-typed and the paired inverse declaration physically
moves to the new participant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.model.mutation import Aspect, aspect_for_kind
from repro.model.interface import InterfaceDef
from repro.model.relationships import RelationshipEnd, RelationshipKind
from repro.model.schema import Schema
from repro.model.types import CollectionType, NamedType, TypeRef, set_of
from repro.ops.base import (
    FREE_CONTEXT,
    ConstraintViolation,
    OperationContext,
    SchemaOperation,
    Undo,
    render_list,
)
from repro.ops.effects import WILDCARD


def get_end_of_kind(
    schema: Schema, typename: str, path: str, kind: RelationshipKind
) -> RelationshipEnd:
    """Fetch ``typename::path`` and check it is of the expected kind."""
    end = schema.get(typename).get_relationship(path)
    if end.kind is not kind:
        raise ConstraintViolation(
            f"{typename}::{path} is a {end.kind.value} relationship; this "
            f"operation handles {kind.value} relationships"
        )
    return end


def _property_name_free(interface: InterfaceDef, name: str) -> bool:
    return name not in interface.attributes and name not in interface.relationships


def _check_target_shape(target: TypeRef, where: str) -> str:
    """Targets must be an interface or a collection of one; return its name."""
    if isinstance(target, NamedType):
        return target.name
    if isinstance(target, CollectionType) and isinstance(target.element, NamedType):
        return target.element.name
    raise ConstraintViolation(
        f"{where}: relationship target must be an interface or a "
        f"collection of interfaces, got {target}"
    )


def check_hierarchy_stays_acyclic(
    schema: Schema,
    kind: RelationshipKind,
    added_edge: tuple[str, str],
    dropped_edge: tuple[str, str] | None = None,
    where: str = "",
) -> None:
    """Reject a part-of / instance-of edge that would close a cycle.

    Part-of and instance-of relationships form implicit 1:N hierarchies
    (Section 3.1): the aggregation and instance-of graphs must stay
    acyclic, exactly like the generalization hierarchy.  *added_edge* is
    the prospective (one-side, many-side) edge -- (whole, part) or
    (generic, instance); *dropped_edge* is an existing edge the same
    operation removes (re-targeting moves an edge, it does not add one).
    """
    one_side, many_side = added_edge
    label = "aggregation" if kind is RelationshipKind.PART_OF else "instance-of"
    if one_side == many_side:
        raise ConstraintViolation(
            f"{where}: {one_side!r} cannot be its own "
            f"{'part' if kind is RelationshipKind.PART_OF else 'instance'} "
            f"(the {label} hierarchy must stay acyclic)"
        )
    # A cycle appears iff the new edge's one-side is already reachable
    # from its many-side along existing edges.  Every edge of the
    # hierarchy is derived from its to-many end's owner (see
    # ``scan_link_edges``), so a visited node's successors are read off
    # that node's own end list -- the walk touches only the reachable
    # subgraph instead of rebuilding the whole-schema edge listing.
    interfaces = schema.interfaces
    drop_one, drop_many = dropped_edge if dropped_edge is not None else (
        None,
        None,
    )
    frontier = [many_side]
    seen: set[str] = set()
    while frontier:
        current = frontier.pop()
        if current == one_side:
            raise ConstraintViolation(
                f"{where}: adding this {label} link would close a cycle "
                f"({one_side!r} is already a transitive "
                f"{'part' if kind is RelationshipKind.PART_OF else 'instance'}"
                f" of {many_side!r})"
            )
        if current in seen:
            continue
        seen.add(current)
        interface = interfaces.get(current)
        if interface is None:
            continue
        # One occurrence of *dropped_edge* is being moved by this same
        # operation and must not count (mirrors ``edges.remove``).
        skip_pending = current == drop_one
        for end in interface.relationships_of_kind(kind):
            if end.is_to_many:
                target = end.target_type
                if skip_pending and target == drop_many:
                    skip_pending = False
                    continue
                frontier.append(target)


def default_inverse_target(owner: str, added_end: RelationshipEnd) -> TypeRef:
    """Target for an auto-created inverse end.

    Associations default to a to-one inverse (1:N seen from the owner);
    part-of and instance-of must complement the added end so the implicit
    1:N holds: a to-one (to-whole / to-generic) end gets a to-many
    inverse.
    """
    if added_end.kind is RelationshipKind.ASSOCIATION:
        return NamedType(owner)
    if added_end.is_to_many:
        return NamedType(owner)
    return set_of(owner)


class RelationshipOperation(SchemaOperation):
    """Base of every relationship operation, scoping dirt by kind.

    Concrete subclasses declare ``kind``; the touch-aspect scope the
    incremental validator keys dirty-set derivation off follows from it
    automatically, so the fifteen thin kind-specific classes need not
    repeat it.
    """

    kind: ClassVar[RelationshipKind]

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        kind = getattr(cls, "kind", None)
        if kind is not None:
            cls.touched_aspects = frozenset({aspect_for_kind(kind)})

    def _kind_aspect(self) -> Aspect:
        """The relationship-end aspect this operation's kind maps to."""
        return aspect_for_kind(self.kind)


@dataclass(frozen=True, eq=False)
class AddRelationshipBase(RelationshipOperation):
    """Generic ``add_*_relationship`` over one relationship kind.

    Adds the end declared in ``typename``; when the declared inverse does
    not exist yet in the target type, a complementary inverse end is
    created automatically so the schema stays structurally valid after
    every operation (the created end is part of the operation's impact).
    """

    kind: ClassVar[RelationshipKind]

    typename: str
    target: TypeRef
    traversal_path: str
    inverse_type: str
    inverse_name: str
    order_by: tuple[str, ...] = ()

    def _build_end(self) -> RelationshipEnd:
        return RelationshipEnd(
            self.traversal_path, self.target, self.inverse_type,
            self.inverse_name, self.kind, tuple(self.order_by),
        )

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        owner = schema.get(self.typename)
        where = f"{self.typename}::{self.traversal_path}"
        target_name = _check_target_shape(self.target, where)
        target_interface = schema.get(target_name)
        if not _property_name_free(owner, self.traversal_path):
            raise ConstraintViolation(
                f"{self.typename!r} already has a property "
                f"{self.traversal_path!r}"
            )
        if self.inverse_type != target_name:
            raise ConstraintViolation(
                f"{where}: the inverse path must live in the target type "
                f"{target_name!r}, not {self.inverse_type!r}"
            )
        end = self._build_end()
        self._check_order_by(schema, target_name)
        self._check_acyclic(schema)
        inverse = target_interface.relationships.get(self.inverse_name)
        if inverse is None:
            if not _property_name_free(target_interface, self.inverse_name):
                raise ConstraintViolation(
                    f"{target_name!r} already has a non-relationship "
                    f"property {self.inverse_name!r}"
                )
            return
        # The designer declared the other direction first: it must pair up.
        if inverse.kind is not self.kind:
            raise ConstraintViolation(
                f"{where}: existing inverse {target_name}::{self.inverse_name} "
                f"is {inverse.kind.value}, not {self.kind.value}"
            )
        if inverse.target_type != self.typename or inverse.inverse_name != self.traversal_path:
            raise ConstraintViolation(
                f"{where}: existing {target_name}::{self.inverse_name} does "
                f"not point back at {self.typename}::{self.traversal_path}"
            )
        if self.kind is not RelationshipKind.ASSOCIATION:
            if end.is_to_many == inverse.is_to_many:
                raise ConstraintViolation(
                    f"{where}: a {self.kind.value} relationship is "
                    "implicitly 1:N; exactly one end may be to-many"
                )

    def _check_acyclic(self, schema: Schema) -> None:
        if self.kind is RelationshipKind.ASSOCIATION:
            return
        end = self._build_end()
        target_name = _check_target_shape(
            self.target, f"{self.typename}::{self.traversal_path}"
        )
        edge = (
            (self.typename, target_name)
            if end.is_to_many
            else (target_name, self.typename)
        )
        check_hierarchy_stays_acyclic(
            schema, self.kind, edge,
            where=f"{self.typename}::{self.traversal_path}",
        )

    def _check_order_by(self, schema: Schema, target_name: str) -> None:
        if not self.order_by:
            return
        target = schema.get(target_name)
        available = set(target.attributes)
        available.update(schema.inherited_attributes(target_name))
        for attr_name in self.order_by:
            if attr_name not in available:
                raise ConstraintViolation(
                    f"order_by names unknown attribute {attr_name!r} of "
                    f"{target_name!r}"
                )

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        owner = schema.edit(self.typename)
        target_interface = schema.edit(self.inverse_type)
        end = self._build_end()
        owner.add_relationship(end)
        created_inverse = False
        if self.inverse_name not in target_interface.relationships:
            target_interface.add_relationship(
                RelationshipEnd(
                    self.inverse_name,
                    default_inverse_target(self.typename, end),
                    self.typename,
                    self.traversal_path,
                    self.kind,
                )
            )
            created_inverse = True

        def undo() -> None:
            schema.edit(self.typename).remove_relationship(self.traversal_path)
            if created_inverse:
                schema.edit(self.inverse_type).remove_relationship(self.inverse_name)

        return undo

    def arguments(self) -> tuple[str, ...]:
        args = [
            self.typename,
            str(self.target),
            self.traversal_path,
            f"{self.inverse_type}::{self.inverse_name}",
        ]
        if self.order_by:
            args.append(render_list(self.order_by))
        return tuple(args)

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename, self.inverse_type)

    def required_names(self) -> tuple[str, ...]:
        # validate resolves the owner and the shape-derived target name;
        # a malformed target shape fails for its own (static) reason.
        names = [self.typename]
        if isinstance(self.target, NamedType):
            names.append(self.target.name)
        elif isinstance(self.target, CollectionType) and isinstance(
            self.target.element, NamedType
        ):
            names.append(self.target.element.name)
        return tuple(dict.fromkeys(names))

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        aspect = self._kind_aspect()
        cells = {
            (self.typename, Aspect.ATTRS),
            (self.typename, aspect),
            (self.inverse_type, Aspect.ATTRS),
            (self.inverse_type, aspect),
        }
        if self.kind is not RelationshipKind.ASSOCIATION:
            # The acyclicity check walks the whole implicit hierarchy.
            cells.add((WILDCARD, aspect))
        if self.order_by:
            # Order-by attributes resolve through the inheritance closure.
            cells.add((WILDCARD, Aspect.ATTRS))
            cells.add((WILDCARD, Aspect.ISA))
        return frozenset(cells)


@dataclass(frozen=True, eq=False)
class DeleteRelationshipBase(RelationshipOperation):
    """Generic ``delete_*_relationship``.

    Removes the named end *and* its paired inverse declaration -- a lone
    end would leave the schema structurally invalid, so the pair is the
    unit of deletion (the removed inverse is part of the impact).
    """

    kind: ClassVar[RelationshipKind]

    typename: str
    traversal_path: str

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        get_end_of_kind(schema, self.typename, self.traversal_path, self.kind)

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        owner = schema.edit(self.typename)
        owner_order = list(owner.relationships)
        end = owner.remove_relationship(self.traversal_path)
        inverse_owner: InterfaceDef | None = None
        inverse_end: RelationshipEnd | None = None
        inverse_order: list[str] = []
        if end.inverse_type in schema:
            candidate_owner = schema.edit(end.inverse_type)
            candidate = candidate_owner.relationships.get(end.inverse_name)
            if (
                candidate is not None
                and candidate.target_type == self.typename
                and candidate.inverse_name == self.traversal_path
            ):
                inverse_owner = candidate_owner
                inverse_order = list(candidate_owner.relationships)
                inverse_end = candidate_owner.remove_relationship(end.inverse_name)

        def undo() -> None:
            # Reverse order of the removals, so a self-paired owner
            # passes through the exact intermediate state it had.
            if inverse_owner is not None and inverse_end is not None:
                restored = schema.edit(inverse_owner.name)
                restored.add_relationship(inverse_end)
                restored.reorder_relationships(inverse_order)
            restored = schema.edit(self.typename)
            restored.add_relationship(end)
            restored.reorder_relationships(owner_order)

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (self.typename, self.traversal_path)

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename,)

    def written_footprint(self) -> frozenset[tuple[str, Aspect]]:
        # The paired inverse lives in the end's (statically unknown)
        # target type; the wildcard keeps the footprint honest.
        aspect = self._kind_aspect()
        return frozenset({(self.typename, aspect), (WILDCARD, aspect)})

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        return self.written_footprint()


def retarget_end(
    schema: Schema,
    owner_name: str,
    path: str,
    new_target_name: str,
    kind: RelationshipKind,
    context: OperationContext,
    check_only: bool = False,
) -> Undo | None:
    """Re-type ``owner::path`` and move its inverse declaration (Fig. 8).

    Semantic stability requires the old and new targets to lie on one
    generalization path of the reference schema.
    """
    end = get_end_of_kind(schema, owner_name, path, kind)
    old_target_name = end.target_type
    if new_target_name == old_target_name:
        raise ConstraintViolation(
            f"{owner_name}::{path} already targets {new_target_name!r}"
        )
    new_target = schema.get(new_target_name)
    context.check_isa_related(
        schema, old_target_name, new_target_name,
        f"re-target of {owner_name}::{path}",
    )
    old_target = schema.get(old_target_name)
    inverse = old_target.relationships.get(end.inverse_name)
    if (
        inverse is None
        or inverse.target_type != owner_name
        or inverse.inverse_name != path
    ):
        raise ConstraintViolation(
            f"{owner_name}::{path}: inverse declaration "
            f"{old_target_name}::{end.inverse_name} is missing or mismatched"
        )
    if not _property_name_free(new_target, end.inverse_name):
        raise ConstraintViolation(
            f"{new_target_name!r} already has a property "
            f"{end.inverse_name!r}; the inverse path cannot move there"
        )
    if kind is not RelationshipKind.ASSOCIATION:
        if end.is_to_many:
            added = (owner_name, new_target_name)
            dropped = (owner_name, old_target_name)
        else:
            added = (new_target_name, owner_name)
            dropped = (old_target_name, owner_name)
        check_hierarchy_stays_acyclic(
            schema, kind, added, dropped, where=f"{owner_name}::{path}"
        )
    if check_only:
        return None

    owner = schema.edit(owner_name)
    new_end = end.with_target_type(new_target_name).with_inverse(
        new_target_name, end.inverse_name
    )
    owner.replace_relationship(new_end)
    old_order = list(old_target.relationships)
    moved = schema.edit(old_target_name).remove_relationship(end.inverse_name)
    schema.edit(new_target_name).add_relationship(moved)

    def undo() -> None:
        schema.edit(owner_name).replace_relationship(end)
        schema.edit(new_target_name).remove_relationship(moved.name)
        restored = schema.edit(old_target_name)
        restored.add_relationship(moved)
        restored.reorder_relationships(old_order)

    return undo


@dataclass(frozen=True, eq=False)
class ModifyTargetTypeBase(RelationshipOperation):
    """Generic ``modify_*_target_type``.

    Two call shapes are accepted, following the paper itself:

    * the Appendix A grammar form
      ``(typename, path, old_target_type, new_target_type)`` -- re-target
      the end declared in ``typename``;
    * the Section 3.4 prose form ``(typename, path, new_target_type)``
      (``old_target_type`` omitted) -- when ``new_target_type`` is not a
      generalization relative of the end's current target but *is* one of
      ``typename``, the operation is read as *moving the declared end
      itself* to ``new_target_type``, which is exactly a re-target of its
      inverse end (the Figure 8 reading of
      ``modify_relationship_target_type(Employee, works_in_a, Person)``).
    """

    kind: ClassVar[RelationshipKind]

    typename: str
    traversal_path: str
    new_target_type: str
    old_target_type: str | None = None

    def _resolve(self, schema: Schema, context: OperationContext) -> tuple[str, str]:
        """Return (owner, path) of the end whose target actually changes."""
        end = get_end_of_kind(schema, self.typename, self.traversal_path, self.kind)
        schema.get(self.new_target_type)
        if self.old_target_type is not None:
            if end.target_type != self.old_target_type:
                raise ConstraintViolation(
                    f"{self.typename}::{self.traversal_path} targets "
                    f"{end.target_type!r}, not {self.old_target_type!r}"
                )
            return (self.typename, self.traversal_path)
        hierarchy = context.stability_hierarchy(schema)

        def related(first: str, second: str) -> bool:
            if first in hierarchy and second in hierarchy:
                return hierarchy.isa_related(first, second)
            return schema.isa_related(first, second)

        if related(end.target_type, self.new_target_type):
            return (self.typename, self.traversal_path)
        if related(self.typename, self.new_target_type):
            # Move form: this end itself migrates; re-target the inverse.
            return (end.inverse_type, end.inverse_name)
        raise ConstraintViolation(
            f"{self.new_target_type!r} is a generalization relative of "
            f"neither {end.target_type!r} nor {self.typename!r}"
        )

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        owner, path = self._resolve(schema, context)
        retarget_end(
            schema, owner, path, self.new_target_type, self.kind, context,
            check_only=True,
        )

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        owner, path = self._resolve(schema, context)
        undo = retarget_end(
            schema, owner, path, self.new_target_type, self.kind, context
        )
        assert undo is not None
        return undo

    def arguments(self) -> tuple[str, ...]:
        if self.old_target_type is None:
            return (self.typename, self.traversal_path, self.new_target_type)
        return (
            self.typename, self.traversal_path,
            self.old_target_type, self.new_target_type,
        )

    def affected_types(self) -> tuple[str, ...]:
        affected = [self.typename, self.new_target_type]
        if self.old_target_type is not None:
            affected.append(self.old_target_type)
        return tuple(affected)

    def required_names(self) -> tuple[str, ...]:
        # The old target is only matched against the end's declaration;
        # it need not resolve.  The resolved end's inverse may live in a
        # third type, so writes stay wildcard below.
        return tuple(dict.fromkeys((self.typename, self.new_target_type)))

    def written_footprint(self) -> frozenset[tuple[str, Aspect]]:
        aspect = self._kind_aspect()
        return frozenset({
            (self.typename, aspect),
            (self.new_target_type, aspect),
            (WILDCARD, aspect),
        })

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        return self.written_footprint() | frozenset({
            (WILDCARD, Aspect.ISA),
            (self.new_target_type, Aspect.ATTRS),
        })


@dataclass(frozen=True, eq=False)
class ModifyCardinalityBase(RelationshipOperation):
    """Generic ``modify_*_cardinality``.

    Changes the target-of-path shape of one end (``set<T>`` -> ``list<T>``,
    ``T`` -> ``set<T>``, ...) without re-targeting it.  For part-of and
    instance-of relationships the grammar restricts the operation to the
    to-many end and the end must stay to-many, preserving the implicit
    1:N.
    """

    kind: ClassVar[RelationshipKind]

    typename: str
    traversal_path: str
    old_target: TypeRef
    new_target: TypeRef

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        end = get_end_of_kind(schema, self.typename, self.traversal_path, self.kind)
        where = f"{self.typename}::{self.traversal_path}"
        if end.target != self.old_target:
            raise ConstraintViolation(
                f"{where} has target {end.target}, not {self.old_target}"
            )
        new_name = _check_target_shape(self.new_target, where)
        if new_name != end.target_type:
            raise ConstraintViolation(
                f"{where}: modify cardinality may not re-target the "
                f"relationship ({end.target_type!r} -> {new_name!r}); use "
                "the target-type operation"
            )
        if self.kind is not RelationshipKind.ASSOCIATION:
            if not end.is_to_many:
                raise ConstraintViolation(
                    f"{where}: cardinality of a {self.kind.value} "
                    "relationship may only change on its to-many end"
                )
            if not isinstance(self.new_target, CollectionType):
                raise ConstraintViolation(
                    f"{where}: the to-many end of a {self.kind.value} "
                    "relationship must keep a collection target (implicit 1:N)"
                )
        if not isinstance(self.new_target, CollectionType) and end.order_by:
            raise ConstraintViolation(
                f"{where}: drop the order_by list before making the end "
                "to-one"
            )

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        owner = schema.edit(self.typename)
        end = owner.get_relationship(self.traversal_path)
        owner.replace_relationship(end.with_target(self.new_target))

        def undo() -> None:
            schema.edit(self.typename).replace_relationship(end)

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (
            self.typename, self.traversal_path,
            str(self.old_target), str(self.new_target),
        )

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename,)


@dataclass(frozen=True, eq=False)
class ModifyOrderByBase(RelationshipOperation):
    """Generic ``modify_*_order_by`` over one relationship kind."""

    kind: ClassVar[RelationshipKind]

    typename: str
    traversal_path: str
    old_order_by: tuple[str, ...]
    new_order_by: tuple[str, ...]

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        end = get_end_of_kind(schema, self.typename, self.traversal_path, self.kind)
        where = f"{self.typename}::{self.traversal_path}"
        if end.order_by != tuple(self.old_order_by):
            raise ConstraintViolation(
                f"{where} has order_by {end.order_by!r}, not "
                f"{tuple(self.old_order_by)!r}"
            )
        if self.new_order_by and not end.is_to_many:
            raise ConstraintViolation(
                f"{where} is to-one; order_by only applies to to-many ends"
            )
        if self.new_order_by and end.target_type in schema:
            target = schema.get(end.target_type)
            available = set(target.attributes)
            available.update(schema.inherited_attributes(end.target_type))
            for attr_name in self.new_order_by:
                if attr_name not in available:
                    raise ConstraintViolation(
                        f"{where}: order_by names unknown attribute "
                        f"{attr_name!r} of {end.target_type!r}"
                    )

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        owner = schema.edit(self.typename)
        end = owner.get_relationship(self.traversal_path)
        owner.replace_relationship(end.with_order_by(tuple(self.new_order_by)))

        def undo() -> None:
            schema.edit(self.typename).replace_relationship(end)

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (
            self.typename, self.traversal_path,
            render_list(self.old_order_by), render_list(self.new_order_by),
        )

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename,)

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        cells = {(self.typename, self._kind_aspect())}
        if self.new_order_by:
            # The new ordering's attributes resolve through the target's
            # inheritance closure.
            cells.add((WILDCARD, Aspect.ATTRS))
            cells.add((WILDCARD, Aspect.ISA))
        return frozenset(cells)
