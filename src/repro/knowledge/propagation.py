"""Propagation rules: the changes that follow from a given change.

Section 5, activity 9: "Definition of a set of rules to show the
designer the impact of the proposed modification operation (i.e., all of
the changes that follow from a given change)."

Destructive operations often leave the schema structurally invalid when
taken alone -- deleting an object type strands the relationships that
target it, deleting an attribute strands the keys and order-by lists that
name it, and removing an ISA link strands keys on formerly-inherited
attributes.  :func:`expand` turns one requested operation into the full
ordered plan: every cascaded operation first (depth-first, so cascades of
cascades come earlier still), the requested operation last.  Each plan
step is itself an operation of the Appendix A language, so the workspace
log and the impact report show exactly what happened, and undo reverses
the entire plan.
"""

from __future__ import annotations

from repro.model.relationships import RelationshipKind
from repro.model.schema import Schema
from repro.model.types import referenced_interfaces
from repro.ops.base import OperationContext, SchemaOperation
from repro.ops.attribute_ops import DeleteAttribute, ModifyAttribute
from repro.ops.instance_of_ops import (
    DeleteInstanceOfRelationship,
    ModifyInstanceOfOrderBy,
)
from repro.ops.operation_ops import DeleteOperation
from repro.ops.part_of_ops import DeletePartOfRelationship, ModifyPartOfOrderBy
from repro.ops.relationship_ops import (
    DeleteRelationship,
    ModifyRelationshipOrderBy,
)
from repro.ops.type_ops import DeleteTypeDefinition
from repro.ops.type_property_ops import (
    DeleteKeyList,
    DeleteSupertype,
    ModifySupertype,
    attributes_visible_with_supertypes,
)

_DELETE_END_OPS = {
    RelationshipKind.ASSOCIATION: DeleteRelationship,
    RelationshipKind.PART_OF: DeletePartOfRelationship,
    RelationshipKind.INSTANCE_OF: DeleteInstanceOfRelationship,
}

_ORDER_BY_OPS = {
    RelationshipKind.ASSOCIATION: ModifyRelationshipOrderBy,
    RelationshipKind.PART_OF: ModifyPartOfOrderBy,
    RelationshipKind.INSTANCE_OF: ModifyInstanceOfOrderBy,
}

#: The only operation classes :func:`direct_cascades` ever cascades for.
#: Every other class expands to itself alone, which lets :func:`expand`
#: skip the scratch copy entirely -- the dominant cost of applying a
#: long plan of non-destructive operations on a large schema.
_CASCADING_OPS = (
    DeleteTypeDefinition,
    DeleteAttribute,
    ModifyAttribute,
    DeleteSupertype,
    ModifySupertype,
)


def expand(
    schema: Schema,
    operation: SchemaOperation,
    context: OperationContext,
) -> list[SchemaOperation]:
    """Return the full plan for *operation*: cascades first, then it.

    The plan is computed against a scratch copy of *schema*; nothing is
    mutated.  Applying the plan in order on the real schema succeeds
    whenever each step's own constraints hold.

    Operations that can never cascade skip the scratch copy and return
    ``[operation]`` directly; an invalid such operation then rejects
    when the plan is applied (same exception, same rollback) rather
    than during expansion.
    """
    if not isinstance(operation, _CASCADING_OPS):
        return [operation]
    # A CoW fork instead of an eager copy: the scratch starts out
    # sharing every interface with *schema*, and only the types the
    # cascading plan actually touches materialise (via ``Schema.edit``
    # in the op bodies) -- O(changed) instead of O(types) per expansion.
    scratch = schema.fork()
    try:
        plan: list[SchemaOperation] = []
        _expand_into(scratch, operation, context, plan, depth=0)
        return plan
    finally:
        # The scratch dies here; eagerly unregister its CoW borrow so
        # later mutations of *schema* stop paying the settle walk.
        scratch.release_cow()


def expand_applying(
    schema: Schema,
    operation: SchemaOperation,
    context: OperationContext,
    before_step=None,
    propagate: bool = True,
) -> tuple[list[SchemaOperation], list]:
    """Single-pass :func:`expand`: compute the plan while applying it.

    Cascades are computed against the *live* schema -- each one is
    applied as soon as it is known, so the next ``direct_cascades`` call
    sees exactly the state the scratch copy would have reached -- which
    skips the scratch copy entirely, the dominant cost of expanding
    destructive ops on a large schema.  On any failure every applied
    step is undone and the error re-raised; *schema* is then untouched.

    ``before_step(step)``, when given, runs for each step before its
    cascades are computed (the workspace evaluates cautions there, so a
    step is judged on the state its own cascades have not yet changed).
    With ``propagate`` off, *operation* is applied bare, without
    cascades.  Returns the ``(plan, undos)`` pair the workspace logs.
    """
    plan: list[SchemaOperation] = []
    undos: list = []
    try:
        _expand_applying_into(
            schema, operation, context, plan, undos, before_step,
            propagate, depth=0,
        )
    except BaseException:
        for undo in reversed(undos):
            undo()
        raise
    return plan, undos


def _expand_applying_into(
    schema: Schema,
    operation: SchemaOperation,
    context: OperationContext,
    plan: list[SchemaOperation],
    undos: list,
    before_step,
    propagate: bool,
    depth: int,
) -> None:
    if depth > 100:
        raise RuntimeError(
            f"propagation for {operation.to_text()} did not converge"
        )
    if before_step is not None:
        before_step(operation)
    if propagate and isinstance(operation, _CASCADING_OPS):
        for cascade in direct_cascades(schema, operation):
            _expand_applying_into(
                schema, cascade, context, plan, undos, before_step,
                propagate, depth + 1,
            )
    undos.append(operation.apply(schema, context))
    plan.append(operation)


def direct_cascades(
    schema: Schema, operation: SchemaOperation
) -> list[SchemaOperation]:
    """The immediate follow-up operations *operation* requires.

    These are computed from the current schema state; cascades may
    themselves require further cascades (handled by :func:`expand`).
    """
    if isinstance(operation, DeleteTypeDefinition):
        return _cascades_for_delete_type(schema, operation.typename)
    if isinstance(operation, DeleteAttribute):
        return _cascades_for_lost_attribute(
            schema, operation.typename, operation.attribute_name
        )
    if isinstance(operation, ModifyAttribute):
        # Moving an attribute *down* the hierarchy makes it unavailable
        # to the old owner's other subtrees; dependent keys and order-by
        # lists that lose sight of it must be dropped first.
        return _cascades_for_attribute_move(
            schema, operation.typename, operation.attribute_name,
            operation.new_typename,
        )
    if isinstance(operation, DeleteSupertype):
        return _cascades_for_lost_supertype(
            schema, operation.typename, operation.supertype
        )
    if isinstance(operation, ModifySupertype):
        cascades: list[SchemaOperation] = []
        for supertype in operation.old_supertypes:
            if supertype not in operation.new_supertypes:
                cascades.extend(
                    _cascades_for_lost_supertype(
                        schema, operation.typename, supertype
                    )
                )
        return cascades
    return []


def _expand_into(
    scratch: Schema,
    operation: SchemaOperation,
    context: OperationContext,
    plan: list[SchemaOperation],
    depth: int,
) -> None:
    if depth > 100:  # cycles are impossible for shrinking cascades; guard anyway
        raise RuntimeError(
            f"propagation for {operation.to_text()} did not converge"
        )
    for cascade in direct_cascades(scratch, operation):
        _expand_into(scratch, cascade, context, plan, depth + 1)
    operation.apply(scratch, context)
    plan.append(operation)


def _cascades_for_delete_type(
    schema: Schema, typename: str
) -> list[SchemaOperation]:
    """Everything referencing *typename* must go (or be re-wired) first.

    An end, attribute, operation or supertype entry involving *typename*
    implies its owner references *typename*, so both walks restrict to
    the index's incremental reverse-reference set (plus *typename*
    itself for its own ends) instead of scanning every property of
    every interface; the emitted cascade order is unchanged.
    """
    cascades: list[SchemaOperation] = []
    referencers = schema.index.referencers_of(typename)
    involved = referencers | {typename}
    handled_pairs: set[frozenset[tuple[str, str]]] = set()
    for interface in schema:
        owner = interface.name
        if owner not in involved:
            continue
        for end in interface.relationships.values():
            involves = (
                owner == typename
                or end.target_type == typename
                or end.inverse_type == typename
            )
            if not involves:
                continue
            pair = frozenset(
                {(owner, end.name), (end.inverse_type, end.inverse_name)}
            )
            if pair in handled_pairs:
                continue
            handled_pairs.add(pair)
            cascades.append(_DELETE_END_OPS[end.kind](owner, end.name))
    for interface in schema:
        if interface.name == typename or interface.name not in referencers:
            continue
        for attribute in list(interface.attributes.values()):
            if typename in referenced_interfaces(attribute.type):
                cascades.append(
                    DeleteAttribute(interface.name, attribute.name)
                )
        for op_def in list(interface.operations.values()):
            used = set(referenced_interfaces(op_def.return_type))
            for parameter in op_def.parameters:
                used |= referenced_interfaces(parameter.type)
            if typename in used:
                cascades.append(DeleteOperation(interface.name, op_def.name))
        if typename in interface.supertypes:
            cascades.append(DeleteSupertype(interface.name, typename))
    return cascades


def _cascades_for_lost_attribute(
    schema: Schema, typename: str, attribute_name: str
) -> list[SchemaOperation]:
    """Keys and order-by lists that name a disappearing attribute."""
    from repro.ops.attribute_ops import attribute_losers

    cascades: list[SchemaOperation] = []
    losers = attribute_losers(schema, typename, attribute_name)
    for name in sorted(losers):
        interface = schema.get(name)
        for key in list(interface.keys):
            if attribute_name in key:
                cascades.append(DeleteKeyList(name, key))
    for owner, end in schema.index.ends_targeting(losers):
        if attribute_name in end.order_by:
            new_order = tuple(a for a in end.order_by if a != attribute_name)
            cascades.append(
                _ORDER_BY_OPS[end.kind](owner, end.name, end.order_by, new_order)
            )
    return cascades


def _cascades_for_attribute_move(
    schema: Schema, typename: str, attribute_name: str, new_typename: str
) -> list[SchemaOperation]:
    """A downward move hides the attribute from types outside the subtree."""
    from repro.ops.attribute_ops import attribute_losers

    if new_typename in schema.ancestors(typename):
        return []  # an upward move widens visibility; nothing can dangle
    keeps = {new_typename} | schema.descendants(new_typename)
    cascades: list[SchemaOperation] = []
    losers = attribute_losers(schema, typename, attribute_name) - keeps
    for name in sorted(losers):
        interface = schema.get(name)
        for key in list(interface.keys):
            if attribute_name in key:
                cascades.append(DeleteKeyList(name, key))
    for owner, end in schema.index.ends_targeting(losers):
        if attribute_name in end.order_by:
            new_order = tuple(a for a in end.order_by if a != attribute_name)
            cascades.append(
                _ORDER_BY_OPS[end.kind](owner, end.name, end.order_by, new_order)
            )
    return cascades


def _cascades_for_lost_supertype(
    schema: Schema, typename: str, supertype: str
) -> list[SchemaOperation]:
    """Dropping an ISA link strands keys/orderings on inherited attributes."""
    if supertype not in schema or typename not in schema:
        return []
    # Attributes the subtree would still see through other paths survive:
    # compare visibility with and without the dropped link, as a plain
    # ancestry walk (no scratch copy of the schema).
    current = tuple(schema.get(typename).supertypes)
    remaining = tuple(s for s in current if s != supertype)
    cascades: list[SchemaOperation] = []
    affected = {typename} | schema.descendants(typename)
    ends_by_target: dict[str, list] | None = None
    for name in sorted(affected):
        interface = schema.get(name)
        before = attributes_visible_with_supertypes(
            schema, name, typename, current
        )
        after = attributes_visible_with_supertypes(
            schema, name, typename, remaining
        )
        lost = before - after
        if not lost:
            continue
        for key in list(interface.keys):
            if set(key) & lost:
                cascades.append(DeleteKeyList(name, key))
        if ends_by_target is None:
            ends_by_target = {}
            for owner, end in schema.index.ends_targeting(affected):
                ends_by_target.setdefault(end.target_type, []).append(
                    (owner, end)
                )
        for owner, end in ends_by_target.get(name, ()):
            dangling = [a for a in end.order_by if a in lost]
            if dangling:
                new_order = tuple(a for a in end.order_by if a not in lost)
                cascades.append(
                    _ORDER_BY_OPS[end.kind](
                        owner, end.name, end.order_by, new_order
                    )
                )
    return cascades
