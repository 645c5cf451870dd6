"""Static analysis of operation plans: vet before you run.

The paper's methodology is plan-shaped -- a designer composes Appendix A
modification operations, constrained by Table 1 admissibility, semantic
stability, and name equivalence -- but every constraint in this repo was
checked dynamically, one op at a time, inside ``apply``.  This module
inspects a whole plan *without mutating the schema*, using the
:class:`~repro.ops.effects.EffectSignature` each operation class
declares:

* :func:`analyze_plan` builds a def-use/conflict graph over the plan,
  reports **pre-flight diagnostics** (operations that are statically
  guaranteed to fail: unknown or deleted names, duplicate type names,
  extent name-equivalence violations, Table 1 inadmissibility) with op
  indices before anything runs, and -- when the plan is clean --
  **normalizes** it (dead add→delete pairs, add/modify and
  modify-chain fusion);
* :meth:`repro.repository.workspace.Workspace.apply_plan` and
  ``apply_plan_compiled`` refuse a plan with diagnostics and run the
  normalized plan through the workspace's one apply pipeline, which
  validates once at the end of the plan;
* ``python -m repro.analysis.plan --schema file.odl --script plan.txt``
  prints the report from the command line.

Soundness contract (backed by the ``plan-analyzer-differential`` fuzzer
invariant):

* every diagnostic corresponds to a real dynamic failure of that op --
  the name/extent simulation mirrors exactly the checks the operations
  themselves make, so there are no false positives;
* a plan that passes clean *may* still fail dynamically (the analyzer
  does not model attribute- or relationship-level state), but
  normalization never changes what a clean, applicable plan computes:
  rewrites are applied only when the ops involved are commutable to
  adjacency under the conflict relation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from repro.concepts.base import ConceptKind
from repro.model.schema import Schema
from repro.ops.attribute_ops import (
    AddAttribute,
    DeleteAttribute,
    ModifyAttributeType,
)
from repro.ops.base import OperationError, SchemaOperation
from repro.ops.effects import EffectSignature
from repro.ops.operation_ops import AddOperation, DeleteOperation
from repro.ops.registry import is_admissible
from repro.ops.type_ops import AddTypeDefinition, DeleteTypeDefinition
from repro.ops.type_property_ops import (
    AddExtentName,
    AddKeyList,
    AddSupertype,
    DeleteExtentName,
    DeleteKeyList,
    DeleteSupertype,
    ModifyExtentName,
)


@dataclass(frozen=True)
class Diagnostic:
    """One statically detected failure: plan op *index* will not apply."""

    index: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"op[{self.index}] {self.code}: {self.message}"


@dataclass(frozen=True)
class ConflictEdge:
    """One ordering dependency between two plan ops (earlier < later)."""

    earlier: int
    later: int
    reason: str

    def __str__(self) -> str:
        return f"op[{self.earlier}] -> op[{self.later}]: {self.reason}"


class PlanPreflightError(OperationError):
    """A plan was rejected before execution; ``diagnostics`` says why."""

    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics[:5])
        more = len(self.diagnostics) - 5
        if more > 0:
            lines += f"; (+{more} more)"
        super().__init__(f"plan rejected by pre-flight analysis: {lines}")


@dataclass
class PlanAnalysis:
    """Everything :func:`analyze_plan` learned about one plan."""

    plan: list[SchemaOperation]
    signatures: list[EffectSignature]
    edges: list[ConflictEdge]
    diagnostics: list[Diagnostic]
    #: The rewritten plan (== ``plan`` when diagnostics exist or
    #: normalization found nothing); execution order is preserved.
    normalized: list[SchemaOperation]
    #: Human-readable notes for each normalization rewrite.
    notes: list[str] = field(default_factory=list)

    def is_clean(self) -> bool:
        """True when pre-flight found no guaranteed failure."""
        return not self.diagnostics

    def report(self) -> str:
        """Multi-line report for CLI / designer display."""
        lines = [
            f"plan: {len(self.plan)} operation(s), "
            f"{len(self.edges)} conflict edge(s)"
        ]
        if self.diagnostics:
            lines.append("pre-flight diagnostics:")
            lines.extend(f"  {diag}" for diag in self.diagnostics)
        else:
            lines.append("pre-flight: clean")
        for note in self.notes:
            lines.append(f"normalize: {note}")
        if len(self.normalized) != len(self.plan):
            lines.append(
                f"normalized: {len(self.plan)} -> "
                f"{len(self.normalized)} operation(s)"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Pre-flight diagnostics: name-binding and extent simulation
# ----------------------------------------------------------------------


def _preflight(
    plan: list[SchemaOperation],
    signatures: list[EffectSignature],
    schema: Schema | None,
    kind: ConceptKind | None,
) -> list[Diagnostic]:
    """Simulate name bindings and extents; collect guaranteed failures.

    The simulation mirrors exactly the membership and extent checks the
    operations themselves make, and ops that get a diagnostic do not
    contribute their simulated effects (dynamically they would have
    failed and changed nothing) -- together this keeps every diagnostic
    a real failure, with no false positives.  Without a *schema* the
    membership/extent families are skipped (only admissibility remains).
    """
    diagnostics: list[Diagnostic] = []
    tracking = schema is not None
    live: set[str] = set(schema.type_names()) if tracking else set()
    extent_of: dict[str, str | None] = (
        {interface.name: interface.extent for interface in schema}
        if tracking
        else {}
    )
    deleted_at: dict[str, int] = {}

    for index, (operation, signature) in enumerate(zip(plan, signatures)):
        found: list[Diagnostic] = []
        if kind is not None and not is_admissible(operation, kind):
            found.append(Diagnostic(
                index, "inadmissible",
                f"{operation.op_name} is not allowed in a {kind.label()} "
                "concept schema (Table 1)",
            ))
        if tracking:
            for name in sorted(signature.requires):
                if name in live:
                    continue
                if name in deleted_at:
                    found.append(Diagnostic(
                        index, "use-after-delete",
                        f"{operation.to_text()} needs type {name!r}, "
                        f"deleted by op[{deleted_at[name]}]",
                    ))
                else:
                    found.append(Diagnostic(
                        index, "unknown-type",
                        f"{operation.to_text()} needs type {name!r}, "
                        "which no prior op creates and the schema lacks",
                    ))
            found.extend(_check_name_equivalence(
                index, operation, signature, live, extent_of
            ))
        diagnostics.extend(found)
        if found or not tracking:
            # A failing op leaves the schema unchanged; mirroring that
            # keeps the simulation exact for the ops after it.
            continue
        for name in signature.creates:
            live.add(name)
            extent_of[name] = None
            deleted_at.pop(name, None)
        for name in signature.deletes:
            live.discard(name)
            extent_of.pop(name, None)
            deleted_at[name] = index
        _apply_extent_effect(operation, extent_of)
    return diagnostics


def _check_name_equivalence(
    index: int,
    operation: SchemaOperation,
    signature: EffectSignature,
    live: set[str],
    extent_of: dict[str, str | None],
) -> list[Diagnostic]:
    """Duplicate type names and extent-name violations (name equivalence)."""
    found: list[Diagnostic] = []
    if signature.requires - live:
        # The op already fails on a missing type; the state checks below
        # would read simulated state for an interface that is not there.
        return found
    if isinstance(operation, AddTypeDefinition):
        if operation.typename in live:
            found.append(Diagnostic(
                index, "duplicate-type",
                f"type {operation.typename!r} already exists "
                "(type names are globally unique)",
            ))
    elif isinstance(operation, AddExtentName):
        if extent_of.get(operation.typename) is not None:
            found.append(Diagnostic(
                index, "extent-state",
                f"{operation.typename!r} already has extent "
                f"{extent_of[operation.typename]!r}; use modify_extent_name",
            ))
        found.extend(_extent_clash(
            index, operation.typename, operation.extent_name, extent_of
        ))
    elif isinstance(operation, ModifyExtentName):
        if extent_of.get(operation.typename) != operation.old_extent_name:
            found.append(Diagnostic(
                index, "extent-state",
                f"{operation.typename!r} has extent "
                f"{extent_of.get(operation.typename)!r}, not "
                f"{operation.old_extent_name!r}",
            ))
        found.extend(_extent_clash(
            index, operation.typename, operation.new_extent_name, extent_of
        ))
    elif isinstance(operation, DeleteExtentName):
        if extent_of.get(operation.typename) != operation.extent_name:
            found.append(Diagnostic(
                index, "extent-state",
                f"{operation.typename!r} has extent "
                f"{extent_of.get(operation.typename)!r}, not "
                f"{operation.extent_name!r}",
            ))
    return found


def _extent_clash(
    index: int, typename: str, extent_name: str,
    extent_of: dict[str, str | None],
) -> list[Diagnostic]:
    owners = sorted(
        owner
        for owner, extent in extent_of.items()
        if extent == extent_name and owner != typename
    )
    if owners:
        return [Diagnostic(
            index, "extent-clash",
            f"extent name {extent_name!r} is already used by "
            f"{owners[0]!r} (extent names are globally unique)",
        )]
    return []


def _apply_extent_effect(
    operation: SchemaOperation, extent_of: dict[str, str | None]
) -> None:
    if isinstance(operation, AddExtentName):
        extent_of[operation.typename] = operation.extent_name
    elif isinstance(operation, ModifyExtentName):
        extent_of[operation.typename] = operation.new_extent_name
    elif isinstance(operation, DeleteExtentName):
        extent_of[operation.typename] = None


# ----------------------------------------------------------------------
# Conflict graph
# ----------------------------------------------------------------------


def conflict_edges(
    signatures: list[EffectSignature],
) -> list[ConflictEdge]:
    """Def-use/conflict graph: one edge per non-commuting ordered pair."""
    edges: list[ConflictEdge] = []
    for later in range(len(signatures)):
        for earlier in range(later):
            reason = signatures[earlier].conflicts_with(signatures[later])
            if reason is not None:
                edges.append(ConflictEdge(earlier, later, reason))
    return edges


# ----------------------------------------------------------------------
# Normalization: dead pairs and fusion
# ----------------------------------------------------------------------

#: (add class, delete class) pairs whose add→delete of the same
#: construct is an exact no-op.  Relationship add/delete pairs are
#: excluded on purpose: deleting an end also removes a paired inverse
#: that may predate the add.
_DEAD_PAIR_KEYS = {
    AddTypeDefinition: lambda op: ("type", op.typename),
    DeleteTypeDefinition: lambda op: ("type", op.typename),
    AddAttribute: lambda op: ("attribute", op.typename, op.attribute_name),
    DeleteAttribute: lambda op: ("attribute", op.typename, op.attribute_name),
    AddOperation: lambda op: ("operation", op.typename, op.operation_name),
    DeleteOperation: lambda op: ("operation", op.typename, op.operation_name),
    AddKeyList: lambda op: ("key", op.typename, tuple(op.key)),
    DeleteKeyList: lambda op: ("key", op.typename, tuple(op.key)),
    AddSupertype: lambda op: ("supertype", op.typename, op.supertype),
    DeleteSupertype: lambda op: ("supertype", op.typename, op.supertype),
    AddExtentName: lambda op: ("extent", op.typename),
    DeleteExtentName: lambda op: ("extent", op.typename),
}

_DEAD_PAIRS = {
    AddTypeDefinition: DeleteTypeDefinition,
    AddAttribute: DeleteAttribute,
    AddOperation: DeleteOperation,
    AddKeyList: DeleteKeyList,
    AddSupertype: DeleteSupertype,
    AddExtentName: DeleteExtentName,
}


def _dead_pair(
    first: SchemaOperation, second: SchemaOperation
) -> bool:
    """True when *second* exactly deletes what *first* added."""
    expected = _DEAD_PAIRS.get(type(first))
    if expected is None or type(second) is not expected:
        return False
    key_of = _DEAD_PAIR_KEYS[type(first)]
    if key_of(first) != _DEAD_PAIR_KEYS[type(second)](second):
        return False
    if isinstance(first, AddExtentName):
        # delete_extent_name checks the extent value, not just presence.
        return first.extent_name == second.extent_name
    return True


def _fuse(
    first: SchemaOperation, second: SchemaOperation
) -> SchemaOperation | None:
    """A single op equivalent to *first* then *second*, or ``None``.

    Fusions returning an identity rewrite (e.g. a modify chain that
    lands back on the original value) yield an op the caller can still
    detect as dead via :func:`_identity_op`.
    """
    if (
        isinstance(first, AddAttribute)
        and isinstance(second, ModifyAttributeType)
        and first.typename == second.typename
        and first.attribute_name == second.attribute_name
        and first.domain_type == second.old_type
    ):
        return AddAttribute(
            first.typename, second.new_type, first.attribute_name
        )
    if (
        isinstance(first, ModifyAttributeType)
        and isinstance(second, ModifyAttributeType)
        and first.typename == second.typename
        and first.attribute_name == second.attribute_name
        and first.new_type == second.old_type
    ):
        return ModifyAttributeType(
            first.typename, first.attribute_name,
            first.old_type, second.new_type,
        )
    if (
        isinstance(first, AddExtentName)
        and isinstance(second, ModifyExtentName)
        and first.typename == second.typename
        and first.extent_name == second.old_extent_name
    ):
        return AddExtentName(first.typename, second.new_extent_name)
    if (
        isinstance(first, ModifyExtentName)
        and isinstance(second, ModifyExtentName)
        and first.typename == second.typename
        and first.new_extent_name == second.old_extent_name
    ):
        return ModifyExtentName(
            first.typename, first.old_extent_name, second.new_extent_name
        )
    return None


def _identity_op(operation: SchemaOperation) -> bool:
    """Fusion products that change nothing and can be dropped outright."""
    if isinstance(operation, ModifyAttributeType):
        return operation.old_type == operation.new_type
    if isinstance(operation, ModifyExtentName):
        return operation.old_extent_name == operation.new_extent_name
    return False


def _commutable_to_adjacency(
    signatures: list[EffectSignature], first: int, second: int,
    group: set[int] | None = None,
) -> bool:
    """Can ops ``first``..``second`` (minus *group*) be slid apart?

    True when no op strictly between conflicts with either endpoint (or
    any *group* member): the endpoints can then be commuted next to each
    other, where the rewrite is locally justified.
    """
    members = group if group is not None else {first, second}
    for k in range(first + 1, second):
        if k in members:
            continue
        if any(
            signatures[k].conflicts_with(signatures[g]) is not None
            for g in members
        ):
            return False
    return True


def normalize_plan(
    plan: list[SchemaOperation],
    signatures: list[EffectSignature] | None = None,
) -> tuple[list[SchemaOperation], list[str]]:
    """Rewrite the plan without changing what it computes.

    Three rewrites, each applied only when the ops involved are
    commutable to adjacency under the conflict relation:

    * **type-group elimination** -- ``add_type_definition(N)`` ...
      ``delete_type_definition(N)`` plus every op between confined to
      ``N`` disappears wholesale;
    * **dead pairs** -- add→delete of the same construct (attribute,
      operation, key, supertype, extent) disappears;
    * **fusion** -- add+modify and modify+modify chains over the same
      construct collapse into one op (identity chains are dropped).

    Assumes the plan is *applicable* (pre-flight clean and dynamically
    valid); :func:`analyze_plan` only normalizes diagnostic-free plans.
    """
    operations = list(plan)
    notes: list[str] = []
    current = (
        list(signatures)
        if signatures is not None and len(signatures) == len(operations)
        else [operation.effect_signature() for operation in operations]
    )
    changed = True
    while changed:
        changed = False
        rewrite = _find_type_group(operations, current)
        if rewrite is not None:
            group, name = rewrite
            notes.append(
                f"eliminated add→delete group of type {name!r} "
                f"({len(group)} op(s))"
            )
            operations = [
                operation
                for index, operation in enumerate(operations)
                if index not in group
            ]
            current = [
                signature
                for index, signature in enumerate(current)
                if index not in group
            ]
            changed = True
            continue
        rewrite = _find_peephole(operations, current)
        if rewrite is not None:
            first, second, replacement, note = rewrite
            notes.append(note)
            kept: list[SchemaOperation] = []
            kept_signatures: list[EffectSignature] = []
            for index, operation in enumerate(operations):
                if index == second:
                    continue
                if index == first:
                    if replacement is not None:
                        kept.append(replacement)
                        kept_signatures.append(
                            replacement.effect_signature()
                        )
                    continue
                kept.append(operation)
                kept_signatures.append(current[index])
            operations = kept
            current = kept_signatures
            changed = True
    return operations, notes


def _find_type_group(
    operations: list[SchemaOperation],
    signatures: list[EffectSignature],
) -> tuple[set[int], str] | None:
    for first, operation in enumerate(operations):
        if not isinstance(operation, AddTypeDefinition):
            continue
        name = operation.typename
        for second in range(first + 1, len(operations)):
            candidate = operations[second]
            if (
                isinstance(candidate, DeleteTypeDefinition)
                and candidate.typename == name
            ):
                group = {first, second}
                for k in range(first + 1, second):
                    if signatures[k].mentioned_names() <= {name}:
                        group.add(k)
                if _commutable_to_adjacency(
                    signatures, first, second, group
                ):
                    return group, name
                break
    return None


def _peephole_keys(operation: SchemaOperation) -> list[tuple]:
    """Construct keys under which *operation* can pair with another op."""
    keys: list[tuple] = []
    key_of = _DEAD_PAIR_KEYS.get(type(operation))
    if key_of is not None:
        keys.append(key_of(operation))
    if isinstance(operation, (AddAttribute, ModifyAttributeType)):
        keys.append(
            ("attr-chain", operation.typename, operation.attribute_name)
        )
    if isinstance(operation, (AddExtentName, ModifyExtentName)):
        keys.append(("extent-chain", operation.typename))
    return keys


def _find_peephole(
    operations: list[SchemaOperation],
    signatures: list[EffectSignature],
) -> tuple[int, int, SchemaOperation | None, str] | None:
    buckets: dict[tuple, list[int]] = {}
    for index, operation in enumerate(operations):
        for key in _peephole_keys(operation):
            buckets.setdefault(key, []).append(index)
    pairs = sorted({
        (first, second)
        for indices in buckets.values()
        for position, first in enumerate(indices)
        for second in indices[position + 1:]
    })
    for first, second in pairs:
        if _dead_pair(operations[first], operations[second]):
            if _commutable_to_adjacency(signatures, first, second):
                return (
                    first, second, None,
                    f"eliminated dead pair op[{first}]+op[{second}] "
                    f"({operations[first].op_name} → "
                    f"{operations[second].op_name})",
                )
            continue
        fused = _fuse(operations[first], operations[second])
        if fused is None:
            continue
        if not _commutable_to_adjacency(signatures, first, second):
            continue
        if _identity_op(fused):
            return (
                first, second, None,
                f"dropped identity chain op[{first}]+op[{second}] "
                f"({fused.op_name} back to the original value)",
            )
        return (
            first, second, fused,
            f"fused op[{first}]+op[{second}] into {fused.to_text()}",
        )
    return None


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def analyze_plan(
    plan: list[SchemaOperation],
    schema: Schema | None = None,
    kind: ConceptKind | None = None,
    normalize: bool = True,
    edges: bool = True,
) -> PlanAnalysis:
    """Statically analyze *plan* against *schema* (never mutated).

    With *kind*, each op is additionally checked against the Table 1
    admissibility matrix for that concept-schema type.  Normalization
    runs only when pre-flight reports no diagnostics -- a failing plan
    is reported as-is, with indices into the original.

    ``edges=False`` skips the O(n^2) conflict-edge graph; diagnostics
    and normalization are unaffected (they use pairwise conflict checks
    directly).  :meth:`Workspace.apply_plan` uses this -- it consumes
    only the diagnostics and the normalized plan.
    """
    operations = list(plan)
    signatures = [operation.effect_signature() for operation in operations]
    conflict_graph = conflict_edges(signatures) if edges else []
    diagnostics = _preflight(operations, signatures, schema, kind)
    normalized = operations
    notes: list[str] = []
    if not diagnostics and normalize:
        normalized, notes = normalize_plan(operations, signatures)
    return PlanAnalysis(
        plan=operations,
        signatures=signatures,
        edges=conflict_graph,
        diagnostics=diagnostics,
        normalized=normalized,
        notes=notes,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI: analyze an operation-language script against an ODL schema."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.plan",
        description=(
            "Static pre-flight analysis of a modification plan: effect "
            "signatures, conflict edges, diagnostics, and normalization."
        ),
    )
    parser.add_argument(
        "--schema", help="ODL file with the schema the plan targets"
    )
    parser.add_argument(
        "--script",
        help="operation-language script ('-' or omitted: stdin)",
    )
    parser.add_argument(
        "--kind",
        choices=sorted(kind.value for kind in ConceptKind),
        help="concept-schema type for Table 1 admissibility checks",
    )
    parser.add_argument(
        "--edges", action="store_true",
        help="also list every conflict edge",
    )
    options = parser.parse_args(argv)

    from repro.ops.language import parse_script

    schema = None
    if options.schema:
        from repro.odl.parser import parse_schema

        with open(options.schema, encoding="utf-8") as handle:
            schema = parse_schema(handle.read(), name=options.schema)
    if options.script and options.script != "-":
        with open(options.script, encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    plan = parse_script(text)
    kind = ConceptKind(options.kind) if options.kind else None
    analysis = analyze_plan(plan, schema, kind=kind)
    print(analysis.report())
    if options.edges:
        for edge in analysis.edges:
            print(f"  {edge}")
    return 0 if analysis.is_clean() else 1


if __name__ == "__main__":
    raise SystemExit(main())
