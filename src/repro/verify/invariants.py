"""The invariant registry: machine-checkable paper guarantees.

The paper's contract is that the modification-operation language is
*closed* and *consistency-preserving*: every admissible edit of a
concept schema leaves the workspace schema structurally valid (Table 1,
Appendix A), name-equivalent to its shrink wrap origin, and semantically
stable, while propagation and undo/redo are lossless.  Each
:class:`Invariant` here encodes one such clause as a whole-schema (or
whole-workspace) predicate; the differential fuzzer
(:mod:`repro.verify.fuzzer`) re-checks the full registry after every
operation of a randomized sequence.

Invariants come in two tiers:

* ``cheap`` -- structural predicates and index-vs-scan differentials,
  checked after every fuzz step;
* ``expensive`` -- whole-schema round trips (ODL, decomposition,
  mapping, log replay), checked every few steps and at sequence end.

Adding an invariant: write a generator function yielding one message
string per violation, decorate it with :func:`invariant`, and it is
checked everywhere automatically (fuzzer, CLI, tests).  Schema-level
checks receive ``(schema, context)``; workspace-level checks (decorated
with ``workspace_invariant``) receive the live
:class:`~repro.repository.workspace.Workspace`.

**O(changed) sweeps.**  Passing ``touched`` (the interface names the
spine recorded since the previous sweep) to :func:`check_schema` /
:func:`check_workspace` switches to scoped mode: invariants with a
:func:`scoped_invariant` variant check only the touched closure
(touched + ISA descendants + referencers), the O(1)/O(history)
invariants in :data:`ALWAYS_FULL` still run whole, and everything else
is *deferred* -- the caller owes one full-registry sweep at sequence
end (the fuzzer's ``final_check``).  That makes per-step verification
cost proportional to the plan, not the schema, which is what lets
``make fuzz --large-seeds`` keep both tiers on at 10k types
(DESIGN.md §5i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.concepts.decompose import decompose, reconstruct
from repro.knowledge.consistency import structural_feedback
from repro.knowledge.feedback import FeedbackLevel
from repro.model import index as index_module
from repro.model.columnar import DictAdjacency, adjacency_differential
from repro.model.fingerprint import schema_fingerprint, schemas_equal
from repro.model.schema import Schema
from repro.model.relationships import RelationshipKind
from repro.model.validation import (
    SEVERITY_ERROR,
    _find_cycle,
    cardinality_issues,
    check_cardinality_roles,
    check_dangling_types,
    check_instance_of_cycles,
    check_inverses,
    check_isa_cycles,
    check_keys,
    check_order_by,
    check_part_of_cycles,
    dangling_type_issues,
    instance_of_cycle_issue,
    inverse_issues,
    isa_cycle_issue,
    isa_successors,
    key_issues,
    order_by_issues,
    part_of_cycle_issue,
    validate_schema,
)
from repro.model.errors import SchemaError
from repro.ops.base import OperationContext, OperationError
from repro.repository.mapping import generate_mapping
from repro.repository.workspace import Workspace

TIER_CHEAP = "cheap"
TIER_EXPENSIVE = "expensive"


@dataclass(frozen=True)
class Violation:
    """One invariant failure: which contract broke and how."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


SchemaCheck = Callable[[Schema, OperationContext], Iterator[str]]
WorkspaceCheck = Callable[[Workspace], Iterator[str]]


@dataclass(frozen=True)
class Invariant:
    """One registered whole-schema / whole-workspace predicate."""

    name: str
    clause: str  # the paper clause this invariant encodes
    tier: str
    check: SchemaCheck | WorkspaceCheck
    scope: str  # "schema" | "workspace"


#: Every registered invariant, in registration order.
INVARIANTS: list[Invariant] = []

#: Scoped (O(changed)) variants keyed by invariant name.  A scoped
#: check receives ``(schema, context, scoped)`` where ``scoped`` is the
#: sorted, defined touched closure (touched names + their ISA
#: descendants + their referencers) and must verify the same clause
#: restricted to that neighbourhood.
SCOPED_CHECKS: dict[str, Callable[..., Iterator[str]]] = {}

#: Invariants that run in full even during a scoped sweep: they are
#: O(1)/O(history) in the schema size, so skipping them buys nothing
#: and they anchor the sweep (generation bookkeeping, history shape).
ALWAYS_FULL = frozenset({"spine-generation", "history-shape"})


def scoped_invariant(name: str):
    """Register the O(changed) variant of the invariant *name*."""

    def decorator(check: Callable[..., Iterator[str]]):
        SCOPED_CHECKS[name] = check
        return check

    return decorator


def touched_closure(schema: Schema, touched: Iterable[str]) -> list[str]:
    """The defined neighbourhood a change to *touched* can affect.

    Touched names plus their ISA descendants (inherited keys, order-by
    and extent visibility flow down the hierarchy) plus everything
    referencing them (dangling/inverse checks judge the *referencing*
    end), filtered to currently-defined interfaces and sorted for
    deterministic reporting.  Cost is O(closure), served by the
    columnar adjacency -- never O(schema).
    """
    adjacency = schema.index.adjacency
    adjacency.ensure_fresh()
    seeds = set(touched)
    closure = set(seeds)
    closure |= adjacency.descendants_closure(seeds)
    for name in seeds:
        closure.update(adjacency.referencers_of(name))
    return sorted(name for name in closure if name in schema.interfaces)


def invariant(name: str, clause: str, tier: str = TIER_CHEAP):
    """Register a schema-level invariant check function."""

    def decorator(check: SchemaCheck) -> SchemaCheck:
        INVARIANTS.append(Invariant(name, clause, tier, check, "schema"))
        return check

    return decorator


def workspace_invariant(name: str, clause: str, tier: str = TIER_CHEAP):
    """Register a workspace-level invariant check function."""

    def decorator(check: WorkspaceCheck) -> WorkspaceCheck:
        INVARIANTS.append(Invariant(name, clause, tier, check, "workspace"))
        return check

    return decorator


def check_schema(
    schema: Schema,
    context: OperationContext | None = None,
    tiers: Iterable[str] = (TIER_CHEAP, TIER_EXPENSIVE),
    names: Iterable[str] | None = None,
    touched: Iterable[str] | None = None,
) -> list[Violation]:
    """Run every (selected) schema-level invariant over *schema*.

    With *touched* (interface names the spine recorded since the last
    sweep) the run is *scoped*: invariants with a registered
    :data:`SCOPED_CHECKS` variant verify only the touched closure,
    :data:`ALWAYS_FULL` invariants run whole, and the rest are skipped
    -- the caller owes a full sweep at sequence end.
    """
    context = context or OperationContext()
    wanted = None if names is None else set(names)
    tier_set = set(tiers)
    scoped_names: list[str] | None = None
    if touched is not None:
        scoped_names = touched_closure(schema, touched)
    violations: list[Violation] = []
    for inv in INVARIANTS:
        if inv.scope != "schema" or inv.tier not in tier_set:
            continue
        if wanted is not None and inv.name not in wanted:
            continue
        if scoped_names is None:
            messages = inv.check(schema, context)
        else:
            scoped = SCOPED_CHECKS.get(inv.name)
            if scoped is not None:
                messages = scoped(schema, context, scoped_names)
            elif inv.name in ALWAYS_FULL:
                messages = inv.check(schema, context)
            else:
                continue  # deferred to the caller's final full sweep
        violations.extend(Violation(inv.name, message) for message in messages)
    return violations


def check_workspace(
    workspace: Workspace,
    tiers: Iterable[str] = (TIER_CHEAP, TIER_EXPENSIVE),
    names: Iterable[str] | None = None,
    touched: Iterable[str] | None = None,
) -> list[Violation]:
    """Run schema invariants on the workspace schema plus history checks.

    *touched* scopes the sweep exactly as in :func:`check_schema`;
    workspace-level invariants without a scoped variant are skipped in
    scoped mode except those in :data:`ALWAYS_FULL`.
    """
    violations = check_schema(
        workspace.schema, workspace.context, tiers=tiers, names=names,
        touched=touched,
    )
    wanted = None if names is None else set(names)
    tier_set = set(tiers)
    for inv in INVARIANTS:
        if inv.scope != "workspace" or inv.tier not in tier_set:
            continue
        if wanted is not None and inv.name not in wanted:
            continue
        if touched is not None and inv.name not in ALWAYS_FULL:
            continue
        violations.extend(
            Violation(inv.name, message) for message in inv.check(workspace)
        )
    return violations


def describe_registry() -> str:
    """One line per invariant: name, tier, scope, paper clause."""
    lines = []
    for inv in INVARIANTS:
        lines.append(
            f"{inv.name:32s} {inv.tier:9s} {inv.scope:9s} {inv.clause}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Structural invariants (Appendix A closure: ops keep the schema valid)
# ----------------------------------------------------------------------


def _rule_messages(rule, schema: Schema) -> Iterator[str]:
    for issue in rule(schema):
        if issue.severity == SEVERITY_ERROR:
            yield str(issue)


@invariant(
    "dangling-types",
    "Section 3.1: every type name used by a construct is defined",
)
def _check_dangling(schema, context):
    yield from _rule_messages(check_dangling_types, schema)


@invariant(
    "inverse-pairing",
    "Section 3.1: relationship ends always pair with a declared inverse",
)
def _check_inverse_pairing(schema, context):
    yield from _rule_messages(check_inverses, schema)


@invariant(
    "hierarchy-one-to-many",
    "Section 3.1: part-of / instance-of traversals are implicitly 1:N",
)
def _check_one_to_many(schema, context):
    yield from _rule_messages(check_cardinality_roles, schema)


@invariant(
    "isa-acyclic",
    "Section 3.2: the generalization hierarchy is a DAG",
)
def _check_isa_acyclic(schema, context):
    yield from _rule_messages(check_isa_cycles, schema)


@invariant(
    "part-of-acyclic",
    "Section 3.1: the aggregation (parts explosion) graph is a DAG",
)
def _check_part_of_acyclic(schema, context):
    yield from _rule_messages(check_part_of_cycles, schema)


@invariant(
    "instance-of-acyclic",
    "Section 3.1: the instance-of (version) graph is a DAG",
)
def _check_instance_of_acyclic(schema, context):
    yield from _rule_messages(check_instance_of_cycles, schema)


@invariant(
    "keys-resolve",
    "Table 2: key lists name attributes available on the type",
)
def _check_keys_resolve(schema, context):
    yield from _rule_messages(check_keys, schema)


@invariant(
    "order-by-resolve",
    "Table 3: order-by lists name attributes of the target type",
)
def _check_order_by_resolve(schema, context):
    yield from _rule_messages(check_order_by, schema)


@invariant(
    "extent-unique",
    "Table 2: extent names are globally unique across the schema",
)
def _check_extent_unique(schema, context):
    owners: dict[str, str] = {}
    for interface in schema:
        if interface.extent is None:
            continue
        if interface.extent in owners:
            yield (
                f"extent {interface.extent!r} is declared by both "
                f"{owners[interface.extent]!r} and {interface.name!r}"
            )
        else:
            owners[interface.extent] = interface.name


@invariant(
    "feedback-error-free",
    "Abstract: consistency checks report no error-level feedback",
)
def _check_feedback_clean(schema, context):
    for message in structural_feedback(schema):
        if message.level is FeedbackLevel.ERROR:
            yield f"designer feedback error: {message}"


# ----------------------------------------------------------------------
# Validation differential (incremental engine == full-scan reference)
# ----------------------------------------------------------------------


@invariant(
    "incremental-vs-full-validation",
    "DESIGN 5d: the incremental validation cache returns byte-for-byte "
    "the full scan's issue list",
)
def _check_incremental_validation(schema, context):
    incremental = schema.validation.validate()
    full = validate_schema(schema)
    if incremental == full:
        return
    missing = [issue for issue in full if issue not in incremental]
    spurious = [issue for issue in incremental if issue not in full]
    if not missing and not spurious:
        yield (
            "incremental validation reports the full scan's issues in a "
            f"different order ({len(full)} issues)"
        )
        return
    for issue in missing[:3]:
        yield f"incremental validation missed: {issue}"
    for issue in spurious[:3]:
        yield f"incremental validation fabricated: {issue}"
    rest = len(missing) + len(spurious) - len(missing[:3]) - len(spurious[:3])
    if rest:
        yield f"... and {rest} more validation differences"


# ----------------------------------------------------------------------
# Index differentials (every indexed query == its scan_* reference)
# ----------------------------------------------------------------------

#: Default for :func:`set_differential_stride`.  Above this many types
#: the per-type differentials sample instead of sweeping exhaustively:
#: each per-type probe calls an O(types) scan_* reference, so the
#: exhaustive sweep is quadratic -- fine for catalog and test subjects,
#: prohibitive on the 1k-10k-type fuzz profile.
DIFFERENTIAL_STRIDE_DEFAULT = 256

_differential_stride = DIFFERENTIAL_STRIDE_DEFAULT
_sampling_events = 0


def set_differential_stride(threshold: int | None) -> int:
    """Set the per-type differential sampling threshold; return the old.

    ``0`` or ``None`` disables sampling entirely (exhaustive per-type
    probes at any size); the fuzzer CLI exposes this as
    ``--differential-stride``.
    """
    global _differential_stride
    previous = _differential_stride
    _differential_stride = int(threshold) if threshold else 0
    return previous


def differential_stride() -> int:
    """The active sampling threshold (0 means exhaustive)."""
    return _differential_stride


def consume_sampling_events() -> int:
    """Drain and return the count of sampled (non-exhaustive) sweeps.

    The fuzz runner reads this after each run to print a coverage note
    -- no silent caps: when probes were sampled, the summary says so.
    """
    global _sampling_events
    events, _sampling_events = _sampling_events, 0
    return events


def _stride_sample(names: list[str], phase: int) -> list[str]:
    """*names*, or a deterministic stride sample past the threshold.

    The stride phase rotates with *phase* (the schema generation), so
    successive sweeps of a fuzz run cross different residues of the
    declaration order while each individual sweep stays linear.  For a
    fixed schema state the sample is deterministic -- replaying a
    trace checks exactly the same types, which the shrinker relies on.
    """
    global _sampling_events
    count = len(names)
    threshold = _differential_stride
    if not threshold or count <= threshold:
        return names
    _sampling_events += 1
    stride = -(-count // threshold)
    return names[phase % stride :: stride]


def _sampled_type_names(schema) -> list[str]:
    """All type names, or a deterministic stride sample at scale."""
    return _stride_sample(schema.type_names(), schema.generation)


@invariant(
    "index-generalization-vs-scan",
    "DESIGN 5b: indexed ISA queries equal the full-scan reference "
    "(per-type probes sampled past the differential stride threshold)",
)
def _check_index_generalization(schema, context):
    for name in _sampled_type_names(schema):
        indexed = schema.subtypes(name)
        scanned = index_module.scan_subtypes(schema, name)
        if indexed != scanned:
            yield f"subtypes({name!r}): index {indexed!r} != scan {scanned!r}"
        if schema.descendants(name) != index_module.scan_descendants(schema, name):
            yield f"descendants({name!r}): index != scan"
        if schema.ancestors(name) != index_module.scan_ancestors(schema, name):
            yield f"ancestors({name!r}): index != scan"
    if schema.generalization_roots() != index_module.scan_generalization_roots(
        schema
    ):
        yield "generalization_roots(): index != scan"


@invariant(
    "index-aggregation-vs-scan",
    "DESIGN 5b: indexed part-of queries equal the full-scan reference "
    "(per-type probes sampled past the differential stride threshold)",
)
def _check_index_aggregation(schema, context):
    for name in _sampled_type_names(schema):
        if schema.parts(name) != index_module.scan_parts(schema, name):
            yield f"parts({name!r}): index != scan"
        if schema.wholes(name) != index_module.scan_wholes(schema, name):
            yield f"wholes({name!r}): index != scan"
    if schema.aggregation_roots() != index_module.scan_aggregation_roots(schema):
        yield "aggregation_roots(): index != scan"


@invariant(
    "index-instance-of-vs-scan",
    "DESIGN 5b: indexed instance-of queries equal the full-scan reference "
    "(per-type probes sampled past the differential stride threshold)",
)
def _check_index_instance_of(schema, context):
    kind = RelationshipKind.INSTANCE_OF
    scanned_instances: dict[str, list[str]] = {}
    scanned_generics: dict[str, list[str]] = {}
    for generic, instance, _ in index_module.scan_link_edges(schema, kind):
        scanned_instances.setdefault(generic, []).append(instance)
        scanned_generics.setdefault(instance, []).append(generic)
    for name in _sampled_type_names(schema):
        if schema.link_targets(name, kind) != scanned_instances.get(name, []):
            yield f"instances of {name!r}: index != scan"
        if schema.link_sources(name, kind) != scanned_generics.get(name, []):
            yield f"generics of {name!r}: index != scan"
    if schema.instance_of_roots() != index_module.scan_instance_of_roots(schema):
        yield "instance_of_roots(): index != scan"


@invariant(
    "index-pairs-vs-scan",
    "DESIGN 5b: the indexed ends-targeting lookup equals the full "
    "relationship listing filtered by target (per-type probes sampled "
    "past the differential stride threshold)",
)
def _check_index_pairs(schema, context):
    scanned: dict[str, list] = {}
    for owner, end in index_module.scan_relationship_pairs(schema):
        scanned.setdefault(end.target_type, []).append((owner, end))
    for name in _sampled_type_names(schema):
        if schema.index.ends_targeting({name}) != scanned.get(name, []):
            yield f"ends_targeting({{{name!r}}}): index != scan"


@invariant(
    "columnar-vs-dict-adjacency",
    "DESIGN 5i: the flat-array adjacency (ids, free list, parallel "
    "columns) answers exactly as the retained dict reference spec",
)
def _check_columnar_adjacency(schema, context):
    reference = DictAdjacency(schema)
    yield from adjacency_differential(schema.index.adjacency, reference)


# ----------------------------------------------------------------------
# Mutation-spine invariants (the stream is complete and sufficient)
# ----------------------------------------------------------------------


@invariant(
    "spine-generation",
    "DESIGN 5e: the schema's generation is derived from the mutation "
    "spine (generation == log.seq, records dense in seq)",
)
def _check_spine_generation(schema, context):
    log = schema.log
    if schema.generation != log.seq:
        yield f"generation {schema.generation} != spine seq {log.seq}"
    if len(log) != log.seq:
        yield (
            f"spine holds {len(log)} records but seq is {log.seq}; "
            "records are no longer dense"
        )


@invariant(
    "spine-replay",
    "DESIGN 5e: replaying the mutation log from an empty schema "
    "reproduces the live schema's fingerprint (mutations are reified "
    "completely)",
    tier=TIER_EXPENSIVE,
)
def _check_spine_replay(schema, context):
    log = schema.log
    if log.lossy:
        return  # an out-of-band touch was recorded; replay is undefined
    try:
        rebuilt = log.replay(schema.name)
    except Exception as error:  # noqa: BLE001 - any escape is the finding
        yield f"replaying the mutation log raised: {error}"
        return
    if schema_fingerprint(rebuilt) != schema_fingerprint(schema):
        yield (
            "replaying the mutation log from empty does not reproduce "
            "the live schema"
        )
    if rebuilt.type_names() != schema.type_names():
        yield (
            "replaying the mutation log does not reproduce declaration "
            "order"
        )


@invariant(
    "spine-subscribers-vs-rebuild",
    "DESIGN 5e: every subscriber's derived state equals a from-scratch "
    "rebuild -- a fresh copy's adjacency views and full validation "
    "match the live schema's",
    tier=TIER_EXPENSIVE,
)
def _check_spine_subscribers(schema, context):
    fresh = schema.copy(f"{schema.name}_rebuild")
    live, rebuilt = schema.index.adjacency, fresh.index.adjacency
    for view in (
        "isa_parents_map",
        "isa_children_map",
        "refs_of_map",
        "referencers_map",
        "declared_names",
    ):
        if getattr(live, view)() != getattr(rebuilt, view)():
            yield f"live adjacency {view}() differs from a from-scratch rebuild"
    live_issues = schema.validation.validate()
    fresh_issues = fresh.validation.validate()
    if live_issues != fresh_issues:
        yield (
            "live validation cache differs from a fresh cache's full "
            f"build ({len(live_issues)} vs {len(fresh_issues)} issues)"
        )


@invariant(
    "cow-vs-eager-copy",
    "DESIGN 5j: a copy-on-write fork is indistinguishable from the "
    "eager-copy reference spec -- structurally equal when fresh, and "
    "independently mutable in both directions after divergence",
    tier=TIER_EXPENSIVE,
)
def _check_cow_vs_eager_copy(schema, context):
    from repro.model.interface import InterfaceDef
    from repro.model.types import ScalarType
    from repro.ops.attribute_ops import AddAttribute

    # Everything below runs on a private eager copy; the live fuzzed
    # schema, its spine, and its undo history are never touched.
    base = schema.copy(f"{schema.name}_cow_base")
    eager = base.copy(f"{base.name}_eager")
    fork = base.fork(f"{base.name}_fork")
    if not schemas_equal(fork, eager):
        yield "a fresh CoW fork differs structurally from an eager copy"
        return
    if fork.type_names() != eager.type_names():
        yield "a fresh CoW fork does not preserve declaration order"
    names = base.type_names()
    if not names:
        return
    base_print = schema_fingerprint(base)

    # Fork-side divergence: an op-level apply/undo/redo cycle plus a
    # delete/re-add of the same type name (ident reuse in the columnar
    # free list) must leave the base -- and its eager copy -- untouched.
    victim = names[0]
    operation = AddAttribute(victim, ScalarType("long"), "cow_probe")
    undo = operation.apply(fork)
    undo()
    operation.apply(fork)
    if "cow_probe" not in fork.get(victim).attributes:
        yield "op-level undo/redo on a fork lost the redone attribute"
    fork.remove_interface(victim)
    fork.add_interface(InterfaceDef(victim))
    if schema_fingerprint(base) != base_print:
        yield (
            f"fork-side writes (attribute probe, undo/redo, delete/"
            f"re-add of {victim!r}) leaked into the base schema"
        )
    if not schemas_equal(base, eager):
        yield (
            "after fork-side divergence the base no longer equals its "
            "eager copy"
        )

    # Base-side divergence: parent writes must not reach the fork.
    victim = names[-1]
    fork_print = schema_fingerprint(fork)
    base.edit(victim).set_extent("cow_probe_extent")
    base.remove_interface(victim)
    base.add_interface(InterfaceDef(victim))
    if schema_fingerprint(fork) != fork_print:
        yield (
            f"base-side writes (extent probe, delete/re-add of "
            f"{victim!r}) leaked into the fork"
        )


# ----------------------------------------------------------------------
# Round-trip invariants (expensive tier)
# ----------------------------------------------------------------------


@invariant(
    "odl-round-trip",
    "Section 3.1: printed extended ODL re-parses to the same schema",
    tier=TIER_EXPENSIVE,
)
def _check_odl_round_trip(schema, context):
    from repro.odl.parser import parse_schema
    from repro.odl.printer import print_schema

    text = print_schema(schema)
    try:
        parsed = parse_schema(text, name=schema.name)
    except Exception as error:  # noqa: BLE001 - any escape is the finding
        yield f"printed ODL does not re-parse: {error}"
        return
    if not schemas_equal(schema, parsed):
        yield "printer -> parser round trip changed the schema"
    elif print_schema(parsed) != text:
        yield "printer -> parser -> printer is not idempotent"


@invariant(
    "decomposition-union",
    "Section 3.3.1: the union of all concept schemas is the schema",
    tier=TIER_EXPENSIVE,
)
def _check_decomposition_union(schema, context):
    try:
        rebuilt = reconstruct(decompose(schema))
    except Exception as error:  # noqa: BLE001
        yield f"decompose/reconstruct raised: {error}"
        return
    if not schemas_equal(schema, rebuilt):
        yield "reconstruct(decompose(schema)) differs from schema"


@invariant(
    "name-equivalence-mapping",
    "Section 5: the mapping derives from name equivalence; a schema maps "
    "onto its copy with every construct unchanged",
    tier=TIER_EXPENSIVE,
)
def _check_name_equivalence(schema, context):
    mapping = generate_mapping(schema, schema.copy(f"{schema.name}_verify"))
    if mapping.added() or mapping.deleted():
        yield (
            "self-mapping reports "
            f"{len(mapping.added())} added / {len(mapping.deleted())} "
            "deleted constructs"
        )
    if mapping.entries and mapping.reuse_ratio() != 1.0:
        yield f"self-mapping reuse ratio is {mapping.reuse_ratio()}, not 1.0"
    partition = len(mapping.corresponding()) + len(mapping.added()) + len(
        mapping.deleted()
    )
    if partition != len(mapping.entries):
        yield (
            "mapping entries do not partition into corresponding/added/"
            f"deleted ({partition} != {len(mapping.entries)})"
        )


# ----------------------------------------------------------------------
# Workspace (history) invariants
# ----------------------------------------------------------------------


@workspace_invariant(
    "history-shape",
    "Figure 1: the workspace log mirrors exactly the undoable steps",
)
def _check_history_shape(workspace):
    if workspace.undo_depth != len(workspace.log):
        yield (
            f"undo_depth {workspace.undo_depth} != log length "
            f"{len(workspace.log)}"
        )
    for entry in workspace.log:
        if len(entry.undos) != len(entry.plan):
            yield (
                f"log entry {entry.describe()!r} has {len(entry.plan)} plan "
                f"steps but {len(entry.undos)} undo closures"
            )


@workspace_invariant(
    "log-replay",
    "Section 5 activity 8: the recorded script replays to the same "
    "custom schema (the log is the customization)",
    tier=TIER_EXPENSIVE,
)
def _check_log_replay(workspace):
    replay = workspace.reference.copy("verify_replay")
    context = OperationContext(reference=workspace.reference)
    try:
        for step in workspace.applied_operations():
            step.apply(replay, context)
    except Exception as error:  # noqa: BLE001
        yield f"replaying the applied plan steps raised: {error}"
        return
    if schema_fingerprint(replay) != schema_fingerprint(workspace.schema):
        yield "replaying the log does not reproduce the workspace schema"


@workspace_invariant(
    "undo-redo-identity",
    "Appendix A: undo restores the pre-operation schema and redo the "
    "post-operation schema, exactly (fingerprint identity)",
    tier=TIER_EXPENSIVE,
)
def _check_undo_redo_identity(workspace):
    if not workspace.log:
        return
    before = schema_fingerprint(workspace.schema)
    entry = workspace.undo_last()
    assert entry is not None
    try:
        redone = workspace.redo()
    except Exception as error:  # noqa: BLE001
        yield (
            f"redo of just-undone step {entry.describe()!r} raised: {error}"
        )
        return
    if redone is None:
        yield (
            f"redo after undo of {entry.describe()!r} found an empty redo "
            "stack"
        )
        return
    after = schema_fingerprint(workspace.schema)
    if after != before:
        yield (
            f"undo+redo of {entry.describe()!r} changed the schema "
            "fingerprint"
        )


@workspace_invariant(
    "plan-analyzer-differential",
    "DESIGN 5f: pre-flight diagnostics are exactly the dynamically "
    "failing ops -- valid plans analyze clean, apply_plan equals "
    "naive per-op application, and every diagnostic on a "
    "perturbed plan reproduces as a real failure",
    tier=TIER_EXPENSIVE,
)
def _check_plan_analyzer(workspace):
    from repro.analysis.plan import analyze_plan
    from repro.workload.generator import generate_operations

    schema = workspace.schema
    if len(schema) < 2:
        return
    seed = schema.generation * 31 + len(schema)
    try:
        plan = generate_operations(schema, 4, seed=seed)
    except RuntimeError:
        return  # too constrained to derive a plan here; nothing to check
    analysis = analyze_plan(plan, schema)
    for diagnostic in analysis.diagnostics:
        yield (
            "generated (valid) plan drew a pre-flight diagnostic: "
            f"{diagnostic}"
        )
    if analysis.diagnostics:
        return
    naive = Workspace(schema, "plan_naive", validate_each_step=False)
    try:
        for operation in plan:
            naive.apply(operation)
    except (OperationError, SchemaError) as error:
        yield f"pre-flight-clean generated plan failed to apply: {error}"
        return
    planned = Workspace(schema, "plan_planned", validate_each_step=False)
    planned.apply_plan(plan)
    if schema_fingerprint(naive.schema) != schema_fingerprint(
        planned.schema
    ):
        yield "apply_plan diverged from naive per-op application"
    if len(plan) < 2:
        return
    # Drop one op: whatever pre-flight then flags must actually fail
    # when the remaining ops run with skip-on-failure semantics.
    perturbed = list(plan)
    del perturbed[seed % len(plan)]
    verdict = analyze_plan(perturbed, schema, normalize=False)
    replay = Workspace(schema, "plan_perturbed", validate_each_step=False)
    failed: set[int] = set()
    for index, operation in enumerate(perturbed):
        try:
            replay.apply(operation)
        except (OperationError, SchemaError):
            failed.add(index)
    for diagnostic in verdict.diagnostics:
        if diagnostic.index not in failed:
            yield (
                "diagnostic on perturbed plan did not reproduce "
                f"dynamically: {diagnostic}"
            )


@workspace_invariant(
    "fork-rewind-differential",
    "Workspace docs: the fork(at=) lossy-log rewind fallback produces "
    "exactly the state a structural copy of the rewound workspace has, "
    "and leaves the workspace (history, redo stack, schema) untouched",
    tier=TIER_EXPENSIVE,
)
def _check_fork_rewind(workspace):
    import warnings

    from repro.repository.workspace import WorkspaceSnapshot

    if not workspace.log:
        return
    # Bookmark mid-history; rewinding only uses the snapshot's depth, so
    # a fabricated snapshot exercises the fallback without a lossy log.
    depth = len(workspace.log) // 2
    snapshot = WorkspaceSnapshot(
        log=workspace.schema.log,
        seq=workspace.schema.log.seq,
        depth=depth,
    )
    before = schema_fingerprint(workspace.schema)
    redo_before = workspace.redo_depth
    # The reference verdict: rewind the live workspace itself and
    # fingerprint the structural state the snapshot bookmarks.
    try:
        unwound = workspace.undo_to(snapshot)
        expected = schema_fingerprint(workspace.schema)
        for _ in range(unwound):
            workspace.redo()
    except (OperationError, SchemaError) as error:
        yield f"undo_to/redo round trip for the differential raised: {error}"
        return
    if schema_fingerprint(workspace.schema) != before:
        yield "undo_to + redo did not restore the workspace schema"
        return
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            branch = workspace._fork_by_rewind(
                "verify_rewind_fork", snapshot, "differential check"
            )
    except (OperationError, SchemaError) as error:
        yield f"fork(at=) rewind fallback raised: {error}"
        return
    if schema_fingerprint(branch.schema) != expected:
        yield (
            "fork(at=) rewind fallback diverges from a structural copy "
            "of the rewound state"
        )
    if branch.undo_depth != 0:
        yield "fork(at=) rewind fallback branch must start with no history"
    if schema_fingerprint(workspace.schema) != before:
        yield "fork(at=) rewind fallback did not restore the workspace"
    if workspace.redo_depth != redo_before:
        yield (
            "fork(at=) rewind fallback changed the redo stack "
            f"({redo_before} -> {workspace.redo_depth})"
        )



@workspace_invariant(
    "example-preservation",
    "DESIGN 5h: a behavior-preserving plan (instance-impact facet "
    "disjoint from an interface and its ancestry) keeps that "
    "interface's witness populations valid, and check_population "
    "agrees between the live evolved schema, a structural copy, and "
    "the state an undo/redo round trip restores",
    tier=TIER_EXPENSIVE,
)
def _check_example_preservation(workspace):
    from repro.examples.generator import significant_examples
    from repro.examples.preview import plan_instance_impact
    from repro.instances.check import check_population
    from repro.ops.effects import WILDCARD
    from repro.workload.generator import generate_operations
    from repro.workload.population import generate_population

    schema = workspace.schema
    if len(schema) < 2:
        return
    seed = schema.generation * 37 + len(schema)
    try:
        plan = generate_operations(schema, 3, seed=seed)
    except RuntimeError:
        return  # too constrained to derive a plan here; nothing to check
    impacted = plan_instance_impact(plan)
    if WILDCARD in impacted:
        return  # cascading family: the facet reserves the whole schema
    # An interface counts as untouched only when neither it nor any
    # ancestor is impacted -- a key or extent change on a supertype
    # legitimately re-judges the populations of every descendant.
    untouched = {
        name
        for name in schema.type_names()
        if name not in impacted and not (schema.ancestors(name) & impacted)
    }
    ordered = sorted(untouched)
    sample = ordered[:: max(1, len(ordered) // 4)][:4]
    pairs = [
        pair
        for pair in significant_examples(schema, interfaces=sample)
        if {obj.type_name for obj in pair.witness} <= untouched
    ][:4]
    scratch = Workspace(schema, "example_preservation",
                        validate_each_step=False)
    try:
        scratch.apply_plan(plan)
    except (OperationError, SchemaError):
        return  # the plan does not apply in this state; nothing to check
    after = scratch.schema
    for pair in pairs:
        issues = check_population(after, pair.witness)
        if issues:
            yield (
                f"plan with instance impact {sorted(impacted)} broke the "
                f"witness population of untouched {pair.subject}: "
                f"{issues[0]}"
            )
    pop = generate_population(after, seed=seed)
    live = [str(issue) for issue in check_population(after, pop)]
    if live:
        yield (
            "the evolved schema rejects its own generated population: "
            f"{live[0]}"
        )
    rebuilt = [str(issue) for issue in check_population(after.copy(), pop)]
    if rebuilt != live:
        yield (
            "check_population disagrees between the evolved schema and "
            "its structural copy"
        )
    undone = 0
    while scratch.log:
        scratch.undo_last()
        undone += 1
    for _ in range(undone):
        scratch.redo()
    replayed = [str(issue) for issue in check_population(scratch.schema, pop)]
    if replayed != live:
        yield (
            "check_population disagrees after an undo/redo round trip "
            "of the plan"
        )


# ----------------------------------------------------------------------
# Scoped (O(changed)) variants -- DESIGN 5i
#
# Each verifies its invariant's clause restricted to the touched
# closure, never walking the whole schema.  Invariants without a
# scoped variant are deferred to the caller's final full sweep (the
# fuzzer's ``final_check``); ALWAYS_FULL members run whole regardless.
# ----------------------------------------------------------------------


def _scoped_rule_messages(
    rule, schema: Schema, names: Iterable[str]
) -> Iterator[str]:
    """Per-interface validation *rule* over just the scoped *names*."""
    for name in names:
        interface = schema.interfaces.get(name)
        if interface is None:
            continue
        for issue in rule(schema, interface):
            if issue.severity == SEVERITY_ERROR:
                yield str(issue)


@scoped_invariant("dangling-types")
def _scoped_dangling(schema, context, scoped):
    yield from _scoped_rule_messages(dangling_type_issues, schema, scoped)


@scoped_invariant("inverse-pairing")
def _scoped_inverse_pairing(schema, context, scoped):
    yield from _scoped_rule_messages(inverse_issues, schema, scoped)


@scoped_invariant("hierarchy-one-to-many")
def _scoped_one_to_many(schema, context, scoped):
    yield from _scoped_rule_messages(cardinality_issues, schema, scoped)


@scoped_invariant("keys-resolve")
def _scoped_keys_resolve(schema, context, scoped):
    yield from _scoped_rule_messages(key_issues, schema, scoped)


@scoped_invariant("order-by-resolve")
def _scoped_order_by_resolve(schema, context, scoped):
    yield from _scoped_rule_messages(order_by_issues, schema, scoped)


def _local_link_successors(schema: Schema, kind: RelationshipKind):
    """Per-name successor function of a link graph (whole -> part).

    Derived from the owning interface directly so a scoped cycle check
    never materializes the whole edge list the way
    ``part_of_successors`` does.
    """
    interfaces = schema.interfaces

    def successors(name: str):
        interface = interfaces.get(name)
        if interface is None:
            return ()
        return tuple(
            end.target_type
            for end in interface.relationships_of_kind(kind)
            if end.is_to_many
        )

    return successors


@scoped_invariant("isa-acyclic")
def _scoped_isa_acyclic(schema, context, scoped):
    # A mutation can only create a cycle passing through a touched
    # node, and every cycle is reachable from each of its members --
    # DFS seeded at the scoped names finds it.
    cycle = _find_cycle(scoped, isa_successors(schema))
    if cycle is not None:
        yield str(isa_cycle_issue(cycle))


@scoped_invariant("part-of-acyclic")
def _scoped_part_of_acyclic(schema, context, scoped):
    successors = _local_link_successors(schema, RelationshipKind.PART_OF)
    cycle = _find_cycle(scoped, successors)
    if cycle is not None:
        yield str(part_of_cycle_issue(cycle))


@scoped_invariant("instance-of-acyclic")
def _scoped_instance_of_acyclic(schema, context, scoped):
    successors = _local_link_successors(schema, RelationshipKind.INSTANCE_OF)
    cycle = _find_cycle(scoped, successors)
    if cycle is not None:
        yield str(instance_of_cycle_issue(cycle))


@scoped_invariant("index-generalization-vs-scan")
def _scoped_index_generalization(schema, context, scoped):
    # Per-name probes only; the whole-schema generalization_roots()
    # comparison is deferred to the final full sweep.  The subtype scan
    # is batched: one pass over the schema builds the same
    # name -> direct-subtypes lists ``scan_subtypes`` derives per call
    # (declaration order), so the sweep costs O(types + probes), not
    # O(probes x types).
    sample = _stride_sample(scoped, schema.generation)
    if not sample:
        return
    scanned_subtypes: dict[str, list[str]] = {}
    for interface in schema:
        for supertype in interface.supertypes:
            scanned_subtypes.setdefault(supertype, []).append(interface.name)

    def scan_descendants(name: str) -> set[str]:
        result: set[str] = set()
        frontier = list(scanned_subtypes.get(name, ()))
        while frontier:
            current = frontier.pop()
            if current in result:
                continue
            result.add(current)
            frontier.extend(scanned_subtypes.get(current, ()))
        return result

    for name in sample:
        indexed = schema.subtypes(name)
        scanned = scanned_subtypes.get(name, [])
        if indexed != scanned:
            yield f"subtypes({name!r}): index {indexed!r} != scan {scanned!r}"
        if schema.descendants(name) != scan_descendants(name):
            yield f"descendants({name!r}): index != scan"
        if schema.ancestors(name) != index_module.scan_ancestors(schema, name):
            yield f"ancestors({name!r}): index != scan"


@scoped_invariant("index-aggregation-vs-scan")
def _scoped_index_aggregation(schema, context, scoped):
    # ``scan_parts`` / ``scan_wholes`` rebuild the full edge list per
    # call; build it once and fold both directions, preserving edge
    # order, so every probe is then a dict lookup.
    sample = _stride_sample(scoped, schema.generation)
    if not sample:
        return
    edges = index_module.scan_link_edges(schema, RelationshipKind.PART_OF)
    scanned_parts: dict[str, list[str]] = {}
    scanned_wholes: dict[str, list[str]] = {}
    for whole, part, _ in edges:
        scanned_parts.setdefault(whole, []).append(part)
        scanned_wholes.setdefault(part, []).append(whole)
    for name in sample:
        if schema.parts(name) != scanned_parts.get(name, []):
            yield f"parts({name!r}): index != scan"
        if schema.wholes(name) != scanned_wholes.get(name, []):
            yield f"wholes({name!r}): index != scan"


@scoped_invariant("incremental-vs-full-validation")
def _scoped_incremental_validation(schema, context, scoped):
    # Fold the cache's dirty set (O(dirty)), then recompute just the
    # scoped interfaces' issue slots against the cached ones.
    schema.validation.validate()
    yield from schema.validation.recheck_interfaces(scoped)


@scoped_invariant("columnar-vs-dict-adjacency")
def _scoped_columnar_adjacency(schema, context, scoped):
    # Row-level differential: each touched interface's columns must
    # match its live definition, and its reverse-reference buckets must
    # contain it.  The whole-store differential (plus free-list and
    # refcount integrity) runs in the final full sweep.
    adjacency = schema.index.adjacency
    for name in scoped:
        interface = schema.interfaces.get(name)
        if interface is None:
            continue
        parents = adjacency.parents_of(name)
        if parents != tuple(interface.supertypes):
            yield (
                f"parents_of({name!r}): columns {parents!r} != declared "
                f"{tuple(interface.supertypes)!r}"
            )
        refs = frozenset(interface.referenced_type_names())
        if adjacency.refs_of(name) != refs:
            yield (
                f"refs_of({name!r}): columns {sorted(adjacency.refs_of(name))!r}"
                f" != derived {sorted(refs)!r}"
            )
        for target in refs:
            if name not in adjacency.referencers_of(target):
                yield (
                    f"referencers_of({target!r}) is missing the live "
                    f"referencer {name!r}"
                )


def _sub_schema(schema: Schema, names: Iterable[str], suffix: str) -> Schema:
    """A fresh schema holding copies of just *names*, in declaration
    order.  References leaving the slice dangle, which the printer,
    parser, and mapper all accept -- dangling names are legal schema
    states (DESIGN 5i)."""
    sub = Schema(f"{schema.name}_{suffix}")
    for name in sorted(names, key=schema.index.declaration_key()):
        sub.add_interface(schema.interfaces[name].copy())
    return sub


@scoped_invariant("odl-round-trip")
def _scoped_odl_round_trip(schema, context, scoped):
    from repro.odl.parser import parse_schema
    from repro.odl.printer import print_schema

    sub = _sub_schema(schema, scoped, "odl_scoped")
    text = print_schema(sub)
    try:
        parsed = parse_schema(text, name=sub.name)
    except Exception as error:  # noqa: BLE001 - any escape is the finding
        yield f"printed ODL of the touched closure does not re-parse: {error}"
        return
    if not schemas_equal(sub, parsed):
        yield (
            "printer -> parser round trip changed the touched closure "
            "sub-schema"
        )
    elif print_schema(parsed) != text:
        yield "printer -> parser -> printer is not idempotent on the closure"


@scoped_invariant("name-equivalence-mapping")
def _scoped_name_equivalence(schema, context, scoped):
    sub = _sub_schema(schema, scoped, "map_scoped")
    mapping = generate_mapping(sub, sub.copy(f"{sub.name}_verify"))
    if mapping.added() or mapping.deleted():
        yield (
            "scoped self-mapping reports "
            f"{len(mapping.added())} added / {len(mapping.deleted())} "
            "deleted constructs"
        )
    if mapping.entries and mapping.reuse_ratio() != 1.0:
        yield (
            "scoped self-mapping reuse ratio is "
            f"{mapping.reuse_ratio()}, not 1.0"
        )
