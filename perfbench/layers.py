"""The layers the traced run wraps, and what each should move.

Every layer names the program entry points it wraps as
``(module, owner, attribute)`` sites.  ``owner`` is ``None`` for a
module-level function, otherwise the name of a class in *module*.  A
function is wrapped where its callers look it up: ``expand`` is
imported by name into ``repro.repository.workspace``, so that binding
is the one wrapped.

``moves`` states, before any measurement, which end-to-end metric on
which workload a change to the layer should move; ``not_on`` where it
should not.  The traced run reports ``<layer>.calls``, ``<layer>.ms``
(inclusive) and ``<layer>.self_ms`` (minus nested wrapped spans) for
every layer on every workload, zero where the layer is not reached.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    name: str
    sites: tuple[tuple[str, str | None, str], ...]
    moves: str
    not_on: str


#: ``ops.apply`` wraps ``apply`` on every class of
#: ``repro.ops.registry.OPERATION_CLASSES`` (resolved at install time).
OPS_APPLY = "ops.apply"
#: ``model.index`` wraps every public query method of ``SchemaIndex``.
MODEL_INDEX = "model.index"

_WORKSPACE = "repro.repository.workspace"
_REPOSITORY = "repro.repository.repository"
_PERSISTENCE = "repro.repository.persistence"

LAYERS: tuple[Layer, ...] = (
    Layer(
        "repository.workspace.init",
        ((_WORKSPACE, "Workspace", "__init__"),),
        "setup_s on bulk_50k",
        "edit_ms",
    ),
    Layer(
        "repository.repository.init",
        ((_REPOSITORY, "SchemaRepository", "__init__"),),
        "setup_s on designer_5k",
        "bulk_50k (0 calls)",
    ),
    Layer(
        "repository.persistence.save_repository",
        ((_PERSISTENCE, None, "save_repository"),),
        "save_ms on designer_5k",
        "edit_ms",
    ),
    Layer(
        "repository.workspace.apply",
        ((_WORKSPACE, "Workspace", "apply"),),
        "edit_ms, ops_per_s on designer_5k",
        "bulk_50k plans",
    ),
    Layer(
        "repository.workspace.apply_plan_compiled",
        ((_WORKSPACE, "Workspace", "apply_plan_compiled"),),
        "first_100_ops_ms, edit_ms, ops_per_s on bulk_50k",
        "designer_5k",
    ),
    Layer(
        "repository.workspace.undo_last",
        ((_WORKSPACE, "Workspace", "undo_last"),),
        "undo_redo_ms on every workload",
        "edit_ms",
    ),
    Layer(
        "repository.workspace.redo",
        ((_WORKSPACE, "Workspace", "redo"),),
        "undo_redo_ms on every workload",
        "edit_ms",
    ),
    Layer(
        "repository.workspace.fork",
        ((_WORKSPACE, "Workspace", "fork"),),
        "branch_ms on every workload",
        "edit_ms",
    ),
    Layer(
        "knowledge.propagation.expand",
        ((_WORKSPACE, None, "expand"),),
        "edit_ms, ops_per_s on designer_5k",
        "bulk_50k",
    ),
    Layer(
        "knowledge.propagation.expand_applying",
        ((_WORKSPACE, None, "expand_applying"),),
        "edit_ms, ops_per_s on bulk_50k",
        "designer_5k edits",
    ),
    Layer(
        "knowledge.constraints.cautions_for",
        ((_WORKSPACE, None, "cautions_for"),),
        "edit_ms on designer_5k",
        "bulk_50k",
    ),
    Layer(
        OPS_APPLY,
        (),
        "edit_ms, undo_redo_ms on designer_5k; ops_per_s on "
        "bulk_50k",
        "finish_ms, save_ms",
    ),
    Layer(
        "model.validation_cache.validate",
        (("repro.model.validation_cache", "ValidationCache", "validate"),),
        "undo_redo_ms, branch_ms on designer_5k; "
        "first_100_ops_ms on bulk_50k",
        "save_ms",
    ),
    Layer(
        MODEL_INDEX,
        (),
        "edit_ms on designer_5k; ops_per_s on bulk_50k",
        "setup_s on designer_5k (ODL parse)",
    ),
    Layer(
        "model.columnar.ensure_fresh",
        (("repro.model.columnar", "ColumnarAdjacency", "ensure_fresh"),),
        "first_100_ops_ms on bulk_50k; branch_ms on designer_5k",
        "edit_ms on bulk_50k",
    ),
    Layer(
        "model.schema.fork",
        (("repro.model.schema", "Schema", "fork"),),
        "branch_ms on designer_5k; edit_ms on designer_5k "
        "(propagation scratch forks)",
        "bulk_50k plans",
    ),
    Layer(
        "model.schema.copy",
        (("repro.model.schema", "Schema", "copy"),),
        "setup_s on designer_5k and bulk_50k; finish_ms",
        "edit_ms",
    ),
    Layer(
        "analysis.plan.analyze_plan",
        (("repro.analysis.plan", None, "analyze_plan"),),
        "first_100_ops_ms, edit_ms on bulk_50k",
        "designer_5k (0 calls)",
    ),
    Layer(
        "concepts.decompose",
        ((_REPOSITORY, None, "decompose"),),
        "setup_s on designer_5k",
        "bulk_50k (0 calls)",
    ),
    Layer(
        "odl.parser.parse_schema",
        ((_REPOSITORY, None, "parse_schema"),),
        "setup_s on designer_5k",
        "bulk_50k (0 calls)",
    ),
    Layer(
        "odl.printer.print_schema",
        ((_PERSISTENCE, None, "print_schema"),
         ("repro.odl.printer", None, "print_schema")),
        "save_ms on every workload",
        "edit_ms",
    ),
    Layer(
        "ops.language.parse_operation",
        (("repro.ops.language", None, "parse_operation"),),
        "edit_ms on designer_5k (one parse per edit)",
        "setup_s",
    ),
    Layer(
        "repository.mapping.generate_mapping",
        ((_REPOSITORY, None, "generate_mapping"),),
        "finish_ms on designer_5k",
        "edit_ms",
    ),
    Layer(
        "knowledge.consistency.consistency_report",
        ((_REPOSITORY, None, "consistency_report"),
         ("repro.knowledge.consistency", None, "consistency_report")),
        "finish_ms on every workload",
        "edit_ms",
    ),
)

#: Counters read from the components' ``stats()`` before and after the
#: edit loop (never inside it); reported as the loop's delta.  They
#: must repeat exactly across runs of one seed.  ``better`` is the
#: direction that means less work or more reuse.
COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("spine.records", "lower", "mutation records the loop emitted (work count)"),
    ("index.hits", "higher", "index cache answers served"),
    ("index.misses", "lower", "index cache builds"),
    ("index.rebuilds", "lower", "index families rebuilt by scan (wasted work)"),
    ("columnar.rebuilds", "lower", "columnar adjacency scan rebuilds"),
    ("validation.full", "lower", "full validation sweeps"),
    ("validation.incremental", "lower", "incremental validation refreshes"),
    ("validation.revalidated", "lower", "interfaces re-checked"),
    ("validation.reused", "higher", "interfaces whose cached issues were reused"),
    ("analysis.hits", "higher", "plan-analysis memo hits"),
    ("analysis.misses", "lower", "plan analyses computed"),
)

#: Ratios of useful outcomes to attempts, derived from the counters.
RATIOS: tuple[tuple[str, str, str, str], ...] = (
    ("index.hit_ratio", "index.hits", "index.misses", "hits / (hits + misses)"),
    ("validation.reuse_ratio", "validation.reused", "validation.revalidated",
     "reused / (reused + revalidated)"),
)

#: Trace bookkeeping: the session's end-to-end time untraced and
#: traced, their difference, and the traced time no wrapped span
#: covers.  Sum of every layer's ``self_ms`` plus
#: ``trace.unwrapped_self_ms`` equals ``trace.traced_ms``.
TRACE_METRICS: tuple[tuple[str, str, str], ...] = (
    ("trace.untraced_ms", "ms", "lower"),
    ("trace.traced_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.unwrapped_self_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
)


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric the traced run prints, in declared order."""
    metrics: list[dict] = []
    for layer in LAYERS:
        metrics.append({"name": f"{layer.name}.calls", "unit": "count",
                        "better": "lower"})
        metrics.append({"name": f"{layer.name}.ms", "unit": "ms",
                        "better": "lower"})
        metrics.append({"name": f"{layer.name}.self_ms", "unit": "ms",
                        "better": "lower"})
    for name, better, _ in COUNTERS:
        metrics.append({"name": name, "unit": "count", "better": better})
    for name, *_ in RATIOS:
        metrics.append({"name": name, "unit": "ratio", "better": "higher"})
    for name, unit, better in TRACE_METRICS:
        metrics.append({"name": name, "unit": unit, "better": better})
    return metrics
