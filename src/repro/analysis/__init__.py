"""Analyses over schemas: diff, completeness, similarity, synthesis."""

from repro.analysis.completeness import (
    TABLE2_ADDITIONS,
    TABLE3_MODIFICATIONS,
    CoverageRow,
    add_only_script,
    coverage_gaps,
    delete_only_script,
    format_table,
    full_rebuild_script,
    table2_rows,
    table3_rows,
)
from repro.analysis.metrics import (
    DecompositionPayoff,
    SchemaMetrics,
    decomposition_payoff,
    schema_metrics,
)
from repro.analysis.diff import (
    ChangeEntry,
    ChangeStatus,
    SchemaDiff,
    diff_schemas,
    schema_diff,
)
from repro.analysis.family import FamilyMember, SchemaFamily
from repro.analysis.paths import PathStep, find_path, render_path
from repro.analysis.similarity import (
    AffinityReport,
    affinity_matrix,
    affinity_report,
    name_affinity,
    schema_affinity,
    type_affinity,
)
from repro.analysis.synthesis import SynthesisError, synthesize_operations

_PLAN_EXPORTS = frozenset({
    "ConflictEdge",
    "Diagnostic",
    "PlanAnalysis",
    "PlanPreflightError",
    "analyze_plan",
    "conflict_edges",
    "normalize_plan",
})


def __getattr__(name: str):
    # repro.analysis.plan is loaded lazily so that running the CLI
    # (``python -m repro.analysis.plan``) does not import the module
    # twice (runpy warns when the package __init__ pre-imports it).
    if name in _PLAN_EXPORTS:
        from repro.analysis import plan

        return getattr(plan, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


__all__ = [
    "AffinityReport",
    "ChangeEntry",
    "ChangeStatus",
    "ConflictEdge",
    "CoverageRow",
    "Diagnostic",
    "PlanAnalysis",
    "PlanPreflightError",
    "DecompositionPayoff",
    "FamilyMember",
    "PathStep",
    "SchemaDiff",
    "SchemaFamily",
    "SchemaMetrics",
    "SynthesisError",
    "TABLE2_ADDITIONS",
    "TABLE3_MODIFICATIONS",
    "add_only_script",
    "affinity_matrix",
    "affinity_report",
    "analyze_plan",
    "conflict_edges",
    "coverage_gaps",
    "decomposition_payoff",
    "delete_only_script",
    "diff_schemas",
    "find_path",
    "format_table",
    "full_rebuild_script",
    "name_affinity",
    "normalize_plan",
    "render_path",
    "schema_affinity",
    "schema_diff",
    "schema_metrics",
    "type_affinity",
    "synthesize_operations",
    "table2_rows",
    "table3_rows",
]
