"""Consistency checks over the customized user schema.

"We enforce consistency checks to provide feedback to the designer about
interactions among the concept schemas" (Abstract).  Two layers:

* the structural rules of :mod:`repro.model.validation`, re-expressed as
  designer feedback;
* design-quality checks that compare the workspace against the concept
  schema decomposition: concept schemas that lost their anchor, wagon
  wheels whose focal type became isolated, extents without keys, and
  empty interface definitions.
"""

from __future__ import annotations

from repro.concepts.decompose import Decomposition
from repro.knowledge.feedback import (
    Feedback,
    FeedbackLevel,
    caution,
    info,
    warning,
)
from repro.model.schema import Schema
from repro.model.validation import SEVERITY_ERROR


def structural_feedback(schema: Schema) -> list[Feedback]:
    """The structural validation issues as feedback messages."""
    messages: list[Feedback] = []
    # The incremental engine returns exactly what the full scan
    # would (its reference spec) at dirty-set cost per call.
    for issue in schema.validation.validate():
        level = (
            FeedbackLevel.ERROR
            if issue.severity == SEVERITY_ERROR
            else FeedbackLevel.WARNING
        )
        messages.append(
            Feedback(level, issue.rule, issue.location, issue.message)
        )
    return messages


def concept_interaction_feedback(
    schema: Schema, decomposition: Decomposition
) -> list[Feedback]:
    """Interactions between the workspace and the extracted concepts.

    The decomposition reflects the shrink wrap schema as originally
    presented to the designer; once customization begins, the workspace
    can drift away from individual concept schemas.  These checks tell
    the designer which points of view were invalidated.
    """
    messages: list[Feedback] = []
    for concept in decomposition.all_concepts():
        if concept.anchor not in schema:
            messages.append(
                caution(
                    "concept-anchor-deleted", concept.identifier,
                    f"the {concept.kind.label()} anchored at "
                    f"{concept.anchor!r} lost its anchor type",
                )
            )
            continue
        missing = sorted(
            name for name in concept.members if name not in schema
        )
        if missing:
            messages.append(
                info(
                    "concept-members-deleted", concept.identifier,
                    f"member type(s) no longer present: {', '.join(missing)}",
                )
            )
    return messages


def design_quality_feedback(schema: Schema) -> list[Feedback]:
    """Schema smells worth flagging before the custom schema ships."""
    messages: list[Feedback] = []
    for interface in schema:
        has_properties = (
            interface.attributes
            or interface.relationships
            or interface.operations
            or interface.supertypes
            or schema.index.children(interface.name)
        )
        if not has_properties:
            messages.append(
                warning(
                    "empty-interface", interface.name,
                    "interface defines no properties and participates in "
                    "no hierarchy",
                )
            )
        if interface.extent is not None and not interface.keys:
            # ancestors() yields only resolved types, so no guard needed.
            inherited_keys = any(
                schema.get(ancestor).keys
                for ancestor in schema.ancestors(interface.name)
            )
            if not inherited_keys:
                messages.append(
                    caution(
                        "extent-without-key", interface.name,
                        f"extent {interface.extent!r} is declared but no "
                        "key identifies its members",
                    )
                )
    return messages


def consistency_report(
    schema: Schema, decomposition: Decomposition | None = None
) -> list[Feedback]:
    """The full consistency report the designer sees on demand."""
    messages = structural_feedback(schema)
    if decomposition is not None:
        messages.extend(concept_interaction_feedback(schema, decomposition))
    messages.extend(design_quality_feedback(schema))
    return messages
