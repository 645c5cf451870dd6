"""Instance-impact honesty: ``instance_neutral`` ops really are neutral.

The instance layer (witness populations, significant examples à la
Proper's schema-validation examples) uses each operation's
``instance_impact()`` to decide which populations an edit can disturb;
an op declaring ``instance_neutral`` short-circuits that to "none".
The declaration is only honest if the op's ``apply`` (and its undo
closure) cannot reach a mutator that affects stored instances.

Population-*neutral* mutators are the ones that rename an extent or
reshape operation signatures and declaration order -- no stored object
is keyed by them.  Everything else (attributes, keys, supertypes,
relationships, membership) shapes what a population can hold, so an
``instance_neutral`` op reaching one is lying to the example engine:
stale witness populations would survive an edit that invalidated them.

The pass reuses the runtime mutator tracer from
:mod:`repro.lint.passes.effects` (same closure semantics: MRO-resolved
self calls, module helpers, nested undo closures).

It also proves **registry exhaustiveness**: every concrete
``SchemaOperation`` subclass defined under ``repro.ops`` (concrete ==
carries a string ``op_name``; the relationship base classes deliberately
leave it ``None``) must appear in ``OPERATION_CLASSES``.  An
unregistered op would silently miss every registry-driven check --
including this one and the effects pass.
"""

from __future__ import annotations

import inspect
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.passes.effects import _klass_anchor, reachable_mutators
from repro.lint.registry import LintContext, register_pass
from repro.ops.base import SchemaOperation
from repro.ops.registry import OPERATION_CLASSES

#: mutators that cannot disturb any stored instance: extent *names*,
#: operation signatures, and declaration-order permutations carry no
#: population data
POPULATION_NEUTRAL_MUTATORS = frozenset(
    {
        "set_extent",
        "add_operation",
        "remove_operation",
        "replace_operation",
        "reorder_operations",
        "reorder_attributes",
        "reorder_relationships",
        "reorder_interfaces",
    }
)


def neutrality_findings(
    classes: Iterable[type] = OPERATION_CLASSES,
) -> list[Finding]:
    """instance_neutral ops whose apply reaches a population mutator."""
    findings: list[Finding] = []
    for klass in classes:
        if not getattr(klass, "instance_neutral", False):
            continue
        offending = sorted(
            reachable_mutators(klass) - POPULATION_NEUTRAL_MUTATORS
        )
        if offending:
            path, line = _klass_anchor(klass)
            findings.append(
                Finding(
                    rule="instance-impact",
                    path=path,
                    line=line,
                    symbol=f"{klass.__module__}:{klass.__name__}",
                    message=(
                        "declares instance_neutral but apply reaches "
                        f"population-affecting mutator(s) "
                        f"{', '.join(offending)}; the example engine would "
                        "keep witness populations this edit invalidates"
                    ),
                )
            )
    return findings


def _concrete_op_subclasses(package_prefix: str = "repro.ops") -> list[type]:
    """Concrete SchemaOperation subclasses under *package_prefix*.

    Runtime subclass walk filtered to the shipped package, so ad-hoc
    subclasses (tests define some) never count; concrete means a string
    ``op_name`` -- the shared relationship bases leave it ``None``.
    """
    found: list[type] = []
    frontier = list(SchemaOperation.__subclasses__())
    seen: set[type] = set()
    while frontier:
        klass = frontier.pop()
        if klass in seen:
            continue
        seen.add(klass)
        frontier.extend(klass.__subclasses__())
        if not klass.__module__.startswith(package_prefix):
            continue
        if inspect.isabstract(klass):
            continue
        if isinstance(getattr(klass, "op_name", None), str):
            found.append(klass)
    return found


def coverage_findings(
    registered: Iterable[type] = OPERATION_CLASSES,
    package_prefix: str = "repro.ops",
) -> list[Finding]:
    """Concrete shipped ops missing from the registry tuple."""
    registered = set(registered)
    findings: list[Finding] = []
    for klass in sorted(
        set(_concrete_op_subclasses(package_prefix)) - registered,
        key=lambda k: (k.__module__, k.__name__),
    ):
        path, line = _klass_anchor(klass)
        findings.append(
            Finding(
                rule="instance-impact",
                path=path,
                line=line,
                symbol=f"{klass.__module__}:{klass.__name__}",
                message=(
                    f"concrete operation (op_name={klass.op_name!r}) is not "
                    "in OPERATION_CLASSES; unregistered ops silently escape "
                    "every registry-driven contract check"
                ),
            )
        )
    return findings


@register_pass(
    "instance-impact",
    rules=("instance-impact",),
    contract=(
        "instance_neutral ops reach only population-neutral mutators, and "
        "OPERATION_CLASSES covers every concrete shipped op"
    ),
)
def run(context: LintContext) -> list[Finding]:
    return neutrality_findings() + coverage_findings()
