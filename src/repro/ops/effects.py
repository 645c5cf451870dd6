"""Effect signatures: the static footprint of one modification operation.

The mutation spine (PR 4) reifies what an operation *did* -- every
mutator call becomes a :class:`~repro.model.mutation.MutationRecord`.
An :class:`EffectSignature` reifies what an operation *will do*, before
it runs: which ``(interface, Aspect)`` cells it may write, which it
reads while validating, and how it changes the schema's name bindings
(interfaces it creates, deletes, or requires to exist).

Signatures are the substrate of :mod:`repro.analysis.plan` -- the
def-use/conflict graph, the pre-flight diagnostics, and the
normalization guards are all computed from them.  They are *derived
from* the existing ``validation_scope()`` machinery (the default write
footprint is ``affected_types() x touched_aspects``) and *cross-checked
against* it: :func:`signature_scope_violations` asserts that no
declared write escapes the scope the incremental validator is told
about, and ``python -m repro.lint`` verifies at lint time that the
declared aspects cover every mutator kind ``apply``/``undo`` can emit.

Precision contract (what the analyzer is allowed to assume):

* ``writes`` over-approximates the cells the operation (and, for the
  cascading delete/move family, its propagation cascades) may mutate;
* ``reads`` over-approximates the cells ``validate`` inspects;
* ``requires`` *under*-approximates: every listed name is one whose
  absence makes the operation fail dynamically -- this direction is
  what makes the analyzer's "unknown name" diagnostics free of false
  positives;
* ``creates`` / ``deletes`` are exact.

The pseudo-interface name :data:`WILDCARD` (``"*"``) stands for "any
interface" -- e.g. ``add_extent_name`` reads ``("*", EXTENT)`` because
the paper's name-equivalence rule makes it scan every extent in the
schema for a clash.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.model.mutation import Aspect

#: Pseudo interface name matching every interface in footprint entries.
WILDCARD = "*"

#: One footprint: a set of (interface name | WILDCARD, Aspect) cells.
Footprint = frozenset[tuple[str, Aspect]]

EMPTY_FOOTPRINT: Footprint = frozenset()

EMPTY_ASPECTS: frozenset[Aspect] = frozenset()


def meeting_aspects(aspects: frozenset[Aspect]) -> frozenset[Aspect]:
    """The aspects a cell may carry and still overlap a cell of one of
    *aspects* on the same interface: the same aspect, or membership on
    either side (see :func:`_cells_overlap`)."""
    if Aspect.MEMBERSHIP in aspects:
        return frozenset(Aspect)
    if aspects:
        return aspects | {Aspect.MEMBERSHIP}
    return EMPTY_ASPECTS


def _cells_overlap(
    first: tuple[str, Aspect], second: tuple[str, Aspect]
) -> bool:
    """Wildcard- and membership-aware overlap of two footprint cells.

    A MEMBERSHIP cell (the interface appearing in / vanishing from the
    schema) overlaps every aspect of the same interface: no per-aspect
    read survives the interface being deleted out from under it.
    """
    name_a, aspect_a = first
    name_b, aspect_b = second
    if name_a != name_b and WILDCARD not in (name_a, name_b):
        return False
    if aspect_a is Aspect.MEMBERSHIP or aspect_b is Aspect.MEMBERSHIP:
        return True
    return aspect_a is aspect_b


def footprints_overlap(
    first: Footprint, second: Footprint
) -> tuple[str, Aspect] | None:
    """An overlapping cell between two footprints, or ``None``."""
    for cell_a in first:
        for cell_b in second:
            if _cells_overlap(cell_a, cell_b):
                return cell_a if cell_a[0] != WILDCARD else cell_b
    return None


def _index_footprint(footprint: Footprint) -> dict[str, frozenset[Aspect]]:
    """name -> aspects view of a footprint, for the fast overlap check."""
    by_name: dict[str, set[Aspect]] = {}
    for name, aspect in footprint:
        by_name.setdefault(name, set()).add(aspect)
    return {name: frozenset(aspects) for name, aspects in by_name.items()}


def _aspects_compat(
    first: frozenset[Aspect], second: frozenset[Aspect]
) -> bool:
    return bool(first & second) or (
        bool(first) and bool(second)
        and (Aspect.MEMBERSHIP in first or Aspect.MEMBERSHIP in second)
    )


def _indexed_overlap(
    first: dict[str, frozenset[Aspect]],
    second: dict[str, frozenset[Aspect]],
) -> tuple[str, Aspect] | None:
    """Same verdict as :func:`footprints_overlap`, on indexed views.

    The conflict graph compares every plan-op pair, so this runs
    O(plan^2) times; dict-keyed aspect sets beat the cell-product scan
    there, and the witness cell is only materialized on a hit.
    """
    if not first or not second:
        return None
    wild = first.get(WILDCARD)
    if wild is not None:
        for name, aspects in second.items():
            if _aspects_compat(wild, aspects):
                return _witness(name, aspects, wild)
    wild = second.get(WILDCARD)
    if wild is not None:
        for name, aspects in first.items():
            if _aspects_compat(aspects, wild):
                return _witness(name, aspects, wild)
    for name in first.keys() & second.keys():
        if name == WILDCARD:
            continue
        if _aspects_compat(first[name], second[name]):
            return _witness(name, first[name], second[name])
    return None


def _witness(
    name: str, aspects: frozenset[Aspect], other: frozenset[Aspect]
) -> tuple[str, Aspect]:
    common = aspects & other
    pool = common or (
        (aspects - {Aspect.MEMBERSHIP}) or (other - {Aspect.MEMBERSHIP})
        or aspects
    )
    return name, sorted(pool, key=lambda aspect: aspect.value)[0]


#: The empty instance-impact facet (for instance-neutral operations).
NO_INSTANCES: frozenset[str] = frozenset()


@dataclass(frozen=True)
class EffectSignature:
    """Static read/write footprint and name-binding effects of one op."""

    reads: Footprint
    writes: Footprint
    creates: frozenset[str]
    deletes: frozenset[str]
    requires: frozenset[str]
    #: The instance-impact facet: interface names whose *admitted
    #: populations* the operation may change (:data:`WILDCARD` for "any").
    #: Over-approximates, like ``writes``; instance-neutral operations
    #: (operation signatures, extent renames, pure reorderings) declare
    #: the empty set, which is what lets the example-preservation oracle
    #: (:mod:`repro.verify`) demand that witness populations of
    #: untouched interfaces survive a plan unchanged.
    instances: frozenset[str] = NO_INSTANCES

    @cached_property
    def _read_index(self) -> dict[str, frozenset[Aspect]]:
        return _index_footprint(self.reads)

    @cached_property
    def _write_index(self) -> dict[str, frozenset[Aspect]]:
        return _index_footprint(self.writes)

    @cached_property
    def _mentioned(self) -> frozenset[str]:
        names = set(self.creates) | set(self.deletes) | set(self.requires)
        for name, _ in self.reads | self.writes:
            if name != WILDCARD:
                names.add(name)
        return frozenset(names)

    def mentioned_names(self) -> frozenset[str]:
        """Every concrete interface name in the signature (no wildcard)."""
        return self._mentioned

    @cached_property
    def cell_aspects(self) -> frozenset[Aspect]:
        """The aspect of every read or write cell, any name."""
        return frozenset(aspect for _, aspect in self.reads | self.writes)

    @cached_property
    def wildcard_aspects(self) -> frozenset[Aspect]:
        """The aspects of the read or write cells naming :data:`WILDCARD`."""
        return self._read_index.get(WILDCARD, EMPTY_ASPECTS) | (
            self._write_index.get(WILDCARD, EMPTY_ASPECTS)
        )

    def binding_names(self) -> frozenset[str]:
        """Names whose existence this op changes (creates or deletes)."""
        return self.creates | self.deletes

    def conflicts_with(self, other: "EffectSignature") -> str | None:
        """Why this op does not commute with *other* (``None`` if it does).

        Two operations commute for the analyzer's purposes when their
        footprints are disjoint (no write/write or read/write overlap)
        and neither changes a name binding the other mentions.  The
        relation is symmetric; the returned string is a short human
        label for the conflict edge.
        """
        cell = _indexed_overlap(self._write_index, other._write_index)
        if cell is not None:
            return f"write-write on ({cell[0]}, {cell[1]})"
        cell = _indexed_overlap(self._write_index, other._read_index)
        if cell is not None:
            return f"read-after-write on ({cell[0]}, {cell[1]})"
        cell = _indexed_overlap(self._read_index, other._write_index)
        if cell is not None:
            return f"write-after-read on ({cell[0]}, {cell[1]})"
        binding = (
            self.binding_names() & other._mentioned
            or other.binding_names() & self._mentioned
        )
        if binding:
            return f"name binding on {sorted(binding)[0]!r}"
        return None


def signature_scope_violations(operation) -> list[str]:
    """Cross-check a signature against ``validation_scope()``.

    The incremental validator trusts ``validation_scope()`` to name
    every type an operation may dirty; a signature claiming writes
    outside that scope would mean one of the two declarations is wrong.
    Returns human-readable violation strings (empty when consistent).
    MEMBERSHIP writes are exempt from the aspect check -- the scope
    tuple describes per-interface dirt, while membership is resolved
    schema-wide by ``note_validation_scope``.
    """
    names, aspects = operation.validation_scope()
    signature = operation.effect_signature()
    violations: list[str] = []
    allowed_names = set(names) | {WILDCARD}
    for name, aspect in signature.writes:
        if name == WILDCARD:
            # Wildcard writes over-approximate propagation cascades;
            # each cascade op carries its own (checked) scope at apply
            # time, so they are outside the scope tuple by design.
            continue
        if name not in allowed_names:
            violations.append(
                f"{type(operation).__name__} writes ({name}, {aspect}) "
                f"but validation_scope only names {sorted(names)}"
            )
        if aspect is not Aspect.MEMBERSHIP and aspect not in aspects:
            violations.append(
                f"{type(operation).__name__} writes aspect {aspect} "
                f"outside its declared touched_aspects {sorted(aspects)}"
            )
    for name in signature.creates | signature.deletes:
        if name not in allowed_names:
            violations.append(
                f"{type(operation).__name__} binds name {name!r} "
                f"but validation_scope only names {sorted(names)}"
            )
    return violations
