"""Columnar (struct-of-arrays) link storage: the 100k-type regime.

The dict-of-sets adjacency the index grew in PR 6 is fast enough at 10k
types but pays Python-object overhead per node and per edge: every
parent tuple, child set, and reference frozenset is a separate
heap-allocated container keyed by strings.  At 100k types those
containers dominate both memory and cache behaviour.

This module stores the same three link families column-wise instead:

* :class:`NameTable` interns every type *name* (defined or dangling)
  to a dense integer id, refcounted with a free list so ids are reused
  after deletes -- but only once nothing references the name anymore
  (a deleted interface's name may legally live on as another type's
  dangling supertype).
* :class:`ColumnarAdjacency` keeps four parallel columns of flat
  ``array('i')`` rows indexed by id -- supertype parents, ISA children,
  outgoing references, and incoming references -- plus one flat
  ``array('q')`` of declaration positions, all fed incrementally from
  the mutation spine.  It is the one adjacency store every
  :class:`~repro.model.index.SchemaIndex` query answers from.
* :class:`DictAdjacency` is the retained dict implementation, kept as
  the executable reference specification: the columnar-vs-dict
  differential (``columnar-vs-dict-adjacency`` invariant and the
  property tests) folds the same stream into both and requires
  identical answers after every operation.

**Id / free-list lifecycle.**  An id's refcount is the number of
reasons its name must stay resolvable: +1 while an interface of that
name is defined, +1 per occurrence in any parents row, +1 per
occurrence in any outgoing-reference row.  ``release`` returns the id
to the free list only at zero, which makes reuse safe under dangling
references; :meth:`ColumnarAdjacency.check_integrity` re-derives every
refcount from the rows and is part of the differential contract.

**Positions.**  ``add_interface`` gives a defined id the next position
from a counter, ``reorder_interfaces`` renumbers every defined id, and
a rebuild numbers them in schema order; so sorting ids by position
reproduces ``list(schema.interfaces)`` (checked by
:func:`adjacency_differential`) without walking the schema.

**What has no column.**  Part-of and instance-of links live on their
owner's to-many end.  Forward queries read those ends directly; reverse
queries start from the incoming-reference rows, which already name
every owner with an end targeting a type.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Callable, Iterable

from repro.model.mutation import MutationRecord, replayable_kind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.schema import Schema

#: Mutator kinds that change the ISA adjacency incrementally.
ISA_KINDS = frozenset({"add_supertype", "remove_supertype", "set_supertypes"})


class NameTable:
    """Interned name <-> dense integer id with refcounted free-list reuse."""

    __slots__ = ("_ids", "_names", "_refs", "_free")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str | None] = []
        self._refs: list[int] = []
        self._free: list[int] = []

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def capacity(self) -> int:
        """Total ids ever allocated (live + free-listed)."""
        return len(self._names)

    @property
    def free_ids(self) -> int:
        return len(self._free)

    def acquire(self, name: str) -> int:
        """Intern *name*, bump its refcount, return its id."""
        ident = self._ids.get(name)
        if ident is None:
            if self._free:
                ident = self._free.pop()
                self._names[ident] = name
                self._refs[ident] = 1
            else:
                ident = len(self._names)
                self._names.append(name)
                self._refs.append(1)
            self._ids[name] = ident
        else:
            self._refs[ident] += 1
        return ident

    def seed(self, names: Iterable[str]) -> None:
        """Intern distinct *names* into this empty table as ids
        ``0..n-1``, one reference each (the bulk form of :meth:`acquire`
        a rebuild uses)."""
        if self._names:
            raise RuntimeError("NameTable.seed needs an empty table")
        self._names = list(names)
        self._ids = dict(zip(self._names, range(len(self._names))))
        self._refs = [1] * len(self._names)

    def release(self, ident: int) -> bool:
        """Drop one reference; True when the id was freed for reuse."""
        refs = self._refs[ident] - 1
        if refs < 0:
            raise RuntimeError(
                f"NameTable refcount underflow for id {ident} "
                f"({self._names[ident]!r})"
            )
        self._refs[ident] = refs
        if refs:
            return False
        name = self._names[ident]
        assert name is not None
        del self._ids[name]
        self._names[ident] = None
        self._free.append(ident)
        return True

    def id_of(self, name: str) -> int | None:
        """Current id of *name*, or None if not interned (no refcount)."""
        return self._ids.get(name)

    def name_of(self, ident: int) -> str:
        name = self._names[ident]
        if name is None:
            raise KeyError(f"id {ident} is on the free list")
        return name

    def refcount(self, ident: int) -> int:
        return self._refs[ident]

    def names(self) -> Iterable[str]:
        return self._ids.keys()

    def copy(self) -> "NameTable":
        """An independent copy (fresh containers, same id assignment)."""
        dup = NameTable.__new__(NameTable)
        dup._ids = dict(self._ids)
        dup._names = list(self._names)
        dup._refs = list(self._refs)
        dup._free = list(self._free)
        return dup


class ColumnarAdjacency:
    """Flat-array ISA / reverse-reference adjacency over one schema.

    Four columns of per-id ``array('i')`` rows (None = empty):

    * ``_parents[i]``  -- name-ids of interface *i*'s supertypes, in
      declaration order with multiplicity (mirrors the supertype list);
    * ``_children[i]`` -- interface ids of defined types listing name
      *i* as a supertype (deduplicated; set semantics);
    * ``_refs_out[i]`` -- name-ids referenced by interface *i*
      (set semantics; ``InterfaceDef.referenced_type_names``);
    * ``_refs_in[i]``  -- interface ids of definitions referencing
      name *i* (deduplicated);
    * ``_position[i]`` -- declaration position of defined interface *i*
      (only the relative order of defined ids is meaningful).

    Fed record-by-record through :meth:`observe` -- ISA kinds update the
    parent/child columns eagerly, ``add_interface`` takes the next
    position, ``reorder_interfaces`` renumbers every position, every
    other interface record marks its owner pending so the reference
    columns re-derive lazily, and a lossy record marks the whole store
    dirty for a scan rebuild.

    **Copy-on-write fork views (DESIGN.md 5j).**  :meth:`fork_view`
    hands a CoW fork an overlay copy: the outer columns, name table,
    and defined bits are copied (pointer-sized work per id, no schema
    scan), while the inner ``array('i')`` rows stay shared with the
    base.  The view privatises a row the first time it mutates it
    (:meth:`_own`), and pins the base's :attr:`version` at fork time --
    any later base mutation trips the pin in :meth:`ensure_fresh` and
    the view falls back to its own scan rebuild, so in-place writes on
    shared rows by either side are never observable across the fork.
    """

    __slots__ = (
        "_schema",
        "table",
        "_parents",
        "_children",
        "_refs_out",
        "_refs_in",
        "_defined",
        "_position",
        "_next_position",
        "_pending",
        "_dirty",
        "rebuilds",
        "version",
        "_owned",
        "_base",
        "_base_version",
    )

    def __init__(self, schema: "Schema") -> None:
        self._schema = schema
        self.table = NameTable()
        self._parents: list[array | None] = []
        self._children: list[array | None] = []
        self._refs_out: list[array | None] = []
        self._refs_in: list[array | None] = []
        self._defined = bytearray()
        self._position = array("q")
        self._next_position = 0
        self._pending: set[str] = set()
        self._dirty = True
        self.rebuilds = 0
        #: Bumped on every content-bearing record (and on mark_dirty);
        #: fork views pin it to detect base divergence.
        self.version = 0
        #: Ids whose rows this fork view has privatised; None when this
        #: store owns all its rows (the non-fork fast path).
        self._owned: set[int] | None = None
        #: The base store a fork view overlays, with its pinned version.
        self._base: "ColumnarAdjacency | None" = None
        self._base_version = 0

    # ------------------------------------------------------------------
    # Spine feed
    # ------------------------------------------------------------------

    def observe(self, record: MutationRecord) -> None:
        """Fold one spine record (the stream ``SchemaIndex`` consumes)."""
        kind = record.kind
        if kind == "scope":
            return
        self.version += 1
        if self._dirty:
            return
        name = record.interface
        if name is None:
            if kind == "reorder_interfaces":
                self._reposition(record.payload["order"])
            elif not replayable_kind(kind):
                self.mark_dirty()
            return
        if kind == "add_interface":
            self._define(
                name, tuple(self._schema.interfaces[name].supertypes)
            )
            self._pending.add(name)
        elif kind == "remove_interface":
            self._undefine(name)
        elif kind in ISA_KINDS:
            self._isa_update(name, record)
            self._pending.add(name)
        else:
            self._pending.add(name)

    def mark_dirty(self) -> None:
        """Forget everything; the next query rebuilds from a scan."""
        self._dirty = True
        self.version += 1
        self.table = NameTable()
        self._parents = []
        self._children = []
        self._refs_out = []
        self._refs_in = []
        self._defined = bytearray()
        self._position = array("q")
        self._next_position = 0
        self._pending = set()
        # A rebuild re-derives everything from this store's own schema,
        # so a fork view stops overlaying its base and owns all rows.
        self._base = None
        self._owned = None

    # ------------------------------------------------------------------
    # Column maintenance
    # ------------------------------------------------------------------

    def _own(self, ident: int) -> None:
        """Privatise *ident*'s rows before an in-place mutation.

        Fork views share inner ``array('i')`` rows with their base; the
        first write to any of an id's rows copies all four so the base
        never sees the edit.  Non-fork stores take the ``None`` fast
        path.
        """
        owned = self._owned
        if owned is None or ident in owned:
            return
        owned.add(ident)
        for column in (self._parents, self._children, self._refs_out, self._refs_in):
            row = column[ident]
            if row is not None:
                column[ident] = array("i", row)

    def _ensure_row(self, ident: int) -> None:
        grow = ident + 1 - len(self._parents)
        if grow > 0:
            self._parents.extend([None] * grow)
            self._children.extend([None] * grow)
            self._refs_out.extend([None] * grow)
            self._refs_in.extend([None] * grow)
            self._defined.extend(b"\0" * grow)
            self._position.extend([0] * grow)

    def _release(self, ident: int) -> None:
        if self.table.release(ident):
            # Freed for reuse: every row must already be empty -- a
            # non-empty children/refs_in row would itself hold refs.
            self._parents[ident] = None
            self._children[ident] = None
            self._refs_out[ident] = None
            self._refs_in[ident] = None

    def _link_parent(self, ident: int, parent: str) -> None:
        pid = self.table.acquire(parent)
        self._ensure_row(pid)
        self._own(ident)
        self._own(pid)
        row = self._parents[ident]
        if row is None:
            self._parents[ident] = array("i", (pid,))
        else:
            row.append(pid)
        bucket = self._children[pid]
        if bucket is None:
            self._children[pid] = array("i", (ident,))
        elif ident not in bucket:
            bucket.append(ident)

    def _unlink_parent(self, ident: int, parent: str) -> None:
        """Drop every occurrence of *parent* from *ident*'s parents."""
        pid = self.table.id_of(parent)
        if pid is None or self._parents[ident] is None:
            return
        self._own(ident)
        self._own(pid)
        row = self._parents[ident]
        occurrences = 0
        while True:
            try:
                row.remove(pid)
            except ValueError:
                break
            occurrences += 1
        if not occurrences:
            return
        bucket = self._children[pid]
        if bucket is not None and ident in bucket:
            bucket.remove(ident)
        for _ in range(occurrences):
            self._release(pid)

    def _define(self, name: str, parents: tuple[str, ...]) -> None:
        ident = self.table.acquire(name)  # the "defined" reference
        self._ensure_row(ident)
        self._defined[ident] = 1
        self._position[ident] = self._next_position
        self._next_position += 1
        for parent in parents:
            self._link_parent(ident, parent)

    def _undefine(self, name: str) -> None:
        ident = self.table.id_of(name)
        if ident is None or not self._defined[ident]:
            self.mark_dirty()  # stream out of sync with the store
            return
        row = self._parents[ident]
        if row:
            for pid in row:
                self._own(pid)
                bucket = self._children[pid]
                if bucket is not None and ident in bucket:
                    bucket.remove(ident)
            released = list(row)
            self._parents[ident] = None
            for pid in released:
                self._release(pid)
        else:
            self._parents[ident] = None
        # Fold the reference column eagerly: refcounts must reflect the
        # rows before the "defined" reference drops, or a still-wired id
        # could hit the free list and be reused under stale rows.
        self._clear_refs(ident)
        self._pending.discard(name)
        self._defined[ident] = 0
        self._release(ident)

    def _reposition(self, order: tuple[str, ...]) -> None:
        """Renumber every defined id's position after a reorder."""
        id_of = self.table.id_of
        defined = self._defined
        position = self._position
        for index, name in enumerate(order):
            ident = id_of(name)
            if ident is None or not defined[ident]:
                self.mark_dirty()  # stream out of sync with the store
                return
            position[ident] = index
        self._next_position = len(order)

    def _isa_update(self, name: str, record: MutationRecord) -> None:
        ident = self.table.id_of(name)
        if ident is None or not self._defined[ident]:
            self.mark_dirty()
            return
        kind = record.kind
        if kind == "add_supertype":
            self._link_parent(ident, record.payload["supertype"])
        elif kind == "remove_supertype":
            self._unlink_parent(ident, record.payload["supertype"])
        else:  # set_supertypes
            old = self._parents[ident]
            released = list(old) if old else []
            for pid in released:
                self._own(pid)
                bucket = self._children[pid]
                if bucket is not None and ident in bucket:
                    bucket.remove(ident)
            self._parents[ident] = None
            for parent in record.payload["supertypes"]:
                self._link_parent(ident, parent)
            for pid in released:
                self._release(pid)

    def _clear_refs(self, ident: int) -> None:
        row = self._refs_out[ident]
        if not row:
            self._refs_out[ident] = None
            return
        released = list(row)
        self._refs_out[ident] = None
        for tid in released:
            self._own(tid)
            bucket = self._refs_in[tid]
            if bucket is not None and ident in bucket:
                bucket.remove(ident)
        for tid in released:
            self._release(tid)

    def _set_refs(self, ident: int, targets: Iterable[str]) -> None:
        old = self._refs_out[ident]
        old_ids = set(old) if old else set()
        new_row = array("i")
        new_ids: set[int] = set()
        for target in targets:
            tid = self.table.acquire(target)
            self._ensure_row(tid)
            new_row.append(tid)
            new_ids.add(tid)
            if tid not in old_ids:
                self._own(tid)
                bucket = self._refs_in[tid]
                if bucket is None:
                    self._refs_in[tid] = array("i", (ident,))
                elif ident not in bucket:
                    bucket.append(ident)
        self._refs_out[ident] = new_row
        stale = [tid for tid in old_ids if tid not in new_ids]
        for tid in stale:
            self._own(tid)
            bucket = self._refs_in[tid]
            if bucket is not None and ident in bucket:
                bucket.remove(ident)
        # Old row held one reference per occurrence; it was a set, so
        # one per id.  Release after the new row's acquires so a target
        # referenced by both never transits the free list.
        if old:
            for tid in old:
                self._release(tid)

    def _flush(self) -> None:
        """Re-derive the reference columns of every pending owner."""
        if not self._pending:
            return
        interfaces = self._schema.interfaces
        pending, self._pending = self._pending, set()
        for name in pending:
            interface = interfaces.get(name)
            if interface is None:
                continue  # removed later in the stream; already cleared
            ident = self.table.id_of(name)
            if ident is None or not self._defined[ident]:
                self.mark_dirty()
                return
            self._set_refs(ident, interface.referenced_type_names())

    def _rebuild(self) -> None:
        """Re-derive the ISA columns and positions from a scan; every
        interface's reference rows follow on the first reference query
        (a full validation walks the ISA graph but never asks them).

        The defined names take ids ``0..n-1`` in declaration order, so
        the columns are allocated once and each id's position is its id.
        """
        self.mark_dirty()
        self._dirty = False
        self.rebuilds += 1
        interfaces = self._schema.interfaces
        count = len(interfaces)
        self.table.seed(interfaces)  # the "defined" references
        acquire = self.table.acquire
        parents = self._parents = [None] * count
        children = self._children = [None] * count
        self._refs_out = [None] * count
        self._refs_in = [None] * count
        self._defined = bytearray(b"\1" * count)
        self._position = array("q", range(count))
        self._next_position = count
        for ident, interface in enumerate(interfaces.values()):
            if not interface.supertypes:
                continue
            row = parents[ident] = array("i")
            for parent in interface.supertypes:
                pid = acquire(parent)
                self._ensure_row(pid)  # a dangling name takes a new id
                row.append(pid)
                bucket = children[pid]
                if bucket is None:
                    children[pid] = array("i", (ident,))
                elif bucket[-1] != ident:  # ids arrive in order: dedupe
                    bucket.append(ident)
        self._pending = set(interfaces)

    def ensure_fresh(self) -> bool:
        """Rebuild if dirty; True when a scan rebuild happened."""
        base = self._base
        if base is not None and base.version != self._base_version:
            # The base mutated after the fork: shared rows may have been
            # edited in place under us, so the overlay is unsound.  Drop
            # it and rebuild from this store's own schema.
            self.mark_dirty()
        if self._dirty:
            self._rebuild()
            return True
        return False

    def fork_view(self, schema: "Schema") -> "ColumnarAdjacency":
        """An overlay copy of this store for a CoW fork of the schema.

        O(ids) pointer work: the name table, outer column lists, defined
        bits and positions are copied; the inner ``array('i')`` rows are
        shared and privatised lazily by :meth:`_own`.  The view pins
        :attr:`version` so any later base mutation invalidates it
        (see :meth:`ensure_fresh`); while the base stays unmutated the
        fork answers queries with zero scan rebuilds.
        """
        self.ensure_fresh()
        self._flush()
        if self._dirty:  # _flush found the stream out of sync
            self._rebuild()
        dup = ColumnarAdjacency.__new__(ColumnarAdjacency)
        dup._schema = schema
        dup.table = self.table.copy()
        dup._parents = list(self._parents)
        dup._children = list(self._children)
        dup._refs_out = list(self._refs_out)
        dup._refs_in = list(self._refs_in)
        dup._defined = bytearray(self._defined)
        dup._position = self._position[:]
        dup._next_position = self._next_position
        dup._pending = set()
        dup._dirty = False
        dup.rebuilds = 0
        dup.version = 0
        dup._owned = set()
        dup._base = self
        dup._base_version = self.version
        return dup

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def parents_of(self, name: str) -> tuple[str, ...]:
        """Declared supertypes of *name*, in declaration order.

        Dangling supertype names are included -- the parents row mirrors
        the interface's declaration, not the resolved hierarchy.
        """
        self.ensure_fresh()
        ident = self.table.id_of(name)
        if ident is None or not self._defined[ident]:
            return ()
        row = self._parents[ident]
        if not row:
            return ()
        name_of = self.table.name_of
        return tuple(name_of(i) for i in row)

    def children_of(self, name: str, ordered: bool = False) -> list[str]:
        """Direct subtypes of *name* (defined or dangling); in
        declaration order when *ordered*, else in row order."""
        self.ensure_fresh()
        ident = self.table.id_of(name)
        row = self._children[ident] if ident is not None else None
        if not row:
            return []
        if ordered:
            row = sorted(row, key=self._position.__getitem__)
        name_of = self.table.name_of
        return [name_of(i) for i in row]

    def with_children(self) -> set[str]:
        """Names (defined or dangling) that have at least one subtype."""
        self.ensure_fresh()
        name_of = self.table.name_of
        return {name_of(i) for i, row in enumerate(self._children) if row}

    def descendants_of(self, name: str) -> set[str]:
        """Transitive subtypes of *name*; excludes *name* itself."""
        self.ensure_fresh()
        ident = self.table.id_of(name)
        if ident is None:
            return set()
        return self._descend([ident])

    def descendants_closure(self, seeds: Iterable[str]) -> set[str]:
        """Every descendant of any seed (seeds excluded unless reached)."""
        self.ensure_fresh()
        id_of = self.table.id_of
        roots = [i for i in map(id_of, seeds) if i is not None]
        return self._descend(roots)

    def _descend(self, roots: list[int]) -> set[str]:
        children = self._children
        seen: set[int] = set()
        frontier: list[int] = []
        for root in roots:
            bucket = children[root]
            if bucket:
                frontier.extend(bucket)
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            bucket = children[current]
            if bucket:
                frontier.extend(bucket)
        name_of = self.table.name_of
        return {name_of(i) for i in seen}

    def referencers_of(self, target: str) -> set[str]:
        """Names of defined interfaces whose definition mentions *target*."""
        self.ensure_fresh()
        self._flush()
        tid = self.table.id_of(target)
        if tid is None:
            return set()
        bucket = self._refs_in[tid]
        if not bucket:
            return set()
        name_of = self.table.name_of
        return {name_of(i) for i in bucket}

    def referencers_in_order(self, targets: Iterable[str]) -> list[str]:
        """Defined interfaces referencing any of *targets*, in
        declaration order."""
        self.ensure_fresh()
        self._flush()
        refs_in = self._refs_in
        owners: set[int] = set()
        for target in targets:
            tid = self.table.id_of(target)
            if tid is not None and refs_in[tid]:
                owners.update(refs_in[tid])
        name_of = self.table.name_of
        return [
            name_of(i) for i in sorted(owners, key=self._position.__getitem__)
        ]

    def position_key(self) -> Callable[[str], int]:
        """Sort key: a defined type name -> its declaration position.

        Use it at once: the key reads the current columns and is not
        kept in step with later records.
        """
        self.ensure_fresh()
        id_of = self.table.id_of
        position = self._position
        return lambda name: position[id_of(name)]

    def declared_names(self) -> list[str]:
        """Every defined name, sorted by declaration position."""
        self.ensure_fresh()
        defined = self._defined
        name_of = self.table.name_of
        return [
            name_of(i)
            for i in sorted(
                (i for i in range(len(defined)) if defined[i]),
                key=self._position.__getitem__,
            )
        ]

    def refs_of(self, name: str) -> frozenset[str]:
        """Names referenced by interface *name* (empty if undefined)."""
        self.ensure_fresh()
        self._flush()
        ident = self.table.id_of(name)
        if ident is None or not self._defined[ident]:
            return frozenset()
        row = self._refs_out[ident]
        if not row:
            return frozenset()
        name_of = self.table.name_of
        return frozenset(name_of(i) for i in row)

    # ------------------------------------------------------------------
    # Differential exports (dict-shaped views of the columns)
    # ------------------------------------------------------------------

    def isa_parents_map(self) -> dict[str, tuple[str, ...]]:
        self.ensure_fresh()
        name_of = self.table.name_of
        result: dict[str, tuple[str, ...]] = {}
        for ident, row in enumerate(self._parents):
            if self._defined[ident]:
                result[name_of(ident)] = (
                    tuple(name_of(p) for p in row) if row else ()
                )
        return result

    def isa_children_map(self) -> dict[str, set[str]]:
        """Parent name -> subtype-name set (non-empty buckets only)."""
        self.ensure_fresh()
        name_of = self.table.name_of
        result: dict[str, set[str]] = {}
        for ident, row in enumerate(self._children):
            if row:
                result[name_of(ident)] = {name_of(c) for c in row}
        return result

    def refs_of_map(self) -> dict[str, frozenset[str]]:
        self.ensure_fresh()
        self._flush()
        name_of = self.table.name_of
        result: dict[str, frozenset[str]] = {}
        for ident, row in enumerate(self._refs_out):
            if self._defined[ident]:
                result[name_of(ident)] = (
                    frozenset(name_of(t) for t in row) if row else frozenset()
                )
        return result

    def referencers_map(self) -> dict[str, set[str]]:
        """Target name -> referencing-owner set (non-empty buckets only)."""
        self.ensure_fresh()
        self._flush()
        name_of = self.table.name_of
        result: dict[str, set[str]] = {}
        for ident, row in enumerate(self._refs_in):
            if row:
                result[name_of(ident)] = {name_of(o) for o in row}
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "ids": len(self.table),
            "capacity": self.table.capacity,
            "free_ids": self.table.free_ids,
            "rebuilds": self.rebuilds,
            "pending": len(self._pending),
        }

    def check_integrity(self) -> list[str]:
        """Re-derive every refcount / row invariant; [] when sound.

        Part of the differential contract: the property tests and the
        ``columnar-vs-dict-adjacency`` invariant call this so a
        refcount drift surfaces at the op that caused it, not at the
        eventual use-after-free.
        """
        self.ensure_fresh()
        self._flush()
        problems: list[str] = []
        expected: dict[int, int] = {}
        for ident in range(self.table.capacity):
            if self._defined[ident]:
                expected[ident] = expected.get(ident, 0) + 1
        for column in (self._parents, self._refs_out):
            for row in column:
                if row:
                    for target in row:
                        expected[target] = expected.get(target, 0) + 1
        for ident in range(self.table.capacity):
            want = expected.get(ident, 0)
            try:
                name = self.table.name_of(ident)
            except KeyError:
                name = None
            if name is None:
                if want:
                    problems.append(
                        f"freed id {ident} still has {want} row references"
                    )
                continue
            have = self.table.refcount(ident)
            if have != want:
                problems.append(
                    f"id {ident} ({name!r}): refcount {have}, rows say {want}"
                )
            if self.table.id_of(name) != ident:
                problems.append(f"name {name!r} does not map back to {ident}")
        # refs_in must be exactly the transpose of refs_out.
        transpose: dict[int, set[int]] = {}
        for owner, row in enumerate(self._refs_out):
            if row:
                for target in row:
                    transpose.setdefault(target, set()).add(owner)
        for target in range(len(self._refs_in)):
            bucket = self._refs_in[target]
            have_set = set(bucket) if bucket else set()
            if have_set != transpose.get(target, set()):
                problems.append(
                    f"refs_in[{target}] is not the transpose of refs_out"
                )
        return problems


class DictAdjacency:
    """The dict-of-sets adjacency: retained reference specification.

    This is the PR 6 incremental implementation, verbatim in
    behaviour: parent tuples and child sets keyed by name, a lazily
    folded reverse-reference map, full lazy rebuild when dirty.  The
    columnar store is differentially checked against it after every
    operation (``columnar-vs-dict-adjacency``, plus the property tests
    in ``tests/test_columnar_adjacency.py``).
    """

    __slots__ = (
        "_schema",
        "_isa_children",
        "_isa_parents",
        "_isa_dirty",
        "_refs_of",
        "_referencers",
        "_refs_pending",
        "_refs_dirty",
    )

    def __init__(self, schema: "Schema", subscribe: bool = False) -> None:
        self._schema = schema
        self._isa_children: dict[str, set[str]] = {}
        self._isa_parents: dict[str, tuple[str, ...]] = {}
        self._isa_dirty = True
        self._refs_of: dict[str, frozenset[str]] = {}
        self._referencers: dict[str, set[str]] = {}
        self._refs_pending: set[str] = set()
        self._refs_dirty = True
        if subscribe:
            schema.log.subscribe(self.observe)

    # -- spine feed (identical protocol) -------------------------------

    def observe(self, record: MutationRecord) -> None:
        kind = record.kind
        if kind == "scope":
            return
        name = record.interface
        if name is not None:
            if not self._refs_dirty:
                self._refs_pending.add(name)
            if not self._isa_dirty:
                if kind in ISA_KINDS:
                    self._isa_update(name, record)
                elif kind == "add_interface":
                    self._isa_link(
                        name, tuple(self._schema.interfaces[name].supertypes)
                    )
                elif kind == "remove_interface":
                    self._isa_unlink(name)
        elif not replayable_kind(kind):
            self._isa_dirty = True
            self._refs_dirty = True

    def _isa_link(self, name: str, parents: tuple[str, ...]) -> None:
        self._isa_parents[name] = parents
        children = self._isa_children
        for parent in parents:
            children.setdefault(parent, set()).add(name)

    def _isa_unlink(self, name: str) -> None:
        children = self._isa_children
        for parent in self._isa_parents.pop(name, ()):
            bucket = children.get(parent)
            if bucket is not None:
                bucket.discard(name)

    def _isa_update(self, name: str, record: MutationRecord) -> None:
        kind = record.kind
        parents = self._isa_parents.get(name, ())
        children = self._isa_children
        if kind == "add_supertype":
            supertype = record.payload["supertype"]
            self._isa_parents[name] = parents + (supertype,)
            children.setdefault(supertype, set()).add(name)
        elif kind == "remove_supertype":
            supertype = record.payload["supertype"]
            self._isa_parents[name] = tuple(
                parent for parent in parents if parent != supertype
            )
            bucket = children.get(supertype)
            if bucket is not None:
                bucket.discard(name)
        else:  # set_supertypes
            new = tuple(record.payload["supertypes"])
            self._isa_parents[name] = new
            new_set = set(new)
            for parent in parents:
                if parent not in new_set:
                    bucket = children.get(parent)
                    if bucket is not None:
                        bucket.discard(name)
            old_set = set(parents)
            for parent in new:
                if parent not in old_set:
                    children.setdefault(parent, set()).add(name)

    # -- lazy folds ----------------------------------------------------

    def _isa_sets(self) -> dict[str, set[str]]:
        if self._isa_dirty:
            self._isa_children = {}
            self._isa_parents = {}
            for interface in self._schema:
                self._isa_link(interface.name, tuple(interface.supertypes))
            self._isa_dirty = False
        return self._isa_children

    def _fold_refs(self) -> None:
        interfaces = self._schema.interfaces
        if self._refs_dirty:
            self._refs_of = {}
            self._referencers = {}
            referencers = self._referencers
            for interface in self._schema:
                refs = frozenset(interface.referenced_type_names())
                self._refs_of[interface.name] = refs
                for target in refs:
                    referencers.setdefault(target, set()).add(interface.name)
            self._refs_dirty = False
            self._refs_pending.clear()
            return
        if not self._refs_pending:
            return
        referencers = self._referencers
        for name in self._refs_pending:
            interface = interfaces.get(name)
            new = (
                frozenset(interface.referenced_type_names())
                if interface is not None
                else frozenset()
            )
            old = self._refs_of.get(name, frozenset())
            for target in old - new:
                bucket = referencers.get(target)
                if bucket is not None:
                    bucket.discard(name)
            for target in new - old:
                referencers.setdefault(target, set()).add(name)
            if interface is None:
                self._refs_of.pop(name, None)
            else:
                self._refs_of[name] = new
        self._refs_pending.clear()

    # -- queries (same API as ColumnarAdjacency) -----------------------

    def descendants_of(self, name: str) -> set[str]:
        children = self._isa_sets()
        result: set[str] = set()
        frontier = list(children.get(name, ()))
        while frontier:
            current = frontier.pop()
            if current in result:
                continue
            result.add(current)
            bucket = children.get(current)
            if bucket:
                frontier.extend(bucket)
        return result

    def descendants_closure(self, seeds: Iterable[str]) -> set[str]:
        children = self._isa_sets()
        result: set[str] = set()
        frontier: list[str] = []
        for seed in seeds:
            bucket = children.get(seed)
            if bucket:
                frontier.extend(bucket)
        while frontier:
            current = frontier.pop()
            if current in result:
                continue
            result.add(current)
            bucket = children.get(current)
            if bucket:
                frontier.extend(bucket)
        return result

    def referencers_of(self, target: str) -> set[str]:
        self._fold_refs()
        owners = self._referencers.get(target)
        return set(owners) if owners else set()

    def refs_of(self, name: str) -> frozenset[str]:
        self._fold_refs()
        return self._refs_of.get(name, frozenset())

    def isa_parents_map(self) -> dict[str, tuple[str, ...]]:
        self._isa_sets()
        return dict(self._isa_parents)

    def isa_children_map(self) -> dict[str, set[str]]:
        children = self._isa_sets()
        return {
            parent: set(bucket) for parent, bucket in children.items() if bucket
        }

    def refs_of_map(self) -> dict[str, frozenset[str]]:
        self._fold_refs()
        return dict(self._refs_of)

    def referencers_map(self) -> dict[str, set[str]]:
        self._fold_refs()
        return {
            target: set(owners)
            for target, owners in self._referencers.items()
            if owners
        }


def adjacency_differential(
    columnar: ColumnarAdjacency, reference: DictAdjacency
) -> list[str]:
    """Mismatch messages between the flat-array store and the dict spec.

    Compares all four exported views plus the columnar store's internal
    refcount integrity, and checks that sorting the defined names by
    the position column reproduces the schema's declaration order; []
    means the two implementations agree exactly on the current schema
    state.
    """
    problems = list(columnar.check_integrity())
    declared = list(columnar._schema.interfaces)
    if columnar.declared_names() != declared:
        problems.append(
            "positions: defined names sorted by position do not "
            "reproduce the schema's declaration order"
        )
    pairs = (
        ("isa_parents", columnar.isa_parents_map(), reference.isa_parents_map()),
        (
            "isa_children",
            columnar.isa_children_map(),
            reference.isa_children_map(),
        ),
        ("refs_of", columnar.refs_of_map(), reference.refs_of_map()),
        (
            "referencers",
            columnar.referencers_map(),
            reference.referencers_map(),
        ),
    )
    for label, flat, spec in pairs:
        if flat == spec:
            continue
        missing = sorted(set(spec) - set(flat))[:3]
        spurious = sorted(set(flat) - set(spec))[:3]
        differing = sorted(
            key for key in set(flat) & set(spec) if flat[key] != spec[key]
        )[:3]
        problems.append(
            f"{label}: columnar != dict spec "
            f"(missing {missing!r}, spurious {spurious!r}, "
            f"differing {differing!r})"
        )
    return problems
