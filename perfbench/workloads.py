"""The workloads: one design session each, at its own scale.

Every workload is a closed loop with one client and no think time: a
designer opens a session, issues edit commands (each waits for the
previous one), undoes and redoes, branches what-if forks, checks the
deliverables and saves.  The workloads differ in how large the schema
is and in what one edit command is, which also fixes how the session
is opened:

* ``designer_5k`` -- the paper's interactive loop (Section 3,
  Figure 1): open a 5k-type shrink wrap schema from its extended ODL
  with ``SchemaRepository.from_odl``; each edit is one operation-language
  command, parsed and applied with ``Workspace.apply``, whose cascades,
  cautionary feedback and refreshed issue list are read back.
* ``bulk_50k`` -- the bulk loop: build a cold ``Workspace`` over a
  50k-type schema; each edit is one 100-op ``apply_plan_compiled`` plan,
  which bypasses propagation scratch forks, cautions and per-op
  validation.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Distinct operation streams per workload.  ``--seed`` picks stream
#: ``seed % STREAMS``, so a checkout generates at most this many inputs
#: per workload and serves every later run from its cache.
STREAMS = 4
#: The cold script: operations applied and timed on every fresh
#: opening, before the seeded stream.  Its seed is the same for every
#: stream, so the cold cost is measured on the same work in every run.
COLD_OPS = 100
COLD_SEED = 1_000_003
#: Steps of the cold script undone, then redone, right after it: undo
#: samples on the same operations for every stream.
COLD_UNDO = 20


@dataclass(frozen=True)
class Workload:
    name: str
    types: int
    #: Operations of the seeded stream the edit loop applies.
    stream: int
    #: Session openings per untraced run; setup_s is their median.
    #: Each runs the cold script; the first then goes on with the stream.
    openings: int
    #: Operations per edit command: 0 = one ``Workspace.apply`` each, on
    #: a ``SchemaRepository`` opened from ODL; otherwise one
    #: ``apply_plan_compiled`` plan of this many, on a bare ``Workspace``.
    plan: int = 0
    #: Edit commands between two undo-then-redo passes.
    undo_every: int = 5
    #: ``undo_last`` calls per pass, followed by as many ``redo`` calls.
    undo_steps: int = 1
    #: Edit commands between two what-if branches.
    branch_every: int = 50
    #: Edit commands between two finishes (custom schema, mapping,
    #: consistency report), and between two saves.  Spreading them over
    #: the loop keeps one burst of machine noise from landing on every
    #: sample.  The last edit is always followed by a save.
    finish_every: int = 50
    save_every: int = 25

    @property
    def from_odl(self) -> bool:
        """Whether a session is a ``SchemaRepository`` opened from ODL."""
        return not self.plan

    @property
    def edits(self) -> int:
        """Edit commands in the loop."""
        return self.stream // self.plan if self.plan else self.stream


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("designer_5k", 5_000, stream=600, openings=3),
        Workload("bulk_50k", 50_000, stream=800, openings=2, plan=100,
                 undo_every=1, undo_steps=2, branch_every=2,
                 finish_every=1, save_every=1),
    )
}


def schema_spec(types: int):
    """The shrink wrap schema shape every workload generates (seed 42)."""
    from repro.workload.generator import WorkloadSpec

    return WorkloadSpec(
        types=types,
        seed=42,
        isa_fraction=0.45,
        part_of_chain=min(100, max(4, types // 4)),
        instance_of_chain=min(50, max(3, types // 8)),
    )
