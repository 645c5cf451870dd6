"""One measured design session, with its correctness gates.

Only the sections run through :class:`Clock` are timed, and only those
record spans when a tracer is attached.  Gates and counter reads run
between them.  A failed gate raises :class:`GateError`.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from perfbench.inputs import schema_digest
from perfbench.workloads import COLD_OPS, COLD_UNDO, Workload


class GateError(Exception):
    """A correctness gate failed: the program's output is wrong."""


#: One timed sample: its wall seconds, and the host's slowdown around it.
Sample = tuple[float, float]

#: What :func:`reference_seconds` takes on a host at reference speed.
#: Timings are reported at that speed (see :class:`Clock`).
REFERENCE_S = 0.2e-3
#: Reference runs after a timed call last at least this share of it.
REFERENCE_SHARE = 0.1


#: The reference task's keys, made once so that it allocates nothing
#: the garbage collector tracks.
_REFERENCE_KEYS = tuple(f"T{i}" for i in range(61))


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python task that never calls the program.

    It hashes strings, looks up dicts and adds integers like the
    program does, so it slows down with the host as the program does.
    It allocates no object the garbage collector tracks: it neither
    triggers a collection, whose cost grows with the program's heap,
    nor moves the program's own collections into or out of its calls.
    """
    start = perf_counter()
    keys = _REFERENCE_KEYS
    table = dict.fromkeys(keys, 0)
    for i in range(1500):
        key = keys[i % 61]
        table[key] = table[key] + i
    return perf_counter() - start


class Clock:
    """Times the measured sections and switches the tracer on inside them.

    On a shared host the speed drifts: on a 2-core cloud VM by up to
    2x, flipping every few milliseconds and drifting in phases from
    seconds to minutes, and every sample taken in a phase slows alike.
    No statistic over one run removes a phase that outlasts the run.
    So each timed call is bracketed by runs of
    :func:`reference_seconds`, one before and, after it, as many as
    fill ``REFERENCE_SHARE`` of its time (at least one), so that a long
    call is compared with more than one flip.  Their mean over
    ``REFERENCE_S`` is the host's slowdown around the call, recorded
    with its wall time.  The end-to-end metrics divide one by the
    other; the reference task never calls the program, so a change to
    the program moves them and a change of host speed does not.
    ``total`` is the wall time of every timed call, ``adjusted`` the
    same at reference speed.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.total = 0.0
        self.adjusted = 0.0

    def run(self, function, *args) -> tuple[object, Sample]:
        """``function(*args)`` and its :data:`Sample`."""
        tracer = self.tracer
        before = reference_seconds()
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            result = function(*args)
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.active = False
        self.total += elapsed
        after = [reference_seconds()]
        while sum(after) < elapsed * REFERENCE_SHARE:
            after.append(reference_seconds())
        slowdown = (before + sum(after)) / ((1 + len(after)) * REFERENCE_S)
        self.adjusted += elapsed / slowdown
        return result, (elapsed, slowdown)


def seconds(samples: list[Sample], adjusted: bool = True) -> list[float]:
    """Each sample's time at reference speed, or its wall time."""
    return [wall / slowdown if adjusted else wall
            for wall, slowdown in samples]


@dataclass
class Session:
    """Everything one run measured, filled in as the session goes.

    The caller owns the object, so the operations attempted and failed
    are known even when the session stops on an error.
    """

    setup: list[Sample] = field(default_factory=list)
    #: Per opening, the sample of each edit command of the cold script.
    cold: list[list[Sample]] = field(default_factory=list)
    #: Each kind's samples (``edit``, ``undo_redo``, ``branch``,
    #: ``finish``, ``save``), in the order they were taken.
    samples: dict[str, list[Sample]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    #: Every timed call's wall time, and the same at reference speed.
    timed_s: float = 0.0
    adjusted_s: float = 0.0
    final_digest: str = ""

    def record(self, kind: str, sample: Sample) -> None:
        self.samples.setdefault(kind, []).append(sample)

    def end_to_end(self, workload: Workload,
                   adjusted: bool = True) -> dict[str, tuple[float, str]]:
        """Every end-to-end metric as ``name: (value, unit)``, at
        reference speed or (``adjusted=False``) in wall time.

        Each timing but ``setup_s`` is the geometric mean of its
        samples: it moves in proportion to the time spent in each speed
        phase the adjustment leaves over, and no single stall or
        garbage collection dominates it.  ``setup_s`` is the median of
        the openings.
        """
        def typical_ms(kind: str) -> float:
            return statistics.geometric_mean(
                seconds(self.samples[kind], adjusted)) * 1e3

        edits = seconds(self.samples["edit"], adjusted)
        cold = [sum(seconds(opening, adjusted)) for opening in self.cold]
        return {
            "setup_s": (statistics.median(seconds(self.setup, adjusted)), "s"),
            "first_100_ops_ms": (statistics.geometric_mean(cold) * 1e3, "ms"),
            "edit_ms": (typical_ms("edit"), "ms"),
            "undo_redo_ms": (typical_ms("undo_redo"), "ms"),
            "branch_ms": (typical_ms("branch"), "ms"),
            "ops_per_s": (len(edits) * (workload.plan or 1) / sum(edits),
                          "ops/s"),
            "finish_ms": (typical_ms("finish"), "ms"),
            "save_ms": (typical_ms("save"), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def sample_counts(self) -> dict[str, float]:
        """Samples behind each metric; the edits' median and p90 at
        reference speed and how many samples lie beyond the p90 (too
        few on bulk_50k for an end-to-end metric); the median slowdown."""
        edits = seconds(self.samples["edit"])
        p90 = statistics.quantiles(edits, n=10, method="inclusive")[8]
        slowdowns = [slowdown for samples in self.samples.values()
                     for _, slowdown in samples]
        counts: dict[str, float] = {
            "setup": len(self.setup),
            "first_100_ops": len(self.cold),
            "edit_p50_ms": statistics.median(edits) * 1e3,
            "edit_p90_ms": p90 * 1e3,
            "edit_beyond_p90": sum(1 for value in edits if value > p90),
            "slowdown_p50": statistics.median(slowdowns),
        }
        for kind, samples in self.samples.items():
            counts[kind] = len(samples)
        return counts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_counters(schema) -> dict[str, int]:
    """The component counters, from their own ``stats()``.

    ``Schema.stats()`` is not used: besides being O(types) it builds
    the part-of / instance-of index families to count edges, which
    would warm the state the next timed section meets.  The plan
    analysis memo counters it reports are read from their fields.
    """
    index = schema.index.stats()
    validation = schema.validation.stats()
    return {
        "spine.records": schema.log.seq,
        "index.hits": index["hits"],
        "index.misses": index["misses"],
        "index.rebuilds": index["rebuilds"],
        "columnar.rebuilds": index["adjacency_rebuilds"],
        "validation.full": validation["full_validations"],
        "validation.incremental": validation["incremental_validations"],
        "validation.revalidated": validation["interfaces_revalidated"],
        "validation.reused": validation["interfaces_reused"],
        "analysis.hits": schema._analysis_hits,
        "analysis.misses": schema._analysis_misses,
    }


def _gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _issues_gate(workspace, where: str) -> None:
    from repro.model.validation import validate_schema

    _gate(
        workspace.issues == validate_schema(workspace.schema),
        f"{where}: workspace.issues differs from validate_schema",
    )


def open_session(workload: Workload, inputs: dict, reference=None):
    """A fresh session: a ``SchemaRepository`` from the input ODL, or a
    ``Workspace`` over *reference*, the generated shrink wrap schema
    (``Workspace`` copies it, so one object serves every opening)."""
    if not workload.from_odl:
        from repro.repository.workspace import Workspace

        return Workspace(reference)
    from repro.repository.repository import SchemaRepository

    return SchemaRepository.from_odl(inputs["odl"], name="shrink_wrap")


def workspace_of(workload: Workload, opened):
    return opened.workspace if workload.from_odl else opened


def apply_edit(workload: Workload, workspace, texts: list[str]) -> int:
    """One edit command: parse, apply, read what the designer sees."""
    from repro.ops import language

    operations = [language.parse_operation(text) for text in texts]
    if workload.plan:
        return len(workspace.apply_plan_compiled(operations))
    entry = workspace.apply(operations[0])
    return len(entry.feedback) + len(workspace.issues)


def commands(workload: Workload, texts: list[str]) -> list[list[str]]:
    """*texts* cut into the workload's edit commands."""
    unit = workload.plan or 1
    return [texts[start:start + unit] for start in range(0, len(texts), unit)]


def warm_up(workload: Workload, inputs: dict, reference=None) -> None:
    """Open once and run the cold script, untimed, then drop the session.

    Pays the process's one-time costs (lazy imports, allocator growth)
    before two sessions that are compared with each other.
    """
    workspace = workspace_of(workload, open_session(workload, inputs, reference))
    for command in commands(workload, inputs["ops"][:COLD_OPS]):
        apply_edit(workload, workspace, command)


def run_session(
    session: Session,
    workload: Workload,
    inputs: dict,
    openings: int,
    workdir: Path,
    tracer=None,
    reference=None,
) -> None:
    """Open, edit, undo/redo, branch, finish and save; check the outputs.

    The session is opened *openings* times.  Every opening runs the
    cold script, then undoes and redoes its last ``COLD_UNDO`` steps.
    The first opening goes on with the seeded stream, with undo/redo,
    branches, finishes and saves on their cadences; the others are
    spread evenly over the stream and dropped after their cold
    script, so that every metric samples the whole run.  What was
    measured goes into *session*.
    """
    from repro.knowledge import consistency
    from repro.odl import printer
    from repro.repository import persistence

    cold = commands(workload, inputs["ops"][:COLD_OPS])
    # One command more than the loop runs: a branch's edit is the
    # stream's next operation.
    upcoming = commands(workload, inputs["ops"][COLD_OPS:])
    stream = upcoming[: workload.edits]
    reopen_at = {len(stream) * k // openings for k in range(1, openings)}
    clock = Clock(tracer)
    save_path = workdir / f"{workload.name}.save"

    def counted(count: int, function, *args):
        """``clock.run`` of *count* operations that may be rejected."""
        session.attempted += count
        try:
            return clock.run(function, *args)
        except Exception:
            session.failed += count
            raise

    def edit(workspace, texts: list[str]) -> Sample:
        return counted(len(texts), apply_edit, workload, workspace, texts)[1]

    if workload.from_odl:
        def finish(repository):
            repository.generate_custom_schema()
            repository.generate_mapping()
            return repository.consistency()

        def save(repository):
            persistence.save_repository(repository, save_path)
    else:
        def finish(workspace):
            return consistency.consistency_report(workspace.schema)

        def save(workspace):
            text = printer.print_schema(workspace.schema)
            save_path.write_text(text + "\n" + workspace.script() + "\n")

    def undo_redo(workspace, steps: int) -> None:
        for _ in range(steps):
            session.record("undo_redo", clock.run(workspace.undo_last)[1])
        for _ in range(steps):
            session.record("undo_redo", clock.run(workspace.redo)[1])

    def open_cold():
        """One opening and its cold script; returns the opened session."""
        gc.collect()
        opened, sample = clock.run(open_session, workload, inputs, reference)
        session.setup.append(sample)
        workspace = workspace_of(workload, opened)
        _gate(schema_digest(workspace.schema) == inputs["schema_digest"],
              "the opened session's schema differs from the generated "
              "shrink wrap schema")
        counts = read_counters(workspace.schema)
        if session.counts and counts != session.counts:
            raise GateError(f"openings disagree on counters: {counts} != "
                            f"{session.counts}")
        session.counts = counts
        session.cold.append([edit(workspace, texts) for texts in cold])
        undo_redo(workspace, COLD_UNDO)
        return opened

    opened = open_cold()
    workspace = workspace_of(workload, opened)
    before = session.counts
    for index, texts in enumerate(stream):
        if index in reopen_at:
            open_cold()
            gc.collect()
        session.record("edit", edit(workspace, texts))
        done = index + 1
        branching = done % workload.branch_every == 0
        if done % workload.undo_every == 0:
            if branching:
                digest = schema_digest(workspace.schema)
            undo_redo(workspace, workload.undo_steps)
            if branching:
                _gate(schema_digest(workspace.schema) == digest,
                      f"undo then redo after edit {done} changed the schema")
        if branching:
            fork, sample = counted(1, _branch, workspace, upcoming[done][0])
            session.record("branch", sample)
            _issues_gate(fork, f"branch after edit {done}")
            fork.schema.release_cow()
        if done % workload.finish_every == 0:
            session.record("finish", clock.run(finish, opened)[1])
        if done % workload.save_every == 0 or done == len(stream):
            session.record("save", clock.run(save, opened)[1])
    after = read_counters(workspace.schema)
    session.counts = {name: after[name] - before[name] for name in after}
    session.timed_s = clock.total
    session.adjusted_s = clock.adjusted

    _issues_gate(workspace, "end of session")
    session.final_digest = schema_digest(workspace.schema)
    _gate(session.final_digest == inputs["golden_digest"],
          "final schema differs from the golden fingerprint")
    if not workload.from_odl:
        problems = workspace.schema.index.adjacency.check_integrity()
        _gate(not problems, f"columnar integrity: {problems[:3]}")
    else:
        # The last save closes the loop.  Loading the saved file parses
        # its ODL and replays its script, so it reloads this session
        # when both are exactly this run's inputs.
        saved = json.loads(save_path.read_text())
        _gate(saved["shrink_wrap_odl"] == inputs["odl"]
              and [op["text"] for op in saved["operations"]]
              == inputs["ops"][: COLD_OPS + workload.stream],
              "the saved session does not replay this run's inputs")


def _branch(workspace, text: str):
    """A what-if fork plus its first edit."""
    from repro.ops import language

    fork = workspace.fork()
    fork.apply(language.parse_operation(text))
    return fork
