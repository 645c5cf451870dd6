"""Run one workload of the designer benchmark and print its metrics.

    python3 perfbench/run.py --workload designer_5k --seed 1 \\
        --seconds 40 --trace 0

Run from the repository root.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics from a traced session.  The line
before it carries the run's metadata (python, nproc, commit, seed,
input digests, sample counts, counters).  The exit code is 0 only when
the program accepted every operation and every correctness gate passed;
otherwise the result is still printed, with ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap():
        return 2

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    meta, result = measure(WORKLOADS[args.workload], args.seed, args.trace)
    meta.update(seconds=args.seconds, commit=_commit())
    print(json.dumps({"perfbench": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def bootstrap() -> bool:
    """Make the program importable; False when its source is missing.

    Set iteration order feeds operation generation and cascade order,
    so the process re-executes itself once under a fixed hash seed:
    inputs and counts then repeat exactly.
    """
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return False
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def measure(workload, seed: int, trace: int) -> tuple[dict, dict]:
    """Run *workload* once; returns (metadata, result object)."""
    from perfbench.inputs import CACHE, load_inputs, source_digest
    from perfbench.sessions import GateError, Session, run_session, warm_up
    from perfbench.tracing import Tracer
    from perfbench.workloads import STREAMS, schema_spec
    from repro.workload.generator import generate_schema

    code = source_digest()
    stream_seed = seed % STREAMS
    inputs = load_inputs(workload, stream_seed, code)
    meta = {
        "workload": workload.name,
        "seed": seed,
        "stream_seed": stream_seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "source_digest": code,
        "inputs": {key: value for key, value in inputs.items()
                   if key.endswith("_digest")},
    }
    workdir = CACHE / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    sessions = [Session()]
    try:
        reference = None
        if not workload.from_odl:
            reference = generate_schema(schema_spec(workload.types))
        if trace:
            # One opening each, after an untimed one that leaves both
            # sessions the same warm process.
            warm_up(workload, inputs, reference)
            untraced = sessions[0]
            run_session(untraced, workload, inputs, 1, workdir,
                        reference=reference)
            session = Session()
            sessions.append(session)
            tracer = Tracer()
            with tracer:
                run_session(session, workload, inputs, 1, workdir,
                            tracer=tracer, reference=reference)
            if session.counts != untraced.counts:
                raise GateError("traced and untraced sessions disagree on "
                                f"counters: {session.counts} != "
                                f"{untraced.counts}")
            metrics = per_layer(session, untraced, tracer)
        else:
            session = sessions[0]
            run_session(session, workload, inputs, workload.openings,
                        workdir, reference=reference)
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in session.end_to_end(workload).items()
            }
            meta["samples"] = session.sample_counts()
            meta["wall_clock"] = {
                name: value for name, (value, _) in
                session.end_to_end(workload, adjusted=False).items()}
            # Every timed sample as [wall seconds, slowdown], for
            # recomputing any statistic later.
            samples = CACHE / "samples" / f"{workload.name}-{seed}.json"
            samples.parent.mkdir(parents=True, exist_ok=True)
            samples.write_text(json.dumps(
                {"setup": session.setup, "cold": session.cold,
                 **session.samples}) + "\n")
        meta["timed_s"] = session.timed_s
        meta["counts"] = session.counts
        meta["final_digest"] = session.final_digest
        check_counts(workload, stream_seed, code, session.counts)
    except Exception as error:
        # A gate failure is the program's output being wrong; anything
        # else the program raised (a rejected operation among them) is
        # shown with its traceback.  Either way the run is not correct.
        if not isinstance(error, GateError):
            traceback.print_exc(file=sys.stderr)
        print(f"perfbench: {type(error).__name__}: {error}", file=sys.stderr)
        meta["error"] = f"{type(error).__name__}: {error}"
    else:
        result["correct"] = True
        result["metrics"] = metrics
    result["attempted"] = sum(session.attempted for session in sessions)
    result["failed"] = sum(session.failed for session in sessions)
    return meta, result


def per_layer(session, untraced, tracer) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced session."""
    from perfbench.layers import RATIOS

    metrics: dict[str, dict] = {}
    for layer, values in tracer.summary().items():
        metrics[f"{layer}.calls"] = {"value": values["calls"], "unit": "count"}
        metrics[f"{layer}.ms"] = {"value": values["ms"], "unit": "ms"}
        metrics[f"{layer}.self_ms"] = {"value": values["self_ms"], "unit": "ms"}
    for name, value in session.counts.items():
        metrics[name] = {"value": value, "unit": "count"}
    for name, useful, wasted, _ in RATIOS:
        total = session.counts[useful] + session.counts[wasted]
        ratio = session.counts[useful] / total if total else 0.0
        metrics[name] = {"value": ratio, "unit": "ratio"}
    traced_ms = session.timed_s * 1e3
    untraced_ms = untraced.timed_s * 1e3
    metrics["trace.untraced_ms"] = {"value": untraced_ms, "unit": "ms"}
    metrics["trace.traced_ms"] = {"value": traced_ms, "unit": "ms"}
    # The two sessions run at different host speeds: compare them at
    # reference speed, or the drift between them outweighs the wrappers.
    metrics["trace.overhead_ms"] = {
        "value": (session.adjusted_s - untraced.adjusted_s) * 1e3,
        "unit": "ms"}
    metrics["trace.unwrapped_self_ms"] = {
        "value": traced_ms - tracer.top_level_ms(), "unit": "ms"}
    metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    return metrics


def check_counts(workload, stream_seed: int, code: str, counts: dict) -> None:
    """Counts must repeat exactly across runs of one input on one program.

    The first run of a (workload, stream seed, source) records its
    counts; a later run that disagrees fails as an error, not as noise.
    """
    from perfbench.inputs import CACHE, input_paths
    from perfbench.sessions import GateError

    stem = input_paths(workload, stream_seed, code)["meta"].stem
    path = CACHE / "counts" / f"{stem}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != counts:
            raise GateError(f"counts differ from an earlier run of this seed: "
                            f"{counts} != {recorded}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".partial")
    partial.write_text(json.dumps(counts, sort_keys=True) + "\n")
    partial.replace(path)


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    completed = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True, timeout=30, check=False,
    )
    return completed.stdout.strip() or None


if __name__ == "__main__":
    sys.exit(main())
