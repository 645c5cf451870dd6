"""Seeded inputs, generated in a separate process and cached.

The measuring process never generates operations: generating a stream
applies it to a scratch fork, and doing that on the measured schema
would warm the very caches the run is meant to find cold.  Instead
``python -m perfbench.inputs`` builds its own copy of the schema,
generates the scripts, and writes

* the shrink wrap schema as extended ODL,
* the cold script (always the same) followed by the seeded stream, as
  operation-language text, one operation per line,
* digests: of the schema, of the ODL and script files, and of the
  schema both scripts lead to (the *golden* fingerprint, computed by
  applying them one operation at a time with propagation).

Files live under ``.bench_build/perfbench/inputs`` keyed by workload
shape, stream seed and a digest of the program source and of the
benchmark's own code, so a change anywhere in ``src/repro`` (the
generator included) or in ``perfbench`` never serves stale inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from perfbench.workloads import (
    COLD_OPS, COLD_SEED, STREAMS, WORKLOADS, Workload, schema_spec,
)

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
BENCH = ROOT / "perfbench"
CACHE = ROOT / ".bench_build" / "perfbench"


def source_digest() -> str:
    """sha256 over every program and benchmark source file, path and
    content: the inputs, golden fingerprints and recorded counts of a
    cache entry hold only for the code that made them."""
    digest = hashlib.sha256()
    files = [*sorted((SOURCE / "repro").rglob("*.py")),
             *sorted(BENCH.glob("*.py"))]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def schema_digest(schema) -> str:
    """sha256 of the schema's canonical, order-independent fingerprint."""
    from repro.model.fingerprint import schema_fingerprint

    return hashlib.sha256(schema_fingerprint(schema).encode()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def input_paths(workload: Workload, stream_seed: int, code: str) -> dict[str, Path]:
    shape = text_digest(json.dumps(asdict(workload), sort_keys=True))[:8]
    stem = f"{workload.name}-{shape}-s{stream_seed}-{code[:16]}"
    base = CACHE / "inputs"
    return {
        "meta": base / f"{stem}.json",
        "ops": base / f"{stem}.ops",
        "odl": base / f"{stem}.odl",
    }


def load_inputs(workload: Workload, stream_seed: int, code: str) -> dict:
    """The cached inputs for (workload, stream seed), generating on a miss.

    A miss on a workload of ``WORKLOADS`` generates every stream of
    every such workload, so that only a checkout's first run follows a
    generation; other workloads (the self-test's) generate just the
    entry asked for.  Generation runs in child processes, one at a
    time, that this call waits for; their output goes to stderr so the
    benchmark's stdout stays clean.
    """
    paths = input_paths(workload, stream_seed, code)
    if not paths["meta"].exists():
        wanted = [(workload, stream_seed)]
        if WORKLOADS.get(workload.name) == workload:
            wanted = [(each, seed) for each in WORKLOADS.values()
                      for seed in range(STREAMS)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SOURCE), str(ROOT), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        for each, seed in wanted:
            if input_paths(each, seed, code)["meta"].exists():
                continue
            subprocess.run(
                [sys.executable, "-m", "perfbench.inputs",
                 json.dumps(asdict(each)), str(seed), code],
                cwd=ROOT, env=env, check=True, stdout=sys.stderr,
            )
    meta = json.loads(paths["meta"].read_text())
    meta["ops"] = paths["ops"].read_text().splitlines()
    meta["odl"] = paths["odl"].read_text()
    if (text_digest("\n".join(meta["ops"])) != meta["ops_digest"]
            or text_digest(meta["odl"]) != meta["odl_digest"]):
        raise RuntimeError(f"cached inputs {paths['meta']} are corrupt")
    return meta


def _apply_per_op(schema, operations, reference) -> None:
    """Apply *operations* one at a time with propagation (the reference)."""
    from repro.knowledge.propagation import expand
    from repro.ops.base import OperationContext

    context = OperationContext(reference=reference)
    for operation in operations:
        for step in expand(schema, operation, context):
            step.apply(schema, context)


def generate(workload: Workload, stream_seed: int, code: str) -> None:
    """Generate and write one workload's inputs (run in a child process).

    The cold script is generated against the shrink wrap schema, and the
    seeded stream against the schema the cold script leads to: every
    opening runs the cold script, and the session that goes on runs
    the stream after it.
    """
    from repro.odl.printer import print_schema
    from repro.workload.generator import generate_operations, generate_schema

    paths = input_paths(workload, stream_seed, code)
    paths["meta"].parent.mkdir(parents=True, exist_ok=True)
    schema = generate_schema(schema_spec(workload.types))
    odl = print_schema(schema)
    meta = {"schema_digest": schema_digest(schema), "odl_digest": text_digest(odl)}
    cold = generate_operations(schema, COLD_OPS, seed=COLD_SEED)
    final = schema.fork("golden")
    _apply_per_op(final, cold, schema)
    # +1: the operation the last branch applies.
    stream = generate_operations(final, workload.stream + 1, seed=stream_seed)
    text = "\n".join(operation.to_text() for operation in cold + stream)
    meta["ops_digest"] = text_digest(text)

    _apply_per_op(final, stream[:-1], schema)
    meta["golden_digest"] = schema_digest(final)
    final.release_cow()

    # The metadata file is written last and renamed into place: its
    # presence means every other file of the entry is complete.
    paths["odl"].write_text(odl)
    paths["ops"].write_text(text + "\n")
    partial = paths["meta"].with_suffix(".partial")
    partial.write_text(json.dumps(meta, indent=1) + "\n")
    partial.replace(paths["meta"])


if __name__ == "__main__":
    fields, seed, digest = sys.argv[1:4]
    generate(Workload(**json.loads(fields)), int(seed), digest)
