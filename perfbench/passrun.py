"""One benchmark pass in a fresh process.

Usage: ``python3 perfbench/passrun.py SPEC_JSON`` where the spec names the
checkout root, workload, seed, whether to trace, the prepared inputs, and
where to write outputs and the result.  ``run.py`` starts this process once
per pass, so that ``import agesim`` is part of the measured set-up and
peak memory belongs to the pass alone.

The result file holds the monotonic time at which set-up ended (the
parent subtracts the time it started the process), the pass's host time
and each operation's, raw and scaled to the reference host speed (see
``hostspeed.py``), peak resident memory, the output digest and the
check's findings; a traced pass adds the per-layer metrics.  A
``setup_only`` spec stops after set-up: the benchmark samples set-up
time more often than it runs passes.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def tree_digest(root: Path) -> tuple[str, int]:
    """SHA-256 over every file under ``root`` (relative path, size, bytes),
    in sorted path order, and the total bytes."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest(), total


def peak_rss_mb() -> float:
    """High-water resident memory of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(root))
    from perfbench.hostspeed import SpeedClock

    # The traced pass is not sampled: the signal handler would land inside spans.
    clock = SpeedClock()
    if not spec["trace"]:
        clock.start()
    setup_mark = clock.mark()

    import agesim

    source = Path(agesim.__file__).resolve().parent
    if source != (root / "src" / "agesim").resolve():
        raise SystemExit(f"imported agesim from {source}, not from the checkout")

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    inputs = workload.setup(spec["seed"], spec["prepared"])
    setup_end = time.monotonic()
    setup_raw, setup_scaled = clock.since(setup_mark)
    setup = {
        "setup_end": setup_end,
        "setup_handler_s": clock.spent,
        "setup_factor": setup_scaled / setup_raw,
    }
    if spec["setup_only"]:
        clock.stop()
        return setup

    tracer = None
    if spec["trace"]:
        from perfbench.tracing import Tracer

        tracer = Tracer(pass_id=spec["pass_id"])
        tracer.install()

    out_dir = Path(spec["out_dir"])
    pass_mark = clock.mark()
    output = workload.run(inputs, out_dir, clock)
    wall_raw, wall_scaled = clock.since(pass_mark)
    clock.stop()
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    outcome = workload.check(inputs, output, out_dir)
    sha256, size = tree_digest(out_dir)
    per_layer = None
    if tracer is not None:
        per_layer = tracer.layer_metrics(wall_raw, size if workload.op_name == "scenario" else 0)
        if workload.op_name == "scenario" and per_layer["workload.results"] != outcome.items:
            outcome.fail_all(
                f"sum(report.totals) = {outcome.items} but run_stream returned"
                f" {per_layer['workload.results']} workloads"
            )
        expected = getattr(workload, "predicates", None)
        if expected is not None and tuple(tracer.failed_predicates) != expected:
            outcome.fail_all(
                f"failure predicates {tracer.failed_predicates}, expected {list(expected)}"
            )
        tracer.save(Path(spec["trace_path"]))
    return {
        **setup,
        "wall_raw_s": wall_raw,
        "wall_s": wall_scaled,
        "op_raw_s": [raw for raw, _scaled in clock.ops],
        "op_s": [scaled for _raw, scaled in clock.ops],
        "speed_samples": len(clock.samples),
        "peak_rss_mb": rss,
        "ops": outcome.ops,
        "failed_ops": sorted(outcome.failed_ops),
        "problems": outcome.problems,
        "items": outcome.items,
        "hours": outcome.hours,
        "sha256": sha256,
        "bytes": size,
        "per_layer": per_layer,
    }


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
