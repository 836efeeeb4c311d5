"""agesim benchmark: one workload, one seed, a fixed measuring time.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload matrix --seed 0 --seconds 30 --trace 0

Workloads: ``matrix``, ``ageing-failure`` and ``analyze`` (see
``perfbench/workloads.py``).  Every pass runs in a fresh process, one at a
time.  With ``--trace 0`` passes repeat until ``--seconds`` have gone by,
and the end-to-end metrics are medians over those untraced passes.  With
``--trace 1`` the run makes one untraced pass and then one traced pass,
and reports the per-layer metrics of the traced pass plus the tracing
overhead (traced minus untraced host time).

Every pass's output is checked: scenario reports and bundles, or the
analyze verdicts against the drift the generator planted; identical
bytes in every pass of the run, traced or not; and, for the pinned seed
in ``perfbench/expected.json``, the recorded SHA-256 of the output.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
with the machine's facts goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"

#: Seconds a whole run may take, passes included.
RUN_DEADLINE_S = 170.0

#: Set-up samples a ``--trace 0`` run aims for: one per pass, plus
#: set-up-only processes after the first passes.
SETUP_SAMPLES = 9

#: End-to-end metrics and their units; they come from untraced passes only.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_max": "s",
    "items_per_s": "1/s",
    "cloud_hours_per_s": "h/s",
    "peak_rss_mb": "MB",
}


def machine_facts(seed: int) -> dict:
    """What a reader needs to compare numbers taken on a shared machine."""
    import numpy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "agesim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_process(spec: dict, deadline: float) -> dict:
    """Run ``passrun.py`` on ``spec`` in a fresh interpreter and remove its
    output afterwards.  A crash or a timeout comes back as
    ``{"crashed": reason}``.  ``setup_s`` and ``setup_raw_s`` run from
    starting the interpreter to the end of set-up, on the system-wide
    monotonic clock, without the host-speed sampler's own time."""
    out_dir = Path(spec["out_dir"])
    result_path = Path(spec["result_path"])
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "passrun.py"), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    what = "set-up" if spec["setup_only"] else f"pass {spec['pass_id']}"
    try:
        try:
            _, stderr = proc.communicate(timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"crashed": f"{what} exceeded the run's deadline", "traced": spec["trace"]}
        if proc.returncode != 0 or not result_path.is_file():
            tail = stderr.strip().splitlines()[-1:] or ["no message"]
            return {"crashed": f"{what} exited {proc.returncode}: {tail[0]}",
                    "traced": spec["trace"]}
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path.unlink(missing_ok=True)
    result["setup_raw_s"] = result["setup_end"] - started - result["setup_handler_s"]
    result["setup_s"] = result["setup_raw_s"] * result["setup_factor"]
    result["traced"] = spec["trace"]
    return result


def run_pass(workload: str, seed: int, pass_id: int, traced: bool, prepared: dict,
             work: Path, trace_path: Path, deadline: float, setup_only: bool = False) -> dict:
    """One pass of ``workload`` (or only its set-up) in a fresh process."""
    name = f"setup-{pass_id}" if setup_only else f"pass-{pass_id}"
    spec = {
        "root": str(ROOT),
        "workload": workload,
        "seed": seed,
        "trace": traced,
        "setup_only": setup_only,
        "pass_id": pass_id,
        "prepared": prepared,
        "out_dir": str(work / name),
        "result_path": str(work / f"{name}.json"),
        "trace_path": str(trace_path),
    }
    return run_process(spec, deadline)


def pass_metrics(result: dict, scaled: bool = True) -> dict:
    """End-to-end metrics of one untraced pass, ``setup_s`` excepted."""
    ops = result["op_s" if scaled else "op_raw_s"]
    wall = result["wall_s" if scaled else "wall_raw_s"]
    return {
        "wall_s": wall,
        "op_s_p50": statistics.median(ops),
        "op_s_max": max(ops),
        "items_per_s": result["items"] / wall,
        "cloud_hours_per_s": result["hours"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def end_to_end(passes: list[dict], setups: list[dict], scaled: bool = True) -> dict:
    """Medians over the untraced passes, and over every set-up sample."""
    per_pass = [pass_metrics(r, scaled) for r in passes]
    values = {"setup_s": statistics.median(
        s["setup_s" if scaled else "setup_raw_s"] for s in setups
    )}
    for name in per_pass[0]:
        values[name] = statistics.median(m[name] for m in per_pass)
    return {name: values[name] for name in END_TO_END_UNITS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "agesim" / "__init__.py").is_file():
        print(f"error: no agesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench.tracing import PER_LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    began = time.monotonic()
    deadline = began + RUN_DEADLINE_S
    facts = machine_facts(args.seed)
    print(f"perfbench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(facts))

    work = STATE / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (STATE / "traces").mkdir(parents=True, exist_ok=True)
    trace_path = STATE / "traces" / f"{workload.name}.npz"
    results: list[dict] = []
    setups: list[dict] = []
    try:
        prepared = workload.prepare(args.seed, work)
        measuring = time.monotonic()
        while True:
            pass_id = len(results)
            traced = bool(args.trace) and pass_id == 1
            result = run_pass(workload.name, args.seed, pass_id, traced, prepared, work,
                              trace_path, deadline)
            results.append(result)
            describe_pass(pass_id, result)
            if "crashed" in result:
                break
            if not traced:
                setups.append(result)
            if args.trace:
                if len(results) == 2:
                    break
                continue
            # Set-up is short and noisy: sample it more often than passes run.
            while len(setups) < SETUP_SAMPLES and len(setups) < 3 * len(results):
                setup = run_pass(workload.name, args.seed, len(setups), False, prepared,
                                 work, trace_path, deadline, setup_only=True)
                if "crashed" in setup:
                    results.append(setup)
                    break
                setups.append(setup)
            if "crashed" in results[-1] or time.monotonic() - measuring >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, problems = judge(workload, args.seed, results)
    untraced = [r for r in results if not r["traced"] and "crashed" not in r]
    raw = {}
    if args.trace:
        traced_passes = [r for r in results if r["traced"] and "crashed" not in r]
        values = dict(traced_passes[0]["per_layer"]) if traced_passes and untraced else {}
        if values:
            untraced_wall = untraced[0]["wall_raw_s"]
            values["trace.untraced_wall_s"] = untraced_wall
            values["trace.overhead_s"] = traced_passes[0]["wall_raw_s"] - untraced_wall
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(untraced, setups) if untraced else {}
        raw = end_to_end(untraced, setups, scaled=False) if untraced else {}
        units = END_TO_END_UNITS
    correct = failed == 0 and not problems and bool(values)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}

    ops = untraced[0]["ops"] if untraced else 0
    describe_metrics(workload, args.trace, metrics, raw, len(untraced), len(setups), ops,
                     attempted, failed)
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"output check: {'passed' if correct else 'FAILED'}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "passes": results,
        "setups": setups,
        "raw_host_time_metrics": raw,
        "problems": problems,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def judge(workload, seed: int, results: list[dict]) -> tuple[int, int, list[str]]:
    """Count operations attempted and failed over every pass of the run.

    An operation fails when it raised, exited non-zero or failed its
    check; every operation of a pass fails when the pass crashed or its
    output bytes differ from the run's first pass or from the pinned digest.
    """
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    pinned = expected["sha256"].get(workload.name) if seed == expected["seed"] else None
    reference = next((r["sha256"] for r in results if "sha256" in r), None)
    ops_per_pass = next((r["ops"] for r in results if "ops" in r), 1)
    attempted = failed = 0
    problems: list[str] = []
    for i, result in enumerate(results):
        if "crashed" in result:
            attempted += ops_per_pass
            failed += ops_per_pass
            problems.append(result["crashed"])
            continue
        attempted += result["ops"]
        bad = set(result["failed_ops"])
        problems += [f"pass {i}: {p}" for p in result["problems"]]
        if result["sha256"] != reference:
            bad = set(range(result["ops"]))
            problems.append(f"pass {i}: output bytes differ from pass 0")
        if pinned is not None and result["sha256"] != pinned:
            bad = set(range(result["ops"]))
            problems.append(f"pass {i}: output sha256 {result['sha256']} != pinned {pinned}")
        failed += len(bad)
    return attempted, failed, problems


def describe_pass(pass_id: int, result: dict) -> None:
    if "crashed" in result:
        print(f"pass {pass_id}: {result['crashed']}")
        return
    kind = "traced" if result["traced"] else "untraced"
    print(
        f"pass {pass_id} ({kind}): wall_s={result['wall_s']:.4f} "
        f"(raw {result['wall_raw_s']:.4f}) setup_s={result['setup_s']:.4f} "
        f"ops={result['ops']} failed={len(result['failed_ops'])} "
        f"sha256={result['sha256'][:16]}"
    )


def describe_metrics(workload, trace: int, metrics: dict, raw: dict, passes: int,
                     setups: int, ops: int, attempted: int, failed: int) -> None:
    if trace:
        print("per-layer metrics (traced pass, raw host time; end-to-end metrics "
              "come only from untraced passes):")
    else:
        print(f"end-to-end metrics (untraced passes only; median of {passes} passes "
              f"and {setups} set-ups; {ops} {workload.op_name}s per pass; times scaled "
              f"to the reference host speed, raw host time in brackets):")
    for name, metric in metrics.items():
        bracket = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{bracket}")
    if not trace:
        value = {name: m["value"] for name, m in metrics.items()}
        if workload.op_name == "scenario":
            aliases = {
                "scenario_s_p50": (value["op_s_p50"], "s"),
                "scenario_s_max": (value["op_s_max"], "s"),
                "workloads_per_s": (value["items_per_s"], "1/s"),
                "sim_hours_per_s": (value["cloud_hours_per_s"], "h/s"),
            }
        else:
            aliases = {"rows_per_s": (value["items_per_s"], "1/s")}
        for name, (v, unit) in aliases.items():
            print(f"  {name} = {v:.6g} {unit}")
    ratio = failed / attempted if attempted else 1.0
    print(f"  failed_ops_ratio = {ratio:.6g} fraction ({failed} of {attempted} operations)")


if __name__ == "__main__":
    sys.exit(main())
