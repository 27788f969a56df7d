#!/usr/bin/env python3
"""perfbench: the repo benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Builds the incam library and the C++ harness (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under
the checkout, runs one workload in a child process, checks its metrics
against BENCHMARK.json and prints the result as the last line of
standard output:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload
traced and reports the per-layer metrics (layers a workload does not
exercise read 0). fleet_des also runs the paced-DES retry probe in its
own child process: while the engine aborts on it, its frames count as
failed fleet_des operations. `--workload all` runs every workload,
untraced then traced, and ends with their combined result.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 60


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the harness; return its path."""
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if proc.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                if not (build_dir / "Makefile").exists():
                    # A failed first configure must not leave a cache that
                    # skips configuring next time.
                    (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"build failed (log: {log_path})")
    exe = build_dir / "perfbench"
    if not exe.exists():
        fail(f"build produced no harness at {exe}")
    return exe


def run_child(cmd, timeout, stderr=None):
    """Run @cmd; return (returncode, stdout lines, stderr text)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd[1:])} exceeded {timeout} s")
    return proc.returncode, proc.stdout.splitlines(), proc.stderr or ""


def probe_paced_des(exe):
    """The paced-DES retry reproduction: (frames, failed frames)."""
    code, lines, err = run_child([str(exe), "--probe", "paced-des-retry"],
                                 PROBE_TIMEOUT_S, stderr=subprocess.PIPE)
    docs = [json.loads(l) for l in lines if l.startswith("{")]
    if not docs or "frames" not in docs[0]:
        fail("paced-DES probe printed no frame count")
    frames = int(docs[0]["frames"])
    if code == 0 and "link_drops" in docs[-1]:
        failed = int(docs[-1]["link_drops"])
        print(f"paced-DES retry probe: completed, {failed} of {frames} "
              "frames dropped by the link")
    else:
        failed = frames
        why = " ".join(l.strip() for l in err.splitlines()[:2])
        print(f"paced-DES retry probe: engine aborted (exit {code}): "
              f"{why}; all {frames} frames counted failed")
    return frames, failed


def run_workload(exe, spec, workload, seed, seconds, trace):
    """Run one workload invocation and return its checked result dict."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    probe = probe_paced_des(exe) if workload == "fleet_des" else (0, 0)
    code, lines, _ = run_child(cmd, RUN_TIMEOUT_S)
    if code != 0 or not lines:
        fail(f"workload {workload} exited with {code}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"workload {workload} printed no result line")

    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            fail(f"{workload} reported undeclared metric {name} [{m['unit']}]")
    metrics = {}
    for name, unit in units.items():
        if name in got:
            metrics[name] = got[name]
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}  # layer not exercised
        else:
            fail(f"{workload} did not report {name}")
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]) + probe[0],
            "failed": int(result["failed"]) + probe[1],
            "metrics": metrics}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    exe = build()
    if args.workload != "all":
        result = run_workload(exe, spec, args.workload, args.seed,
                              args.seconds, args.trace == 1)
        print(json.dumps(result))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (False, True):
            print(f"== {name} ({'traced' if trace else 'end to end'}) ==")
            r = run_workload(exe, spec, name, args.seed, args.seconds, trace)
            print(json.dumps(r))
            combined["correct"] = combined["correct"] and r["correct"]
            if not trace:
                combined["attempted"] += r["attempted"]
                combined["failed"] += r["failed"]
            for metric, m in r["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
