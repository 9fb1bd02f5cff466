#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the load generator from source (CMake, Release) into the build
directory, runs one workload, and passes its report through. The last
stdout line is the result JSON:

    python3 e2ebench/run.py --workload cnn-sweep --seed 1 --seconds 10 --trace 0

Run it from the repository root. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics (see e2ebench/README.md).

If the load generator dies (a signal, an abort, a timeout), the run is
still reported: every request it started and did not complete counts as
failed, read from the scoreboard file the generator keeps mapped, and
the run is marked incorrect. It is never retried.
"""
import argparse
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("llm-prefill", "cnn-sweep", "cache-replay")
GENERATOR_TIMEOUT_S = 170
SCOREBOARD_MAGIC = 0x65326573636F7265
HEADER_WORDS = 8
SLOT_WORDS = 8


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build; returns the generator path or None."""
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    exe = build_dir / "e2e_loadgen"
    return exe if exe.exists() else None


def read_scoreboard(path):
    """(started, completed_ok) summed over all client slots."""
    try:
        data = path.read_bytes()
    except OSError:
        return 0, 0
    if len(data) < HEADER_WORDS * 8:
        return 0, 0
    magic, slots = struct.unpack_from("<QQ", data, 0)
    if magic != SCOREBOARD_MAGIC:
        return 0, 0
    started = ok = 0
    for s in range(slots):
        off = (HEADER_WORDS + SLOT_WORDS * s) * 8
        if off + 24 > len(data):
            break
        st, good, _bad = struct.unpack_from("<QQQ", data, off)
        started += st
        ok += good
    return started, ok


def declared_metrics(trace):
    """Metric names and units the benchmark declares for this mode."""
    try:
        spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec.get(key, [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build_dir = target / "e2ebench"
    exe = build(build_dir)
    if exe is None:
        log("build failed")
        return 1

    state = build_dir / "state"
    state.mkdir(parents=True, exist_ok=True)
    board = state / f"scoreboard-{args.workload}.bin"
    if board.exists():
        board.unlink()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", str(state), "--scoreboard", str(board)]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=GENERATOR_TIMEOUT_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        timed_out = True

    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is not None:
        sys.stdout.write(out)
        sys.stdout.flush()
        return 0

    # The generator died: report the run with its unfinished requests
    # counted as failed.
    started, ok = read_scoreboard(board)
    for line in lines:
        print(line)
    why = "timed out" if timed_out else f"exit status {proc.returncode}"
    print(f"load generator died ({why}) after {started} started requests, "
          f"{ok} completed successfully")
    attempted = max(started, 1)
    metrics = {name: {"value": 0.0, "unit": unit}
               for name, unit in declared_metrics(args.trace).items()}
    print(json.dumps({"correct": False, "attempted": attempted,
                      "failed": attempted - min(ok, attempted),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
