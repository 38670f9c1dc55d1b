#!/usr/bin/env python3
"""Build and run the MARLin benchmark.

    python3 perfbench/run.py --workload train-pp24 --seed 1 --trace 0
    python3 perfbench/run.py                      # every workload + self-test
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
the library from src/ plus the benchmark driver into .bench_build/
(Release, through perfbench/CMakeLists.txt; the repository's own build
files are not used). Each workload runs in its own process. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are checked
against BENCHMARK.json. With --trace 1 the Chrome trace written by the
run is validated with tools/check_trace_json.py.

Exit status: 0 when every output check passed, 1 when a check failed
or the result is malformed, 2 when the program cannot be built.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["train-pp24", "replay-cn6-per", "serve-cn3"]
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build() -> Path:
    """Configure once, then build incrementally; return the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.stderr.write("run.py: the program's sources (src/) are not "
                         "here; run from the root of a MARLin checkout\n")
        sys.exit(2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w", encoding="utf-8") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                f.flush()
                tail = log.read_text(encoding="utf-8",
                                     errors="replace")[-4000:]
                sys.stderr.write(tail)
                sys.stderr.write(f"run.py: build failed (see {log})\n")
                sys.exit(2)
    return out


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def validate(result: dict, trace: bool) -> str:
    """Empty when the result line matches the contract."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    wanted = spec()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(want):
        return (f"metric names differ from BENCHMARK.json: missing "
                f"{sorted(set(want) - set(got))}, extra "
                f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(
                m.get("value"), (int, float)):
            return f"metric {name} is malformed: {m}"
    return ""


def run_binary(args: list) -> tuple:
    """Run the driver in its own session; return (code, stdout)."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        sys.stderr.write(f"run.py: {' '.join(args)} timed out\n")
        return 1, stdout
    return proc.returncode, stdout


def run_workload(out: Path, workload: str, seed: int, seconds: int,
                 trace: bool) -> tuple:
    """Run one workload; return (exit code, parsed result or None)."""
    outdir = out / "out"
    args = [str(out / "marlin_perfbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--out-dir", str(outdir),
            "--serve-bin", str(out / "marlin_serve")]
    code, stdout = run_binary(args)
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(lines[-1] if lines else "")
        sys.stderr.write(f"run.py: {workload} printed no result line\n")
        return 1, None
    why = validate(result, trace)
    if why:
        sys.stderr.write(f"run.py: {workload}: {why}\n")
        return 1, None
    if trace and code == 0:
        checker = ROOT / "tools" / "check_trace_json.py"
        trace_file = outdir / f"{workload}.trace.json"
        if checker.is_file() and subprocess.run(
                [sys.executable, str(checker), str(trace_file),
                 "--require-cat", "bench"], check=False).returncode != 0:
            sys.stderr.write(f"run.py: {trace_file} is not a valid "
                             "trace\n")
            return 1, None
    if code != 0 or not result["correct"]:
        sys.stderr.write(f"run.py: {workload} failed its output "
                         f"checks (exit {code})\n")
        return code or 1, result
    return 0, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="only show that every check rejects a "
                             "corrupted output")
    args = parser.parse_args()
    out = build()
    seconds = args.seconds or spec()["run_seconds"]

    if args.self_test:
        code, stdout = run_binary([str(out / "marlin_perfbench"),
                                   "--self-test"])
        print(stdout, end="")
        return code

    if args.workload != "all":
        code, result = run_workload(out, args.workload, args.seed,
                                    seconds, bool(args.trace))
        if result is not None:
            print(json.dumps(result))
        return code

    # Every workload in turn, plus the checks' self-test.
    code, stdout = run_binary([str(out / "marlin_perfbench"),
                               "--self-test"])
    print(stdout, end="")
    worst = code
    combined = {"correct": code == 0, "attempted": 0, "failed": 0,
                "metrics": {}}
    for workload in WORKLOADS:
        rc, result = run_workload(out, workload, args.seed, seconds,
                                  bool(args.trace))
        worst = worst or rc
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
