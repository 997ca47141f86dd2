#!/usr/bin/env python3
"""Build and run the NeuSpin benchmark (see README.md in this directory).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve-mlp --seed 1 --seconds 25 --trace 0

Builds the harness (perfbench.cpp) and the library from the sources of the
checkout in Release mode under .bench_build/, prints the build and host
record, runs one workload and prints, as the last line, one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics; a traced run also
writes a Chrome trace and validates it with tools/check_trace.py.

Exits non-zero, without a result, when the checkout holds no sources to
build; exits non-zero with correct=false when an output check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170

# Spans every traced run must contain, besides one per network layer.
REQUIRED_SPANS = [
    "serve.mlp.request", "serve.mlp.submit", "serve.cascade.request",
    "serve.cascade.submit", "core.fused_forward", "core.behavioral_forward",
    "core.tiled_forward", "core.evaluate", "nn.mlp.forward", "nn.cnn.forward",
    "train.round", "train.step", "shard:fwd", "shard:bwd", "shard:reduce",
]


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the harness; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no sources to build: {ROOT} has no CMakeLists.txt and src/")
    BUILD.mkdir(parents=True, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", "4"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode:
                tail = log.read_text().splitlines()[-30:]
                die("build failed:\n" + "\n".join(tail))
    return BUILD / "perfbench"


def source_digest():
    """SHA-256 over the library and harness sources: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
                   if p.is_file())
    files += [ROOT / "CMakeLists.txt"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(build_line):
    record = json.loads(build_line) if build_line else {}
    try:
        record["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        record["git_sha"] = "unavailable (not a git checkout)"
    record["source_sha256"] = source_digest()
    record["cpu_model"] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    record["cpus"] = os.cpu_count()
    return record


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_trace(path, metrics):
    layer_spans = sorted(name[:-len("_us")] for name in metrics
                         if name.startswith(("nn.mlp.", "nn.cnn.")) and name.endswith("_us"))
    command = [sys.executable, str(ROOT / "tools" / "check_trace.py"), str(path),
               "--require", *REQUIRED_SPANS, *layer_spans]
    return subprocess.run(command).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    trace_path = BUILD / f"trace-{args.workload}-{args.seed}.json"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-out", str(trace_path)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"the harness did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    build_line = next((l[len("build "):] for l in lines if l.startswith("build ")), "")
    if not lines or not lines[-1].startswith("{"):
        die(f"the harness exited with {run.returncode} and printed no result")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if not line.startswith("build "):
            print(line)
    print("env " + json.dumps(host_record(build_line), sort_keys=True))

    problems = []
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    if args.trace and not check_trace(trace_path, result["metrics"]):
        problems.append("the Chrome trace failed tools/check_trace.py")
    if run.returncode != 0 and result["correct"]:
        problems.append(f"the harness exited with {run.returncode}")
    for problem in problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    if problems:
        result["correct"] = False
        result["failed"] += len(problems)
        result["attempted"] += len(problems)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
