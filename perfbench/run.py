#!/usr/bin/env python3
"""Front-door ingest and query benchmark for ModelarDB++ (see README.md).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload <ingest_ep|query_ep|online_eh> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-check

A run builds the engine and the benchmark from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload and prints, as the
last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
line before it is the machine and build fingerprint; results whose
fingerprints differ must not be compared.

--self-check runs the benchmark's own checks: the oracle rejects perturbed
answers, a tiny run of every workload answers every query correctly on two
seeds, and the benchmark sources pass modelarlint with an empty baseline.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
WORKLOADS = ("ingest_ep", "query_ep", "online_eh")
SELF_CHECK_SEEDS = (1, 2)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(targets):
    """Configures (once) and builds `targets`; raises on failure."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), *generator],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(
        ["cmake", "--build", str(out), "--parallel", jobs, "--target", *targets],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def run_binary(binary, args):
    """Runs `binary` to completion (or kills it at the timeout)."""
    with subprocess.Popen([str(binary), *args], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{binary.name} timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{binary.name} exited with {proc.returncode}")
    return stdout


def parse_output(stdout):
    fingerprint = result = None
    lines = []
    for line in stdout.splitlines():
        if line.startswith("FINGERPRINT "):
            fingerprint = json.loads(line[len("FINGERPRINT "):])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            lines.append(line)
    if fingerprint is None or result is None:
        raise RuntimeError("benchmark printed no result")
    return lines, fingerprint, result


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def filesystem_of(path):
    """Type of the filesystem holding `path` (longest mount-point match)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = str(path) == mount or str(path).startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(out, workload, seed, seconds, trace, size=None):
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0",
            "--work-dir", str(work)]
    if size is not None:
        args += ["--size", str(size)]
    lines, fingerprint, result = parse_output(run_binary(out / "perfbench", args))
    fingerprint.update({
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu_model": cpu_model(),
        "storage_filesystem": filesystem_of(work.resolve()),
    })
    return lines, fingerprint, result


def benchmark(args):
    out = build(["perfbench"])
    lines, fingerprint, result = run_workload(
        out, args.workload, args.seed, args.seconds, args.trace == 1)
    names = expected_metrics(args.trace == 1)
    if sorted(names) != sorted(result["metrics"]):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing "
                           f"{missing}, unexpected {extra}")
    for line in lines:
        print(line)
    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in names},
    }))


def stage_lint_tree(out):
    """A tree modelarlint can scan: the engine's src/ and tests/ plus the
    benchmark sources under tools/perfbench/, the strictest scope."""
    tree = out / "lint_tree"
    shutil.rmtree(tree, ignore_errors=True)
    (tree / "tools" / "perfbench").mkdir(parents=True)
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tree / name)
    for source in sorted(HERE.iterdir()):
        if source.suffix in (".cc", ".h"):
            shutil.copy(source, tree / "tools" / "perfbench" / source.name)
    (tree / "empty_baseline.txt").write_text("", encoding="utf-8")
    return tree


def self_check():
    out = build(["perfbench", "perfbench_selftest", "perfbench_modelarlint"])
    ok = True

    log("oracle self-test")
    try:
        run_binary(out / "perfbench_selftest", [])
    except RuntimeError as error:
        log(f"FAIL: {error}")
        ok = False

    for workload in WORKLOADS:
        for seed in SELF_CHECK_SEEDS:
            try:
                _, _, result = run_workload(out, workload, seed, 2, False,
                                            size=0.05)
                good = result["failed"] == 0 and result["attempted"] > 0
                log(f"{'ok  ' if good else 'FAIL'} tiny {workload} seed {seed}:"
                    f" {result['failed']} of {result['attempted']} failed")
            except RuntimeError as error:
                log(f"FAIL tiny {workload} seed {seed}: {error}")
                good = False
            ok = ok and good

    tree = stage_lint_tree(out)
    lint = subprocess.run(
        [str(out / "perfbench_modelarlint"), "--root", str(tree),
         "--baseline", str(tree / "empty_baseline.txt")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    shutil.rmtree(tree, ignore_errors=True)
    if lint.returncode != 0:
        log("FAIL modelarlint:\n" + lint.stdout)
        ok = False
    else:
        log("ok   modelarlint: benchmark sources clean, empty baseline")

    for source in sorted(HERE.iterdir()):
        if source.suffix in (".cc", ".h") and "modelarlint:allow" in \
                source.read_text(encoding="utf-8"):
            log(f"FAIL {source.name} carries a modelarlint suppression")
            ok = False

    log("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        benchmark(args)
        return 0
    except (RuntimeError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as error:
        log(f"error: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
