#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload analytics|operational|htap \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the asterix-lite library and the
benchmark program from source into $CARGO_TARGET_DIR (default
.bench_build), runs the tests of the benchmark's helpers, runs one
workload, and prints every metric by name with its unit, a host/build
fingerprint line, and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.
Exits non-zero on a build failure, a failed operation or a wrong answer.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Seeds are offset by this to give each workload seed its reserved partner
# for confirming a claim on data not used while the change was written.
CONFIRM_SEED_OFFSET = 1_000_003


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(d if os.path.isabs(d) else os.path.join(ROOT, d), "perfbench")


def build(bdir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no asterix-lite sources next to perfbench/ (expected src/)")
        return False
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 2)
    return subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def cmake_cache(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_revision():
    """Git revision and dirty flag, or a digest of the sources outside git."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout
        return {"git_revision": rev, "dirty": bool(dirty.strip())}
    except (OSError, subprocess.CalledProcessError):
        h = hashlib.sha256()
        for top in ("src", "perfbench"):
            for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
                dirnames.sort()
                for name in sorted(files):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
        return {"git_revision": None, "dirty": None, "source_sha256": h.hexdigest()}


def fingerprint(bdir, args):
    cxx = cmake_cache(bdir, "CMAKE_CXX_COMPILER")
    version = ""
    if cxx:
        out = subprocess.run([cxx, "--version"], capture_output=True, text=True)
        version = out.stdout.splitlines()[0] if out.stdout else ""
    fp = {
        "nproc": os.cpu_count(),
        "compiler": version or cxx,
        "build_type": cmake_cache(bdir, "CMAKE_BUILD_TYPE"),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": args.workload,
        "seed": args.seed,
        "confirm_seed": args.seed + CONFIRM_SEED_OFFSET,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    fp.update(source_revision())
    return fp


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["analytics", "operational", "htap"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        log("perfbench: build failed")
        return 2
    test = subprocess.run([os.path.join(bdir, "perfbench_helpers_test")],
                          stdout=sys.stderr, cwd=bdir)
    if test.returncode != 0:
        log("perfbench: helper tests failed")
        return 1

    workdir = os.path.join(bdir, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    trace_out = os.path.join(bdir, "traces", f"{args.workload}.json")
    if args.trace:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: the run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: no result printed; exit code", proc.returncode)
        return 1

    want = expected_metrics(args.trace)
    got = out["metrics"]
    problems = [f"missing {n}" for n in want if n not in got]
    problems += [f"unlisted {n}" for n in got if n not in want]
    problems += [f"{n}: unit {got[n]['unit']} vs {want[n]}"
                 for n in want if n in got and got[n]["unit"] != want[n]]
    problems += [f"{n} is not a number" for n in got
                 if not isinstance(got[n]["value"], (int, float))]

    print("fingerprint " + json.dumps(fingerprint(bdir, args), sort_keys=True))
    for section in ("metrics", "details"):
        for name, m in out[section].items():
            print(f"{section[:-1] if section == 'metrics' else 'detail'} "
                  f"{name} {m['value']} {m['unit']}")
    if args.trace:
        print("trace " + os.path.relpath(trace_out, ROOT))
    if out.get("first_error"):
        print("first_error " + out["first_error"])
    for p in problems:
        print("contract " + p)
    ok = out["correct"] and out["failed"] == 0 and proc.returncode == 0 and not problems
    print(json.dumps({"correct": bool(out["correct"]) and not problems,
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": got}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
