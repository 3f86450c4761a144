#!/usr/bin/env python3
"""Builds and runs one perfbench workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark (perfbench/) and
the fleet worker binary (peb_worker, from the workspace) in release mode
into $CARGO_TARGET_DIR (default perfbench/target), then runs the
workload in a fresh process. Inherited PEB_* variables are removed so
every run measures the default configuration; a traced run
(--trace 1) sets PEB_TRACE=summary. The last line of standard output is
the result JSON.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(bench, "target")
    target = os.path.abspath(target)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PEB_")}
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "peb-fleet", "--bin", "peb_worker"],
    ]
    for cmd in builds:
        # Build output goes to stderr so standard output stays the report.
        if subprocess.call(cmd, env=env, stdout=sys.stderr) != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))

    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        env["PEB_TRACE"] = "summary"
    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe] + args + ["--out-dir", os.path.join(target, "perfbench-out"), "--rev", rev]
    sys.exit(subprocess.call(cmd, env=env))


if __name__ == "__main__":
    main()
