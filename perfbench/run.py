#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is a Cargo package of
its own (perfbench/Cargo.toml) that builds against the repository's
crates by path; it is built in release mode, offline, into
$CARGO_TARGET_DIR (default: .bench_build in the checkout). Build output
goes to standard error, so the benchmark's last line of standard output
stays its JSON result. A failed build, a failed run or a run that
overstays its limit exits non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

# one run measures --seconds plus set-up and checks; well inside this
RUN_TIMEOUT_S = 170


def main():
    root = Path(__file__).resolve().parent.parent
    manifest = root / "perfbench" / "Cargo.toml"
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(root / ".bench_build")))
    if not target.is_absolute():
        target = root / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(manifest)],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 1
    exe = target / "release" / "perfbench"
    # a terminated wrapper must not leave the benchmark running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([str(exe), *sys.argv[1:]], cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
