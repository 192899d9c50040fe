#!/usr/bin/env python3
"""Build and run the dbdedup benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload wiki-ingest --seed 1 --seconds 10 --trace 0

Builds the benchmark package (perfbench/Cargo.toml, release profile) into
$CARGO_TARGET_DIR, or perfbench/target when that is unset, then runs it with
the same arguments. Every file the run writes stays under perfbench/work:
engine stores, the temporary directories of the replica set (TMPDIR points
there) and the traced run's span file. The last line of standard output is
the benchmark's JSON result; the exit code is non-zero when the build fails,
the run fails, or any output was wrong.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Runs cmd to completion; on timeout kills it and waits for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    # Cargo's own output goes to stderr so the result stays the last line
    # of stdout.
    code = run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return code or 1
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")

    work = os.path.join(HERE, "work")
    tmp = os.path.join(work, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        return run([binary, *sys.argv[1:], "--work", work], RUN_TIMEOUT_S, env=env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
