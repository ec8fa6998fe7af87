#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. It builds perfbench/main.exe,
perfbench/calib.exe and bin/cusand.exe with dune into .bench_build (release profile, no shared
dune cache, so nothing is written outside the tree), then runs one
workload. The last line of standard output is the result object; build
output and progress go to standard error. Without the repository's
sources next to perfbench/ the build fails and the script exits 2
without a result.
"""

import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
TARGETS = ["./perfbench/main.exe", "./perfbench/calib.exe", "./bin/cusand.exe"]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release"] + TARGETS
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              stdin=subprocess.DEVNULL, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main(argv):
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the root of the source tree "
              "(no dune-project here)", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    cusand = os.path.join(BUILD_DIR, "default", "bin", "cusand.exe")
    # A terminating signal unwinds through the clean-up below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The run gets its own process group, so a daemon orphaned by a
    # crash is still found and stopped below.
    proc = subprocess.Popen([exe] + argv + ["--cusand", cusand],
                            stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait()
    except BaseException:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        raise
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        stop_group(proc.pid)
    return code


def stop_group(pgid):
    """Kill whatever is left in the run's process group and wait until
    the group is empty."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
