#!/usr/bin/env python3
"""Builds the e2ebench binary from source and runs one workload.

Usage, from the repository root:

    python3 e2ebench/run.py --workload zoo-smoke --seed 1 --seconds 15 --trace 0

The binary's standard output passes through unchanged; its last line is
the JSON result. Build output goes to standard error. The build honours
CARGO_TARGET_DIR and otherwise uses e2ebench/target.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


_current = None
_signal = None


def _run(cmd, **kwargs) -> int:
    """Runs `cmd` to completion; a signal to this script stops it too."""
    global _current
    _current = subprocess.Popen(cmd, **kwargs)
    code = _current.wait()
    _current = None
    return code


def _stop(signum, _frame):
    # Only forward the signal here: the main thread is blocked in wait()
    # and reaps the child once it has exited.
    global _signal
    _signal = signum
    if _current is not None:
        _current.terminate()


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    code = _run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
    )
    if _signal is None and code != 0:
        print("e2ebench: build failed", file=sys.stderr)
    if _signal is None and code == 0:
        target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
        binary = os.path.join(os.path.abspath(target), "release", "e2ebench")
        code = _run([binary] + sys.argv[1:])
    if _signal is not None:
        return 128 + _signal
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
