#!/usr/bin/env python3
"""Run the benchmark: build it if its sources changed, then exec it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Cargo is only invoked when the sources differ from the last build: the
`langcrux-obs` build script declares `../../.git/HEAD` as a rerun trigger,
and outside a git checkout that missing file makes Cargo rebuild every
crate on every invocation. The build goes to `$CARGO_TARGET_DIR` (default
`perfbench/target`); its output goes to standard error, so standard output
carries only the benchmark's own lines.
"""

import hashlib
import os
import subprocess
import sys

SOURCES = ["Cargo.toml", "crates", "perfbench/Cargo.toml", "perfbench/src"]


def fingerprint():
    digest = hashlib.sha256()
    for top in SOURCES:
        paths = []
        if os.path.isfile(top):
            paths = [top]
        for directory, subdirs, files in os.walk(top):
            subdirs.sort()
            paths.extend(os.path.join(directory, f) for f in sorted(files))
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def main():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target"))
    binary = os.path.join(target, "release", "perfbench")
    stamp = os.path.join(target, "perfbench-sources.sha256")
    wanted = fingerprint()
    try:
        with open(stamp) as f:
            built = f.read().strip()
    except OSError:
        built = None
    if built != wanted or not os.path.exists(binary):
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", "perfbench/Cargo.toml"],
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            sys.exit(build.returncode)
        with open(stamp, "w") as f:
            f.write(wanted + "\n")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
