#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload <fleet_12x24|storage_8x15|tenants_paper> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`); build output goes to standard error. Scratch files
(checkpoint lineages, Chrome traces) go to `.bench_out`. The last line of
standard output is the result object; see `src/main.rs` for its fields.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def source_revision():
    """The git revision when the checkout is a repository, otherwise a
    digest of the sources the benchmark builds against."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    files = sorted(ROOT.glob("crates/*/Cargo.toml")) + sorted(ROOT.glob("crates/**/*.rs"))
    files += [ROOT / "Cargo.toml", ROOT / "Cargo.lock"] + sorted(HERE.glob("src/*.rs"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_REVISION"] = source_revision()
    run = subprocess.run(
        [str(target / "release" / "idc-perfbench"), *sys.argv[1:], "--out-dir", ".bench_out"],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
