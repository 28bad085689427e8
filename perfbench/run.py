#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <build|cosim|fleet|mission> \
        --seed <n> --seconds <s> --trace <0|1>

The cargo build goes to $CARGO_TARGET_DIR (default `.bench_build`); its
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero, printing no result, when the build or the run
fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def git(*args):
    """Output of one git command in the repository, or None."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """A digest of the sources the benchmark builds."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for tree in (ROOT / "crates", HERE / "src"):
        files += sorted(p for p in tree.rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def source_id():
    """The git commit, marked dirty with a source digest when the tree has
    uncommitted changes; only the digest outside a git checkout."""
    commit = git("rev-parse", "HEAD")
    if not commit:
        return source_digest()
    if git("status", "--porcelain"):
        return f"{commit}+dirty:{source_digest()}"
    return commit


def main():
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = target / "release" / "perfbench"
    run = subprocess.run(
        [str(exe), *sys.argv[1:], "--commit", source_id()], env=env, timeout=170
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
