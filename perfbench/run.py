#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stencil --seed 1 --seconds 30 --trace 0

perfbench/ is a Go module of its own that replaces the repository's module
with ../, so the benchmark always measures the checkout it sits in. The
binary, the Go build cache, Go's configuration and temporary files, the
checkpoint directories and the span files all live under .bench_build/ in
the working directory. Arguments are passed to the benchmark unchanged. The
exit status is the benchmark's, or 2 when it cannot be built.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(".bench_build")
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    for d in (env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
