#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the web-view query engine.

    python3 perfbench/run.py --workload adhoc|serve|churn|forms \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is an OCaml executable
(perfbench/main.ml) over the repository's libraries; this script builds
it with dune (release profile, no shared dune cache, so everything stays
inside the checkout), stamps the source revision, runs it and relays its
output. The executable prints metric values by name; this script checks
those names against BENCHMARK.json, the one list of metrics and their
units, and prints as the last line of standard output the JSON result
with each value's unit attached. A traced run (--trace 1) also writes
Chrome trace-event JSON to perfbench/out/.

--self-test damages one answer per workload and checks that the
benchmark's oracles count it as exactly one failure.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["adhoc", "serve", "churn", "forms"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(done.stdout.decode(errors="replace"))
        fail("build failed")


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, timeout=30)
            if out.returncode == 0:
                return out.stdout.decode().strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def with_units(result, trace):
    """Attach BENCHMARK.json's units to the executable's metric values.

    Untraced runs must report exactly the end-to-end metrics; traced
    runs may report only declared per-layer metrics, and a layer the
    workload does not run reports 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    values = result["metrics"]
    names = [m["name"] for m in declared]
    unknown = sorted(set(values) - set(names))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    missing = [n for n in names if n not in values]
    if missing and not trace:
        fail("end-to-end metrics not reported: " + ", ".join(missing))
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0.0),
                                     "unit": m["unit"]} for m in declared}
    return result


def run(workload, seed, seconds, trace, extra=()):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--commit", revision()]
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out_dir, "trace-%s-seed%d.json" % (workload, seed))]
    cmd += list(extra)
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    if done.returncode != 0:
        fail("%s exited with %d" % (workload, done.returncode))
    lines = done.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result" % workload)
    return lines[:-1], with_units(result, trace)


def self_test():
    ok = True
    for w in WORKLOADS:
        _, result = run(w, 1, 1, 0, ["--corrupt"])
        caught = result["failed"] == 1 and result["correct"] is False
        ok = ok and caught
        print("%-6s damaged answer counted as failed: %s (failed=%d of %d)"
              % (w, "yes" if caught else "NO", result["failed"],
                 result["attempted"]))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.self_test:
        sys.exit(0 if self_test() else 1)
    lines, result = run(a.workload, a.seed, a.seconds, a.trace)
    print("\n".join(lines + [json.dumps(result)]))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
