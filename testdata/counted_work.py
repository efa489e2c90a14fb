#!/usr/bin/env python3
"""Counted-work gate (`make counted`).

Runs each benchmark workload at -quick size, traced, with a fixed seed, and
compares every metric whose unit is "count" -- plus core.virtual_s on the two
batch workloads, where it is virtual time; on the serve workloads it is wall
time -- against testdata/counted_work.json. These numbers repeat exactly
from process to process, so any difference is a change in the work the engine
does: the differing names are printed and the exit code is 1. A PR that means
to move counted work regenerates the manifest in the same diff with --write.

Not gated: core.deferrals and skycube.cmps of serve-stream. That workload
drives two closed-loop clients at a wall-clock daemon, and which client's
query the executor admits first decides the order results enter the windows:
on the reference VM three runs in four read 61 / 105220 and the fourth
47 / 105407, at the parent commit and at any other. Its order-independent
counts (decisions, probes, results, regions, cell operations) and every
count of the single-client serve-mutate repeat exactly.
"""
import json
import os
import subprocess
import sys

WORKLOADS = ["batch-anti", "batch-indep", "serve-stream", "serve-mutate"]
RACY = {"serve-stream": {"core.deferrals", "skycube.cmps"}}
MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "counted_work.json")


def counted(workload):
    out = subprocess.run(
        ["go", "run", "./benchmark", "-workload", workload, "-quick", "-traced", "-seed", "2014"],
        stdout=subprocess.PIPE, check=True, text=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    if not last["correct"] or last["failed"]:
        sys.exit(f"{workload}: benchmark reports correct={last['correct']} failed={last['failed']}")
    return {name: m["value"] for name, m in last["metrics"].items()
            if name not in RACY.get(workload, ())
            and (m["unit"] == "count" or (name == "core.virtual_s" and workload.startswith("batch-")))}


def main():
    got = {w: counted(w) for w in WORKLOADS}
    if sys.argv[1:] == ["--write"]:
        with open(MANIFEST, "w") as f:
            json.dump(got, f, indent=1, sort_keys=True)
            f.write("\n")
        return
    with open(MANIFEST) as f:
        want = json.load(f)
    diffs = [f"{w} {name}: manifest {want.get(w, {}).get(name)}, run {got[w].get(name)}"
             for w in WORKLOADS
             for name in sorted(set(want.get(w, {})) | set(got[w]))
             if want.get(w, {}).get(name) != got[w].get(name)]
    for d in diffs:
        print("counted work changed: " + d, file=sys.stderr)
    sys.exit(1 if diffs else 0)


if __name__ == "__main__":
    main()
