"""Write reference.json: the gated outputs of every workload's commands.

Usage (from the root of a source checkout): python3 perfbench/record_reference.py

Runs each workload's preparation and one pass at every seed in
RECORDED_SEEDS, and records what ``workloads.observe`` sees. Solver outputs
must agree across seeds; simulator totals are recorded per seed. Run it
only when the program's outputs are meant to change.
"""

import json
import shutil
import sys

import run
import workloads as wl

RECORDED_SEEDS = (0, 1, 2)


def record(workload: str) -> dict:
    entries = {}
    for seed in RECORDED_SEEDS:
        work = run.ROOT / ".perfbench_work" / f"record-{workload}-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        inputs, out = work / "inputs", work / "out"
        wl.write_inputs(workload, inputs)
        out.mkdir(parents=True)
        cmds = wl.prep_commands(workload, inputs) + wl.pass_commands(
            workload, seed, inputs, out)
        for i, cmd in enumerate(cmds):
            done = run.run_child([sys.executable, "-m", "remest.cli", *cmd.args],
                                 work / f"cmd{i}.out", 600.0)
            if done.returncode != 0:
                raise SystemExit(f"{workload} {cmd.key} exited {done.returncode}")
            entry = wl.reference_entry(cmd, wl.observe(cmd, done.stdout), seed)
            if cmd.key not in entries:
                entries[cmd.key] = entry
            elif cmd.kind == "simulate":
                entries[cmd.key]["totals"].update(entry["totals"])
            elif entries[cmd.key] != entry:
                raise SystemExit(f"{workload} {cmd.key} differs between seeds")
        shutil.rmtree(work)
    return entries


def main() -> None:
    reference = {w: record(w) for w in wl.WORKLOADS}
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
