"""The remest benchmark: timed CLI sessions on four workloads, gated outputs.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload preset_solve --seed 0 --seconds 20 --trace 0

Every command runs as its own fresh interpreter (``python -m remest.cli``
with ``PYTHONPATH=src``), one at a time. A pass runs the workload's
commands once; passes repeat until ``--seconds`` of passes are measured.
Each command's outputs are checked against ``reference.json``; a non-zero
exit or a mismatch counts as a failure.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics (medians over passes). With ``--trace 1`` traced and
untraced passes alternate; the JSON holds the per-layer metrics of the
traced passes and the tracing overhead. Lines before it are a readable
report; the full record, spans included, goes to
``.perfbench_work/result-<workload>-<seed>-<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# A run must end within 180 s: no pass starts that could end after this.
RUN_DEADLINE_S = 165.0

END_TO_END = (
    ("setup_s", "s"),
    ("session_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed for the workloads that run the command; not part of the JSON,
# since the other workloads would read 0.
COMMAND_METRICS = {
    "solve-symmetric": "solve_symmetric_s",
    "solve-iid": "solve_iid_s",
    "simulate": "simulate_s",
    "verify": "verify_s",
    "export-examples": "export_examples_s",
}
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")

PROBE = r"""
import ctypes, json, sys
import numpy, scipy, remest.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
try:
    with open("/proc/self/maps") as fh:
        libs = sorted({l.split()[-1] for l in fh if "blas" in l and ".so" in l})
except OSError:
    libs = []
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            getattr(lib, sym).restype = ctypes.c_int
            threads = getattr(lib, sym)()
print(json.dumps({"remest_file": remest.cli.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "blas_threads": threads}))
"""


@dataclass
class Finished:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, stdout_path: Path, timeout: float) -> Finished:
    """Run one child to completion; its peak RSS comes from its own rusage."""
    with open(stdout_path, "w") as out, open(stdout_path.with_suffix(".err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                    stdout_path.read_text())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(work: Path) -> dict:
    done = run_child([sys.executable, "-c", PROBE], work / "probe.out", 60.0)
    if done.returncode != 0:
        raise RuntimeError("cannot import remest from the checkout: "
                           + (work / "probe.err").read_text().strip())
    env = json.loads(done.stdout)
    if not Path(env["remest_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"remest imported from {env['remest_file']}, not {ROOT / 'src'}")
    commit = "unknown"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = rev.stdout.strip() or commit
    env.update(commit=commit, source_sha256=source_digest(),
               nproc=len(os.sched_getaffinity(0)), cpu_count=os.cpu_count())
    return env


def pass_estimate(records, kinds=None) -> float:
    """Typical wall time of a pass: the sum over its commands (of the given
    kinds) of each command's median wall time across the passes."""
    total = 0.0
    for i, cmd in enumerate(records[0]["commands"]):
        if kinds is None or cmd["kind"] in kinds:
            total += statistics.median(r["commands"][i]["wall_s"] for r in records)
    return total


class Session:
    """Runs and gates the passes of one workload."""

    def __init__(self, workload: str, seed: int, work: Path, reference: dict,
                 started: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = reference
        self.deadline = started + RUN_DEADLINE_S
        self.inputs = work / "inputs"
        self.attempted = 0
        self.failures: list[str] = []
        self.first_totals: dict[str, float] = {}

    def _timeout(self) -> float:
        return max(1.0, self.deadline + 10.0 - time.perf_counter())

    def gate(self, cmd: wl.Command, done: Finished) -> list[str]:
        if done.returncode != 0:
            return [f"exit code {done.returncode}"]
        try:
            obs = wl.observe(cmd, done.stdout)
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable output: {exc!r}"]
        problems = wl.check(cmd, obs, self.reference[cmd.key], self.seed)
        if cmd.kind == "simulate":
            first = self.first_totals.setdefault(cmd.key, obs["total"])
            if obs["total"] != first:
                problems.append(f"total {obs['total']!r} differs from an earlier "
                                f"pass at the same seed ({first!r})")
        return problems

    def prepare(self) -> None:
        wl.write_inputs(self.workload, self.inputs)
        for cmd in wl.prep_commands(self.workload, self.inputs):
            done = run_child([sys.executable, "-m", "remest.cli", *cmd.args],
                             self.inputs / f"{cmd.key.replace(':', '_')}.out",
                             self._timeout())
            problems = self.gate(cmd, done)
            if problems:
                raise RuntimeError(f"preparation {cmd.key} failed: {problems}")

    def run_pass(self, index: int, traced: bool) -> dict:
        out = self.work / f"pass{index}"
        out.mkdir()
        cmds = wl.pass_commands(self.workload, self.seed, self.inputs, out)
        finished = []
        start = time.perf_counter()
        for i, cmd in enumerate(cmds):
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "child.py"),
                        str(out / f"spans{i}.json"), f"pass{index}.{i}", *cmd.args]
            else:
                argv = [sys.executable, "-m", "remest.cli", *cmd.args]
            finished.append(run_child(argv, out / f"cmd{i}.out", self._timeout()))
        session = time.perf_counter() - start

        record = {"traced": traced, "session_s": session,
                  "peak_rss_mb": max(d.peak_rss_mb for d in finished), "commands": []}
        spans = []
        for i, (cmd, done) in enumerate(zip(cmds, finished)):
            problems = self.gate(cmd, done)
            self.attempted += 1
            if problems:
                self.failures.append(f"pass {index} {cmd.key}: {'; '.join(problems)}")
            record["commands"].append({"key": cmd.key, "kind": cmd.kind,
                                       "wall_s": done.wall_s,
                                       "peak_rss_mb": done.peak_rss_mb,
                                       "returncode": done.returncode,
                                       "problems": problems})
            if traced and (out / f"spans{i}.json").exists():
                spans += tracing.load_spans(out / f"spans{i}.json")
        if traced:
            record["layers"] = tracing.layer_metrics(spans)
            record["spans"] = [vars(s) for s in spans]
        shutil.rmtree(out)
        return record

    def run(self, seconds: float, trace: bool) -> list[dict]:
        """Passes until ``seconds`` of them are measured; with ``trace``,
        untraced and traced passes alternate, at least one of each."""
        records = []
        measured = 0.0
        while True:
            t0 = time.perf_counter()
            records.append(self.run_pass(len(records), trace and len(records) % 2 == 1))
            measured += records[-1]["session_s"]
            if len(records) < (2 if trace else 1):
                continue
            took = time.perf_counter() - t0
            if measured >= seconds or time.perf_counter() + took > self.deadline:
                return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    started = time.perf_counter()

    if not (ROOT / "src" / "remest" / "cli.py").is_file():
        print(f"error: no remest source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = json.loads((BENCH_DIR / "reference.json").read_text())[args.workload]

    try:
        env = environment(work)
        setup = [run_child([sys.executable, "-c", "import remest.cli"],
                           work / "setup.out", 60.0)
                 for _ in range(SETUP_REPEATS)]
        if any(d.returncode != 0 for d in setup):
            raise RuntimeError("import remest.cli failed")
        session = Session(args.workload, args.seed, work, reference, started)
        session.prepare()
        records = session.run(args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    stats = {"setup_s": statistics.median(d.wall_s for d in setup),
             "session_s": pass_estimate(plain),
             "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    kinds = {c["kind"] for c in plain[0]["commands"]}
    for kind, metric in COMMAND_METRICS.items():
        if kind in kinds:
            stats[metric] = pass_estimate(plain, {kind})

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {session.attempted} commands; "
          f"setup over {len(setup)} imports")
    units = dict(END_TO_END)
    for name, value in stats.items():
        print(f"  {name:<20} {value:.4f} {units.get(name, 's')}")
    totals = [r["session_s"] for r in plain]
    print(f"  {'pass wall times':<20} " + " ".join(f"{t:.3f}" for t in totals) + " s")
    print(f"  {'failed_fraction':<20} {len(session.failures)}/{session.attempted}")
    for failure in session.failures:
        print(f"  FAILED {failure}")

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name, _, _ in tracing.LAYER_METRICS}
        layers[TRACE_OVERHEAD[0]] = pass_estimate(traced) - stats["session_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in (*tracing.LAYER_METRICS, TRACE_OVERHEAD)}
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": stats[name], "unit": unit}
                   for name, unit in END_TO_END}

    result = {"correct": not session.failures, "attempted": session.attempted,
              "failed": len(session.failures), "metrics": metrics}
    (base / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                    "setup_s": [d.wall_s for d in setup], "stats": stats,
                    "passes": records, "failures": session.failures,
                    "result": result}))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
