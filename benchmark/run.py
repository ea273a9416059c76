"""The indmatch benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the package through
its own setup.py (cached under .bench_build/), generates the workload's
inputs from the seed, and runs the workload as a closed loop with one
client: one operation at a time, each in a child process, until S
seconds have passed and every instance has run at least once.  Every
operation's output is checked outside its timed region.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 they are the per-layer ones from a traced run.  The
line before it records what was measured (source key, git SHA, Python,
CPUs, seed, native core, backend, build time).  See README.md here for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import build
import check
import gen
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_build"
# The console script `indmatch = indmatch.cli:main`, plus a report of the
# process's own peak RSS at exit.  VmHWM belongs to the process's address
# space; getrusage/wait4 maxrss would include the parent's RSS at fork.
CLI_MAIN = (
    "import atexit, sys; atexit.register(lambda: sys.stderr.write("
    "'\\nvmhwm_kb ' + open('/proc/self/status').read().split('VmHWM:')[1].split()[0] + '\\n'));"
    " from indmatch.cli import main; sys.exit(main())"
)
SETUP_REPEATS = 5
OP_TIMEOUT_S = 60.0
POLL_S = 0.0005
# Stop starting operations after this much time in a run, even when an
# instance has not run yet, so a run always ends within its time limit.
HARD_STOP_S = 100.0


@dataclass(frozen=True)
class Workload:
    kind: str  # cli | count | sink
    family: str  # girth5 | gnm_c4
    sizes: tuple  # (n, m) per instance
    solutions: tuple | None  # accepted solution counts (lo, hi) of a complete run
    cutoff: int | None


# Each instance is the first seeded graph of its (n, m) whose solution
# count falls in the workload's window: graphs of one size differ in
# solution count by 2x, and with the CLI's fixed start-up cost that would
# move solutions_per_s from seed to seed.
WORKLOADS = {
    # output-heavy: rendering, writing and the per-solution callback
    "cli_lines": Workload("cli", "girth5", ((32, 42),) * 6, (25000, 35000), None),
    # the partition kernel alone, on girth-5 graphs of mixed density
    "count_c4free": Workload(
        "count", "girth5", ((36, 34), (34, 36), (33, 38), (32, 40), (31, 42), (32, 42)),
        (22000, 32000), None),
    # C4 check early exit, general engine, per-call sink boundary
    "general_sink": Workload("sink", "gnm_c4", ((33, 43),) * 6, (17000, 27000), None),
    # parse, C4 check, set-up and a deep first descent
    "large_sparse": Workload("cli", "girth5", ((25000, 25000),), None, 10),
}
GENERATORS = {"girth5": gen.girth5, "gnm_c4": gen.gnm_with_c4}
WARM_SIZE = (16, 20)
GENERATE_TRIES = 500


class Instance:
    def __init__(self, path: Path, graph: check.Instance, reference):
        self.path = path
        self.graph = graph
        self.reference = reference


def child_env(lib: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = lib
    # `auto` must mean what it means for a user with no override.
    env.pop("INDMATCH_BACKEND", None)
    return env


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def spawn(argv, env, out_path: Path, watch_first: bool) -> dict:
    """Run a child with stdout to a file.  Returns its wall time, the time
    the first output byte reached the file, its exit code and, when it
    reports one on stderr, its peak RSS."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        first = None
        reaped = None
        try:
            while watch_first and first is None:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    reaped = (status, usage)
                    break
                if os.fstat(out.fileno()).st_size:
                    first = time.perf_counter()
                elif time.perf_counter() - t0 > OP_TIMEOUT_S:
                    raise Timeout
                else:
                    # precise for an early first line, cheap for a late one
                    time.sleep(max(POLL_S, (time.perf_counter() - t0) / 200))
            if reaped is None:
                signal.setitimer(signal.ITIMER_REAL, max(t0 + OP_TIMEOUT_S - time.perf_counter(), 1e-3))
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                reaped = (status, usage)
        except Timeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            return {"error": f"timed out after {OP_TIMEOUT_S} s"}
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(reaped[0])
    res = {"wall_s": end - t0, "first_s": (first or end) - t0, "exit": proc.returncode}
    err_text = out_path.with_suffix(".err").read_text(errors="replace")
    if proc.returncode != 0:
        res["error"] = f"exit code {proc.returncode}: {err_text[-500:]}"
    elif "\nvmhwm_kb " in err_text:
        res["peak_rss_kb"] = int(err_text.rsplit("\nvmhwm_kb ", 1)[1].split()[0])
    return res


class Harness:
    def __init__(self, name: str, seed: int, env: dict):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.env = env
        self.work = CACHE / "work" / name

    # -- set-up -------------------------------------------------------

    def setup(self) -> list[Instance]:
        """Generate and write the inputs, compute the checker's
        references, and warm up with one small operation."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        rng = random.Random(f"{self.name}:{self.seed}")
        make = GENERATORS[self.wl.family]
        instances = []
        for i, (n, m) in enumerate(self.wl.sizes):
            for _ in range(GENERATE_TRIES):
                edges = make(n, m, rng)
                graph = check.Instance(n, edges, rng.getrandbits(64))
                reference = graph.reference() if self.wl.cutoff is None else None
                window = self.wl.solutions
                if window is None or window[0] <= reference[0] <= window[1]:
                    break
            else:
                raise RuntimeError(f"no ({n}, {m}) graph with {self.wl.solutions} solutions")
            path = self.work / f"g{i}.txt"
            path.write_text(gen.edge_list_text(edges), encoding="utf-8")
            instances.append(Instance(path, graph, reference))
        warm_edges = make(*WARM_SIZE, rng)
        warm = self.work / "warm.txt"
        warm.write_text(gen.edge_list_text(warm_edges), encoding="utf-8")
        res = self.op(warm, cutoff=1, probes=1)
        if "error" in res:
            raise RuntimeError(f"warm-up operation failed: {res['error']}")
        return instances

    # -- one operation ------------------------------------------------

    def cli_argv(self, path: Path, cutoff) -> list[str]:
        argv = [sys.executable, "-c", CLI_MAIN, "enumerate", str(path)]
        return argv + (["--cutoff", str(cutoff)] if cutoff is not None else [])

    def op(self, path: Path, cutoff, probes: int = 5) -> dict:
        """Run one operation; the result holds its measurements and
        where its output is, or "error"."""
        out = self.work / "out.txt"
        if self.wl.kind == "cli":
            before = speed.calibrate()
            res = spawn(self.cli_argv(path, cutoff), self.env, out, watch_first=True)
            res["scale"] = speed.scale(before, speed.calibrate())
            res["output"] = out
            return res
        job = self.work / "job.json"
        result = self.work / "result.json"
        job.write_text(json.dumps({"kind": self.wl.kind, "path": str(path), "probes": probes,
                                   "out": str(out)}))
        res = spawn([sys.executable, str(HERE / "worker.py"), "op", str(job), str(result)],
                    self.env, self.work / "worker.txt", watch_first=False)
        if "error" not in res:
            res.update(json.loads(result.read_text()))
            res["scale"] = speed.scale(*res.pop("calibration_ns"))
            res["output"] = out
        return res

    def judge(self, inst: Instance, kind: str, output, cutoff) -> tuple[int, str | None]:
        """(solutions delivered, what is wrong or None) for one output:
        CLI lines, a list of solutions, or a count."""
        if kind == "count":
            wrong = output != inst.reference[0]
            return output, f"count {output} differs from reference {inst.reference[0]}" if wrong else None
        if kind == "cli":
            verdict = check.check_lines(inst.graph, output)
        else:
            verdict = check.check_matchings(inst.graph, output)
        return verdict.count, check.judge(verdict, inst.reference, cutoff)

    def verify(self, inst: Instance, res: dict) -> str | None:
        """Check an operation's output and record its solution count."""
        kind = self.wl.kind
        if kind == "cli":
            output = res["output"].read_text(encoding="utf-8")
        elif kind == "sink":
            with open(res["output"], "rb") as fh:
                output = pickle.load(fh)
        else:
            output = res["count"]
        res["solutions"], wrong = self.judge(inst, kind, output, self.wl.cutoff)
        return wrong

    # -- the timed loop -----------------------------------------------

    def measure(self, instances: list[Instance], seconds: float) -> tuple[dict, list]:
        start = time.perf_counter()
        ok, records = [], []
        i = 0
        while True:
            k = i % len(instances)
            inst = instances[k]
            res = self.op(inst.path, self.wl.cutoff)
            if "error" not in res:
                wrong = self.verify(inst, res)
                if wrong:
                    res["error"] = wrong
            records.append({"instance": k, **{key: v for key, v in res.items() if key != "output"}})
            if "error" not in res:
                ok.append(res)
            i += 1
            elapsed = time.perf_counter() - start
            if (i >= len(instances) and elapsed >= seconds) or elapsed >= HARD_STOP_S:
                break
        return summarise(ok), records


def summarise(ops: list[dict]) -> dict:
    """Medians over the run's operations of the calibrated timings (see
    speed.py).  The instances are visited in turn and have about the same
    solution count, so each weighs about the same."""
    if not ops:
        return {"solutions_per_s": 0.0, "first_solution_s": 0.0, "peak_rss_mb": 0.0}
    return {
        "solutions_per_s": statistics.median(o["solutions"] / (o["wall_s"] * o["scale"]) for o in ops),
        "first_solution_s": statistics.median(o["first_s"] * o["scale"] for o in ops),
        "peak_rss_mb": statistics.median(o["peak_rss_kb"] for o in ops) / 1024,
    }


UNITS = {"solutions_per_s": "1/s", "first_solution_s": "s", "peak_rss_mb": "MB",
         "setup_s": "s", "ok_ratio": "ratio"}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def package_info(env: dict, work: Path) -> dict:
    out = work / "info.json"
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "info", str(out)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import the built package:\n{proc.stderr}")
    return json.loads(out.read_text())


def run_untraced(h: Harness, seconds: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        before = speed.calibrate()
        t0 = time.perf_counter()
        instances = h.setup()
        took = time.perf_counter() - t0
        setups.append(took * speed.scale(before, speed.calibrate()))
    summary, records = h.measure(instances, seconds)
    attempted = len(records)
    failed = sum("error" in r for r in records)
    metrics = {**summary, "setup_s": statistics.median(setups),
               "ok_ratio": (attempted - failed) / attempted}
    detail = {"setup_runs_s": setups, "operations": records}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in UNITS}}, detail


PER_LAYER_UNITS = {
    "edgelist.parse_s": "s",
    "graph.build_s": "s",
    "analysis.c4check_s": "s",
    "edgelist.render_ns_per_line": "ns/line",
    "cli.other_s": "s",
    "cli.startup_s": "s",
    "enumerate.count_ns_per_solution": "ns/solution",
    "enumerate.callback_ns_per_solution": "ns/solution",
    "enumerate.boundary_ns_per_solution": "ns/solution",
    "enumerate.setup_to_first_s": "s",
    "enumerate.python_ns_per_solution": "ns/solution",
    "graph.remove_rollback_ns": "ns/edge",
    "degree_index.build_s": "s",
    "degree_index.max_degree_ns": "ns/call",
    "neighborhood.classify_ns_per_pivot": "ns/pivot",
    "enumerate.iterations_per_solution": "ratio",
    "enumerate.internal_per_solution": "ratio",
    "enumerate.deletions_per_solution": "ratio",
    "enumerate.restorations_per_solution": "ratio",
    "enumerate.sect_sum_per_d2": "ratio",
    "enumerate.max_depth": "levels",
    "trace.overhead_s": "s",
}


def run_traced(h: Harness, seconds: float) -> tuple[dict, dict]:
    instances = h.setup()
    inst = instances[0]
    job = h.work / "trace_job.json"
    result = h.work / "trace_result.json"
    outputs = h.work / "trace_outputs.pickle"
    job.write_text(json.dumps({"kind": h.wl.kind, "path": str(inst.path), "cutoff": h.wl.cutoff,
                               "seconds": seconds, "out": str(h.work / "replay.txt"),
                               "outputs": str(outputs)}))
    res = spawn([sys.executable, str(HERE / "worker.py"), "trace", str(job), str(result)],
                h.env, h.work / "trace_log.txt", watch_first=False)
    if "error" in res:
        raise RuntimeError(f"traced run failed: {res['error']}")
    trace = json.loads(result.read_text())
    metrics = trace["metrics"]

    with open(outputs, "rb") as fh:
        replays = pickle.load(fh)
    errors = [h.judge(inst, h.wl.kind, out, h.wl.cutoff)[1] for out in replays]

    # Interpreter start plus `import indmatch.cli`, and the real CLI on the
    # traced instance: what the traced layers do not cover is cli.other_s.
    startup, cli = [], []
    for _ in range(5):
        for argv, runs in (([sys.executable, "-c", "import indmatch.cli"], startup),
                           (h.cli_argv(inst.path, trace["cli_cutoff"]), cli)):
            before = speed.calibrate()
            res = spawn(argv, h.env, h.work / "cli.txt", watch_first=False)
            if "error" not in res and runs is cli:
                lines = (h.work / "cli.txt").read_text(encoding="utf-8")
                res["error"] = h.judge(inst, "cli", lines, trace["cli_cutoff"])[1]
            errors.append(res.get("error"))
            if res.get("error") is None:
                runs.append(res["wall_s"] * speed.scale(before, speed.calibrate()))
    metrics["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    metrics["cli.other_s"] = (statistics.median(cli) if cli else 0.0) - metrics["cli.startup_s"] - trace["cli_spans_s"]

    attempted = len(errors)
    failed = sum(e is not None for e in errors)
    detail = {"algorithm": trace["algorithm"], "self_ns": trace["self_ns"], "spans": trace["spans"],
              "errors": [e for e in errors if e]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}}, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)

    try:
        built = build.build(ROOT, CACHE / "build")
    except build.BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = child_env(built["lib"])
    h = Harness(args.workload, args.seed, env)
    h.work.mkdir(parents=True, exist_ok=True)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "source_key": built["key"], "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "build_s": built["build_s"],
        "build_cached": built["cached"], **package_info(env, h.work),
    }
    if args.trace:
        result, detail = run_traced(h, args.seconds)
    else:
        result, detail = run_untraced(h, args.seconds)
    log = CACHE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text(json.dumps({"info": info, "result": result, **detail}, default=str))
    print(json.dumps({"info": {**info, "log": str(log.relative_to(ROOT))}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
