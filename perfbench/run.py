#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the specreason CLI.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each command runs as a user would run it: one fresh process, one
client, the next command only after the previous one exits (closed
loop). Inputs come from the seed through perfbench/inputs.py; the
program sees only the files. Every output is checked by
perfbench/oracles.py, and a command that exits non-zero or fails a
check counts as failed instead of stopping the run.

--trace 0 reports the end-to-end metrics: the median wall_s and setup_s,
and the largest peak_rss_mb of the timed commands.
--trace 1 runs the timed command under perfbench/tracer.py, alternating
with untraced runs, and reports per-layer metrics plus the tracing
overhead. The last line of standard output is the JSON result; a record
with inputs, environment and every sample goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import inputs as gen  # noqa: E402
import oracles  # noqa: E402
from tracer import MODULES  # noqa: E402

COMMAND_TIMEOUT_S = 120.0
MIN_TIMED = 3  # timed commands of an untraced run, at the least
MIN_TRACED = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metrics read off the spans: self seconds, call counts, counts
SELF_TIMED = (
    "graph.load_graph", "graph.Graph.init", "graph.adjacency", "graph.build_laplacian",
    "graph.scale_laplacian", "graph.estimate_lambda_max", "graph.eigendecompose",
    "analysis.spectral_perturb", "analysis.band_energy", "analysis.robustness_drop",
    "filters.dense_filter_apply", "filters.cheb_apply", "filters.fit_chebyshev",
    "training.train", "training.grad_theta", "rules.load_rulebase", "rules.project_predicates",
    "rules.forward_chain", "taskgen.load_task", "taskgen.instance_accuracy", "taskgen.evaluate",
)
CALLED = ("graph.eigendecompose", "analysis.spectral_perturb", "analysis.band_energy",
          "filters.dense_filter_apply", "filters.cheb_apply", "taskgen.instance_accuracy")
COUNTED = {  # metric -> (span name, count key)
    "graph.estimate_lambda_max.iterations": ("graph.estimate_lambda_max", "iterations"),
    "graph.estimate_lambda_max.fallbacks": ("graph.estimate_lambda_max", "fallbacks"),
    "filters.cheb_apply.matvecs": ("filters.cheb_apply", "matvecs"),
    "rules.facts": ("rules.project_predicates", "facts"),
    "rules.forward_chain.closure_atoms": ("rules.forward_chain", "closure_atoms"),
    "training.train.epochs": ("training.train", "epochs"),
}


@dataclass
class Plan:
    """One workload's prepared inputs, its set-up command and its timed command."""

    inputs: list[dict]
    setup: list[str]  # interpreter arguments, e.g. ["-m", "specreason.cli", "fit", ...]
    timed: list[str]  # specreason arguments without --out-dir
    check: Callable[[Path, str], tuple[list[str], float | None]]  # -> problems, result_err
    setup_check: Callable[[], list[str]] = lambda: []
    setup_every: int = 1  # timed commands per set-up command


@dataclass
class Sample:
    kind: str
    wall_s: float
    rss_mb: float
    code: int
    problems: list[str] = field(default_factory=list)
    result_err: float | None = None
    layers: dict | None = None


def child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(SRC), SNSR_THREADS="1")
    env.update({var: threads for var in THREAD_VARS})
    return env


def spawn(argv: list[str], cwd: Path, env: dict, log: Path) -> tuple[float, float, int]:
    """Run argv to completion; return (wall seconds, peak RSS MB of that process, exit code)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        status = usage = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def output_problems(code: int, log: Path) -> list[str]:
    if code == 0:
        return []
    tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
    return [f"exit code {code}: {' '.join(tail)}"]


# ---------------------------------------------------------------- workloads

def _fit_args(graph: Path, out: Path) -> list[str]:
    return ["-m", "specreason.cli", "fit", "--graph", str(graph), "--response", "diffusion",
            "--tau", "1", "--order", "16", "--out-dir", str(out)]


def _infer_plan(work: Path, n: int, i: np.ndarray, j: np.ndarray, x: np.ndarray,
                rulebase: dict | None) -> Plan:
    graph, beliefs, fit_dir = work / "graph.txt", work / "beliefs.txt", work / "fit"
    records = [{**gen.write(graph, gen.graph_text(n, i, j)), "nodes": n, "edges": int(i.size)},
               {**gen.write(beliefs, gen.beliefs_text(x)), "values": n}]
    timed = ["infer", "--graph", str(graph), "--filter", str(fit_dir / "filter.json"),
             "--beliefs", str(beliefs), "--threshold", "0"]
    if rulebase is not None:
        rules = work / "rules.json"
        records.append({**gen.write(rules, json.dumps(rulebase) + "\n"),
                        "atoms": len(rulebase["atoms"]), "clauses": len(rulebase["clauses"])})
        timed += ["--rulebase", str(rules)]
    reference = oracles.diffusion_reference(gen.laplacian(n, i, j), x, tau=1.0)

    def check(out: Path, _stdout: str):
        try:
            y, hard = oracles.parse_predicates((out / "predicates.csv").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"predicates.csv: {exc}"], None
        if y.size != n:
            return [f"predicates.csv has {y.size} rows for {n} nodes"], None
        err = oracles.result_err(y, reference)
        problems = oracles.check_hard(y, hard, 0.0) + oracles.check_result_err(err)
        if rulebase is not None:
            try:
                closure = (out / "closure.txt").read_text(encoding="utf-8")
            except OSError as exc:
                return problems + [f"closure.txt: {exc}"], err
            problems += oracles.check_closure(closure, rulebase, hard)
        return problems, err

    def setup_check():
        return [] if (fit_dir / "filter.json").is_file() else ["fit wrote no filter.json"]

    # fit costs as much as infer: one before every other infer leaves time for a third infer
    return Plan(records, _fit_args(graph, fit_dir), timed, check, setup_check, setup_every=2)


def plan_infer_ingest(seed: int, work: Path) -> Plan:
    """One fixed G(n, m); the seed relabels its nodes, reorders its edges and draws the beliefs.

    Power iteration's step count follows the gap at the top of the spectrum,
    which differs from one G(n, m) draw to the next (55 to the 500-step cap
    over 12 draws, 0.2-1.7 s in each of fit and infer). Relabelling one graph
    keeps the spectrum and so the work nearly the same from seed to seed.
    """
    n = 100_000
    i, j = gen.gnm_edges(n, 500_000, np.random.default_rng([0, 1]))
    rng = np.random.default_rng([1, seed])
    i, j = gen.relabel(n, i, j, rng)
    return _infer_plan(work, n, i, j, rng.standard_normal(n), None)


def plan_infer_horn(seed: int, work: Path) -> Plan:
    rng = np.random.default_rng([2, seed])
    n = 6_000
    _, x, rulebase = gen.path_horn(n, rng)
    return _infer_plan(work, n, np.arange(n - 1), np.arange(1, n), x, rulebase)


IMPORT_SETUP = ["-c", "import specreason.cli"]


def plan_eval_perturb(seed: int, work: Path) -> Plan:
    rng = np.random.default_rng([3, seed])
    tasks = [gen.sbm_task(800, rng), gen.sbm_task(800, rng), gen.spike_task(800, rng),
             gen.spike_task(800, rng), gen.tree_chain_task(9, rng), gen.tree_chain_task(9, rng)]
    records, paths = [], []
    for k, task in enumerate(tasks):
        path = work / f"task{k}.json"
        records.append({**gen.write(path, gen.task_json(task)), "kind": task["kind"],
                        "nodes": task["graph"]["n"], "edges": len(task["graph"]["edges"])})
        paths.append(str(path))
    reference = oracles.eval_reference(tasks, tau=2.0, threshold=0.0, perturb_band=2,
                                       perturb_magnitude=0.5)
    timed = ["eval", "--tasks", *paths, "--response", "diffusion", "--tau", "2",
             "--perturb-band", "2", "--perturb-magnitude", "0.5"]

    def check(out: Path, _stdout: str):
        try:
            text = (out / "eval.csv").read_text(encoding="utf-8")
        except OSError as exc:
            return [f"eval.csv: {exc}"], None
        return oracles.check_eval(text, reference), None

    return Plan(records, IMPORT_SETUP, timed, check)


def plan_train_recurrence(seed: int, work: Path) -> Plan:
    rng = np.random.default_rng([4, seed])
    n, epochs = 10_000, 100
    i, j = gen.gnm_edges(n, 50_000, rng)
    graph, config = work / "graph.txt", work / "train.json"
    records = [{**gen.write(graph, gen.graph_text(n, i, j)), "nodes": n, "edges": int(i.size)},
               gen.write(config, json.dumps({"order": 16, "examples": 8, "epochs": epochs,
                                             "seed": seed}) + "\n")]
    timed = ["train", "--graph", str(graph), "--config", str(config)]

    def check(out: Path, stdout: str):
        try:
            history = (out / "history.csv").read_text(encoding="utf-8")
        except OSError as exc:
            return [f"history.csv: {exc}"], None
        return oracles.check_train(stdout, history, epochs), None

    return Plan(records, IMPORT_SETUP, timed, check)


WORKLOADS = {
    "infer-ingest": plan_infer_ingest,
    "infer-horn": plan_infer_horn,
    "eval-perturb": plan_eval_perturb,
    "train-recurrence": plan_train_recurrence,
}


# ---------------------------------------------------------------- tracing

def layer_metrics(doc: dict, out: Path) -> dict[str, float]:
    """Per-layer numbers of one traced command: self seconds, calls and counts.

    A span's self time is its duration minus its children's. ``<module>.self_s``
    sums the self time of the module's spans. ``<function>.s`` for a name in
    SELF_TIMED also takes the self time of every descendant that is not itself
    in SELF_TIMED, so helpers count toward the named call that made them.
    """
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    owner: list[str | None] = []  # spans are numbered in start order: parents come first
    module_s = dict.fromkeys(MODULES, 0.0)
    named_s = dict.fromkeys(SELF_TIMED, 0.0)
    calls: dict[str, int] = {}
    counts: dict[tuple[str, str], int] = {}
    for sid, parent, name, start, end, extra in spans:
        own = (end - start) - child[sid]
        owner.append(name if name in named_s else (owner[parent] if parent is not None else None))
        if owner[sid] is not None:
            named_s[owner[sid]] += own
        module_s[name.split(".")[0]] += own
        calls[name] = calls.get(name, 0) + 1
        for key, value in extra.items():
            counts[(name, key)] = counts.get((name, key), 0) + value
    metrics = {f"{name}.s": value for name, value in named_s.items()}
    metrics.update({f"{name}.calls": calls.get(name, 0) for name in CALLED})
    metrics.update({metric: counts.get(key, 0) for metric, key in COUNTED.items()})
    metrics.update({f"{mod}.self_s": value for mod, value in module_s.items()})
    metrics["cli.import_s"] = doc["import_s"]
    metrics["cli.bytes_written"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return metrics


# counts that must repeat exactly; bytes written do not, since eval.csv carries a
# wall-clock latency column whose printed length varies
COUNT_METRICS = tuple(f"{n}.calls" for n in CALLED) + tuple(COUNTED)


# ---------------------------------------------------------------- one run

class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.env = child_env()
        self.samples: list[Sample] = []

    def warm_up(self) -> None:
        """An untimed import first, so the first timed command does not pay for a cold cache."""
        log = self.work / "warmup.log"
        wall, rss, code = spawn([sys.executable, *IMPORT_SETUP], self.work, self.env, log)
        self.samples.append(Sample("warmup", wall, rss, code, output_problems(code, log)))

    def setup(self, plan: Plan) -> None:
        log = self.work / "setup.log"
        wall, rss, code = spawn([sys.executable, *plan.setup], self.work, self.env, log)
        problems = output_problems(code, log) or plan.setup_check()
        self.samples.append(Sample("setup", wall, rss, code, problems))

    def timed(self, plan: Plan, traced: bool) -> None:
        k = len(self.samples)
        out = self.work / f"out{k}"
        log = self.work / f"out{k}.log"
        spans = self.work / f"spans{k}.json"
        args = [*plan.timed, "--out-dir", str(out)]
        if traced:
            trace_id = f"{self.workload}-{self.seed}-{k}"
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), trace_id, "--", *args]
        else:
            argv = [sys.executable, "-m", "specreason.cli", *args]
        wall, rss, code = spawn(argv, self.work, self.env, log)
        problems = output_problems(code, log)
        err, layers = None, None
        if not problems:
            problems, err = plan.check(out, log.read_text(encoding="utf-8", errors="replace"))
        if traced and code == 0:
            layers = layer_metrics(json.loads(spans.read_text(encoding="utf-8")), out)
        shutil.rmtree(out, ignore_errors=True)
        self.samples.append(
            Sample("traced" if traced else "timed", wall, rss, code, problems, err, layers))


def median(values):
    return float(statistics.median(values)) if values else float("nan")


def run_untraced(runner: Runner, plan: Plan, seconds: float) -> dict:
    """Set-up and timed commands interleaved, so both see the same stretch of machine time."""
    start = time.perf_counter()
    done = 0
    while done < MIN_TIMED or time.perf_counter() - start < seconds:
        if done % plan.setup_every == 0:
            runner.setup(plan)
        runner.timed(plan, traced=False)
        done += 1
    timed = [s for s in runner.samples if s.kind == "timed" and not s.problems]
    setups = [s for s in runner.samples if s.kind == "setup" and not s.problems]
    return {"wall_s": (median([s.wall_s for s in timed]), "s", len(timed)),
            "setup_s": (median([s.wall_s for s in setups]), "s", len(setups)),
            "peak_rss_mb": (max((s.rss_mb for s in timed), default=float("nan")), "MB",
                            len(timed))}


def run_traced(runner: Runner, plan: Plan, seconds: float) -> tuple[dict, list[str]]:
    """Alternate untraced and traced commands; per-layer medians plus tracing overhead."""
    runner.setup(plan)
    start = time.perf_counter()
    while (sum(s.kind == "traced" for s in runner.samples) < MIN_TRACED
           or time.perf_counter() - start < seconds):
        runner.timed(plan, traced=False)
        runner.timed(plan, traced=True)
    traced = [s for s in runner.samples if s.kind == "traced" and s.layers is not None]
    untraced = [s for s in runner.samples if s.kind == "timed" and not s.problems]
    flags = []
    for name in COUNT_METRICS:
        seen = sorted({s.layers[name] for s in traced})
        if len(seen) > 1:
            flags.append(f"count {name} differs across traced runs: {seen}")
    units = {**dict.fromkeys(COUNT_METRICS, "count"), "cli.bytes_written": "bytes"}
    metrics = {}
    for name in (traced[0].layers if traced else {}):
        metrics[name] = (median([s.layers[name] for s in traced]), units.get(name, "s"),
                         len(traced))
    traced_wall = median([s.wall_s for s in traced])
    untraced_wall = median([s.wall_s for s in untraced])
    errs = [s.result_err for s in traced if s.result_err is not None]
    metrics.update({
        "trace.wall_s": (traced_wall, "s", len(traced)),
        "trace.untraced_wall_s": (untraced_wall, "s", len(untraced)),
        "trace.overhead_s": (traced_wall - untraced_wall, "s", len(traced)),
        "trace.count_mismatches": (len(flags), "count", len(traced)),
        "result_err": (median(errs) if errs else 0.0, "ratio", len(errs)),
    })
    return metrics, flags


# ---------------------------------------------------------------- records

def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return git.stdout.strip() if git.returncode == 0 else None


def environment(env: dict) -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            **{var: env[var] for var in (*THREAD_VARS, "SNSR_THREADS")},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu": cpu_model(), "caches": cache_sizes(),
            "git": git_revision()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = STATE / "work" / f"{workload}-{seed}-{trace:d}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = WORKLOADS[workload](seed, work)
        runner = Runner(workload, seed, work)
        runner.warm_up()
        flags: list[str] = []
        if trace:
            metrics, flags = run_traced(runner, plan, seconds)
        else:
            metrics = run_untraced(runner, plan, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [s for s in runner.samples if s.problems]
    attempted = len(runner.samples)
    errs = [s.result_err for s in runner.samples if s.result_err is not None]
    print(f"workload {workload}  seed {seed}  trace {trace:d}")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={count}")
    print(f"  {'fail_frac':40s} {len(failed) / attempted:14.6g} {'ratio':6s} "
          f"({len(failed)}/{attempted} commands)")
    if errs and not trace:
        print(f"  {'result_err':40s} {median(errs):14.6g} {'ratio':6s} n={len(errs)}")
    for sample in failed:
        print(f"  FAILED {sample.kind}: {'; '.join(sample.problems)}")
    for flag in flags:
        print(f"  FLAGGED {flag}")
    for item in plan.inputs:
        sizes = " ".join(f"{k}={v}" for k, v in item.items() if k not in ("file", "sha256"))
        print(f"  input {item['file']} sha256 {item['sha256'][:16]} {sizes}")
    env = environment(runner.env)
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "caches")
          + " " + " ".join(f"{k}={v}" for k, v in env["caches"].items()))

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "inputs": plan.inputs, "environment": env,
              "metrics": {k: {"value": v, "unit": u, "samples": c} for k, (v, u, c) in metrics.items()},
              "fail_frac": len(failed) / attempted, "result_err": median(errs) if errs else None,
              "flags": flags,
              "samples": [{"kind": s.kind, "wall_s": s.wall_s, "rss_mb": s.rss_mb, "code": s.code,
                           "problems": s.problems, "result_err": s.result_err}
                          for s in runner.samples]}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{trace:d}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"  record {path.relative_to(ROOT)}")
    return {"correct": not failed and not flags, "attempted": attempted,
            "failed": len(failed) + len(flags),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so spawn() kills and reaps the running command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "specreason" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'specreason'}; run from a full checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
