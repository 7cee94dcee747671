#!/usr/bin/env python3
"""Run every specreason command over fixed inputs and record what each run gives; or
compare two such records.

Usage:
    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python tools/sweep.py RECORD.json [--reduced]
    python tools/sweep.py --compare A.json B.json

The commands run in process, in a temporary directory, on the specreason that the
import path finds: PYTHONPATH=<checkout>/src sweeps that checkout, so one copy of this
tool records a parent and a change alike. The inputs are the awkward shapes of
tools/awkward.py (signed and unsigned graphs, the three variants, the five responses,
--rules and --model-filter models, beliefs of +-1.5^k and +-1e200), gen of the three kinds
and eval of those tasks, train configs, bench, and one run per input option that reads its
input from a pipe (/dev/fd/63) beside the same run reading the file. Five more groups
reach what those leave out: a 1,100-node graph with a hub, whose products run both
levels and the bincount tail (and infer's soft column); a 600-node unit path and a
1,000-node path of mixed weights, on which lambda_max falls back to each bound; one
refusal per message family of every input; one path, then one pipe, named twice in
one command; and attribute of a rule set whose one template peaks between the points
of a 1001-point scan. --reduced keeps two shapes and one of each of the rest: a few
seconds.

A record holds the BLAS thread settings and one entry per run: its group (the shape,
or what the run covers), argv, exit code, stdout, stderr, the warnings it raised and
the SHA-256 of each output file. The wall-clock columns, eval.csv's latency_ms and
bench.csv's median_seconds and ratio, are left out of the digests. The thread
variables must be set: a record states the settings it was taken under.

--compare prints the runs whose entries differ, grouped by command and group, and
exits 1 when any does.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from awkward import (AWKWARD, AWKWARD_RESPONSES, BELIEFS, STAR_400, awkward_runs,  # noqa: E402
                     unserve, write_inputs)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
WALL_CLOCK = {"eval.csv": ("latency_ms",), "bench.csv": ("median_seconds", "ratio")}
PIPE_FD = 63  # one descriptor number, so a piped run's argv and manifest are the same each sweep
REDUCED_SHAPES = ("path", "signed path")

PATH = AWKWARD["path"][0]
TEMPLATES = [{"name": "spread", "kind": "diffusion", "params": [2.0], "weight": 0.7},
             {"name": "edge", "kind": "highpass", "params": [1.0], "weight": 0.3}]
NARROW = [{"name": "narrow", "kind": "gaussian_bandpass", "params": [2.002, 1e-4], "weight": 1.0}]
TRAIN_CONFIGS = {
    "small": {"order": 4, "epochs": 5, "examples": 2},
    "penalised": {"order": 6, "epochs": 20, "examples": 3, "seed": 7,
                  "penalties": {"proof": 0.2, "transfer": 0.1}, "curriculum": [[0, 2], [10, 6]]},
    "diverging": {"learning_rate": 1e5, "epochs": 50, "clip_norm": None},
    "misspelt": {"order": 6, "epoch": 20},
}
STAR_FIT = ["fit", "--graph", "star.txt", "--response", "diffusion", "--tau", "0.01",
            "--out-dir", "star"]  # a filter whose interval covers every task's spectrum
BIG_N = 1100  # past the 1,024 rows a level needs: three levels and, from the hub, a tail
BIG = (f"{BIG_N} {BIG_N - 1 + len(range(10, BIG_N, 10))}\n"
       + "".join(f"{k} {k + 1} {1 + k % 3}\n" for k in range(BIG_N - 1))
       + "".join(f"0 {k} 1\n" for k in range(10, BIG_N, 10)))
UNIT_PATH = "600 599\n" + "".join(f"{k} {k + 1} 1\n" for k in range(599))
# unconverged too, but the Zhou-Li bound theta + beta lies below Gershgorin's
MIXED_PATH = "1000 999\n" + "".join(f"{k} {k + 1} {1 + k % 3}\n" for k in range(999))
LONG_PATH = "2049 2048\n" + "".join(f"{k} {k + 1} 1\n" for k in range(2048))
TINY = "4 3\n0 1 0.01\n1 2 0.01\n2 3 0.01\n"  # lambda_max near 0.04: a filter for no other graph
EDGE_LISTS = {  # name -> an edge list that fit refuses, or that load_graph reads line by line
    "empty": "", "comments-only": "# none\n\n", "header-words": "a b\n",
    "header-zero": "0 0\n", "short": "3 2\n0 1 1\n", "trailing": "3 1\n0 1 1\n1 2 1\n",
    "unparsable": "3 2\n0 1 1\n0 x 1\n", "past-int64": "3 1\n0 99999999999999999999 1\n",
    "hash-after-data": "3 1\n0 1 1 # c\n", "invalid-before-unparsable": "3 2\n0 5 1\n0 x 1\n",
    "self-loop": "3 1\n1 1 1\n", "out-of-range": "3 1\n0 3 1\n",
    "duplicate": "3 2\n0 1 1\n1 0 2\n", "non-finite": "3 1\n0 1 inf\n",
    "zero-weight": "3 1\n0 1 0\n", "negative": "3 1\n0 1 -1\n",
    "arabic-digit": "# one edge\n3 1\n0 1 \u0661\n", "not-utf8": "3 1\n0 1 \udcff\n",
}
BELIEF_FILES = {  # name -> a 4-node belief file that load_beliefs refuses, or reads line by line
    "not-a-float": "1\nx\n1\n1\n", "two-floats": "1 2\n3 4\n", "non-finite": "1\ninf\n1\n1\n",
    "none": "# none\n\n", "too-few": "1\n2\n3\n", "hash-after-data": "1\n1.0 # c\n1\n1\n",
    "arabic-digit": "\u0661\n2\n# c\n3\n4\n", "not-utf8": "1\n\udcff\n",
}
JSON_INPUTS = {  # name -> (option, document): one per refusal of the strict JSON reader
    "truncated": ("--config", '{"order": 4'),
    "wrong-type": ("--config", '{"epochs": "ten"}'),
    "repeated": ("--config", '{"epochs": 20, "epochs": 0}'),
    "nested-unknown": ("--config", '{"penalties": {"rule_consistency": 0}}'),
    "negative-order": ("--config", '{"order": -1}'),
    "no-examples": ("--config", '{"examples": 0}'),
    "proof-bands": ("--config", '{"penalties": {"proof": 0.5}, "allowed_bands": [5]}'),
    "missing-key": ("--rulebase", '{"atoms": ["n0", "n1", "n2", "n3"]}'),
    "unknown-atom": ("--rulebase", '{"atoms": ["n0", "n1", "n2", "n3"], '
                                   '"clauses": [{"body": ["n9"], "head": "n1"}]}'),
    "few-atoms": ("--rulebase", '{"atoms": ["n0", "n1"], "clauses": []}'),
    "not-a-list": ("--filter", '{"lambda_max": 2, "theta": 1}'),
    "bad-template": ("--rules", '[{"name": "a", "kind": "nope", "params": []}]'),
    "curriculum-entry": ("--config", '{"curriculum": [[0, "x"]]}'),
    "not-utf8": ("--config", '{"order": 4}\udcff'),
    "task-edge": ("--tasks", '{"graph": {"n": 3, "edges": [[0, 1, 1], [1, 1, 1]]}, '
                             '"beliefs": [1, 0, 0], "labels": [1, 0, 0]}'),
    "task-endpoint": ("--tasks", '{"graph": {"n": 3, "edges": [[0, 1.5, 1]]}, '
                                 '"beliefs": [1, 0, 0], "labels": [1, 0, 0]}'),
    "task-no-nodes": ("--tasks", '{"graph": {"n": 0, "edges": []}, "beliefs": [], "labels": []}'),
    "task-graph-kind": ("--tasks", '{"graph": {"n": 1, "edges": [], "kind": "odd"}, '
                                   '"beliefs": [1], "labels": [1]}'),
    "task-allowed-bands": ("--tasks", '{"graph": {"n": 2, "edges": [[0, 1, 1]]}, "beliefs": '
                                      '[1, 0], "labels": [1, 0], "allowed_bands": [5]}'),
}
SIGNED_TASK = ('{"graph": {"n": 2, "edges": [[0, 1, -1]], "kind": "signed"}, "beliefs": [1, 0], '
               '"labels": [1, 0]}')
KINDLESS_SIGNED_TASK = SIGNED_TASK.replace(', "kind": "signed"', "")
P2_TASK = '{"graph": {"n": 2, "edges": [[0, 1, 1]]}, "beliefs": [1, -1], "labels": [1, 0]}'
GEN = {"community": ["--kind", "community", "--n", "40", "--intra-p", "0.4", "--inter-p", "0.02"],
       "contradiction": ["--kind", "contradiction", "--n", "40", "--base-p", "0.2",
                         "--planted", "4"],
       "chain": ["--kind", "chain", "--depth", "4", "--branching", "2"]}


def write_models(directory: Path) -> None:
    """The rule templates and the train configs every group may read."""
    (directory / "t.json").write_text(json.dumps(TEMPLATES))
    for name, config in TRAIN_CONFIGS.items():
        (directory / f"train-{name}.json").write_text(json.dumps(config))


def shape_runs(variants: tuple[str, ...]) -> list[list[str]]:
    """awkward_runs, then per variant attribute with each file model, and train."""
    runs = awkward_runs(variants)
    for variant in variants:
        graph = ["--graph", "g.txt", "--variant", variant]
        for x in BELIEFS:
            runs += [["attribute", *graph, "--beliefs", x, "--rules", "t.json",
                      "--out-dir", f"attribute-{variant}-rules-{x}"],
                     ["attribute", *graph, "--beliefs", x,
                      "--model-filter", f"fit-{variant}-diffusion/filter.json",
                      "--out-dir", f"attribute-{variant}-filter-{x}"]]
        runs.append(["train", *graph, "--config", "train-small.json",
                     "--out-dir", f"train-{variant}"])
    return runs


def task_runs(reduced: bool) -> list[list[str]]:
    """gen of each kind, then eval of the tasks under every model, clean and perturbed."""
    gens = [["gen", *GEN[kind], "--seed", str(seed), "--out-dir", f"{kind}-{seed}"]
            for kind in (["chain"] if reduced else GEN) for seed in ((0,) if reduced else (0, 3))]
    tasks = [f"{argv[-1]}/task.json" for argv in gens]
    models = {response: ["--response", response, *params]
              for response, params in AWKWARD_RESPONSES.items()}
    models.update(rules=["--rules", "t.json"], filter=["--model-filter", "star/filter.json"])
    if reduced:
        models = {name: models[name] for name in ("diffusion", "filter")}
    evals = [["eval", "--tasks", *tasks, *model, "--latency-runs", "2", "--perturb-magnitude",
              magnitude, "--out-dir", f"eval-{name}-{magnitude}"]
             for name, model in models.items() for magnitude in ("0", "0.5")]
    return [STAR_FIT, *gens, *evals]


def piped_runs() -> list[tuple[list[str], str]]:
    """(argv, option) for each input option: the run reads that option's file from a pipe."""
    infer = ["infer", "--graph", "g.txt", "--filter", "fit/filter.json", "--beliefs", "x.txt"]
    return [
        (["fit", "--graph", "g.txt", "--response", "diffusion", "--order", "6"], "--graph"),
        (infer, "--beliefs"),
        (infer, "--filter"),
        ([*infer, "--rulebase", "rules.json"], "--rulebase"),
        (["eval", "--tasks", "task/task.json", "--rules", "t.json", "--latency-runs", "1"],
         "--rules"),
        (["eval", "--tasks", "task/task.json", "--model-filter", "star/filter.json",
          "--latency-runs", "1"], "--model-filter"),
        (["eval", "--tasks", "task/task.json", "--response", "identity", "--latency-runs", "1"],
         "--tasks"),
        (["train", "--graph", "g.txt", "--config", "train-small.json"], "--config"),
    ]


def large_runs() -> list[list[str]]:
    """Every command that multiplies or decomposes the operator, on big.txt."""
    graph = ["--graph", "big.txt"]
    infer = ["infer", *graph, "--filter", "big/filter.json", "--beliefs", "big-x.txt",
             "--temperature", "2"]
    return [["fit", *graph, "--response", "diffusion", "--order", "12", "--out-dir", "big"],
            [*infer, "--out-dir", "big-served"], [*infer, "--out-dir", "big-text"],
            ["attribute", *graph, "--beliefs", "big-x.txt", "--response", "highpass",
             "--out-dir", "big-attribute"],
            ["perturb", *graph, "--beliefs", "big-x.txt", "--out-dir", "big-perturb"],
            ["train", *graph, "--config", "train-small.json", "--out-dir", "big-train"]]


def refusal_runs() -> list[list[str]]:
    """One run per message family: of the edge lists, the belief files and the JSON
    inputs; a missing file; fit without a response; a bad --tau, a bad --magnitude, a
    perturb --band outside its --bands, a --bands of 0 in perturb and attribute, a
    transfer --points of 1, a fit --order of -1 and an infer --temperature of 0 and
    --threshold of nan on missing files, refused before any file is read; an
    unparsable --coeffs; a write that fails; a signed graph under an unsigned variant, and
    eval of a signed task under one, after a task it takes; eval perturbing a band of a
    task that holds no eigenvalue there, after a task that has some; a rulebase of another
    size; a filter fit on another graph and one past its interval; the dense cap; infer
    past an operator.npz that names other graph bytes or cannot be read, which takes the
    text path; a graph that is no UTF-8 in infer; a short belief file in attribute and on
    each side of transfer; and transfer past a good source to a bad target graph."""
    infer = ["infer", "--graph", "g.txt", "--filter", "fit/filter.json", "--beliefs", "x.txt"]
    transfer = ["transfer", "--source-graph", "g.txt", "--source-beliefs", "x.txt",
                "--target-graph", "g.txt", "--target-beliefs", "x.txt"]
    missing_infer = ["infer", "--graph", "missing.txt", "--filter", "missing.json",
                     "--beliefs", "missing.txt"]
    runs = [["perturb", "--graph", "g.txt", "--beliefs", f"beliefs-{name}.txt",
             "--out-dir", f"beliefs-{name}"] for name in BELIEF_FILES]
    runs += [["fit", "--graph", f"edges-{name}.txt", "--response", "identity",
              "--out-dir", f"edges-{name}"] for name in EDGE_LISTS]
    runs += [["fit", "--graph", "g.txt", "--response", "diffusion", "--out-dir", "fit"],
             ["fit", "--graph", "tiny.txt", "--response", "diffusion", "--out-dir", "tiny"],
             ["gen", "--kind", "chain", "--depth", "3", "--out-dir", "task"]]
    commands = {"--config": ["train", "--graph", "g.txt"], "--rulebase": infer,
                "--filter": ["infer", "--graph", "g.txt", "--beliefs", "x.txt"],
                "--rules": ["attribute", "--graph", "g.txt", "--beliefs", "x.txt"],
                "--tasks": ["eval", "--response", "identity", "--latency-runs", "1"]}
    for name, (option, _) in JSON_INPUTS.items():
        runs.append([*commands[option], option, f"json-{name}.json", "--out-dir", f"json-{name}"])
    return runs + [
        ["fit", "--graph", "missing.txt", "--response", "identity", "--out-dir", "missing"],
        ["fit", "--graph", "g.txt", "--out-dir", "no-response"],
        ["fit", "--graph", "missing.txt", "--response", "diffusion", "--tau", "-1",
         "--out-dir", "negative-tau"],
        ["perturb", "--graph", "missing.txt", "--beliefs", "x.txt", "--magnitude", "-1",
         "--out-dir", "negative-magnitude"],
        ["perturb", "--graph", "missing.txt", "--beliefs", "missing.txt", "--band", "5",
         "--out-dir", "band-outside"],
        ["perturb", "--graph", "missing.txt", "--beliefs", "missing.txt", "--bands", "0",
         "--out-dir", "perturb-no-bands"],
        ["attribute", "--graph", "missing.txt", "--beliefs", "missing.txt", "--response",
         "identity", "--bands", "0", "--out-dir", "attribute-no-bands"],
        ["transfer", "--source-graph", "missing.txt", "--source-beliefs", "missing.txt",
         "--target-graph", "missing.txt", "--target-beliefs", "missing.txt", "--points", "1",
         "--out-dir", "one-point"],
        ["fit", "--graph", "missing.txt", "--response", "identity", "--order", "-1",
         "--out-dir", "negative-order"],
        [*missing_infer, "--temperature", "0", "--out-dir", "zero-temperature"],
        [*missing_infer, "--threshold", "nan", "--out-dir", "nan-threshold"],
        ["fit", "--graph", "g.txt", "--response", "polynomial", "--coeffs", "1,x",
         "--out-dir", "unparsable-coeffs"],
        ["fit", "--graph", "g.txt", "--response", "identity", "--out-dir", "taken"],
        ["fit", "--graph", "signed.txt", "--variant", "normalized", "--response", "identity",
         "--out-dir", "signed"],
        ["eval", "--tasks", "task/task.json", "signed-task.json", "--response", "diffusion",
         "--latency-runs", "1", "--out-dir", "eval-signed-task"],
        ["eval", "--tasks", "kindless-signed-task.json", "--variant", "signed", "--response",
         "identity", "--latency-runs", "1", "--out-dir", "eval-kindless-signed-task"],
        ["eval", "--tasks", "task/task.json", "p2-task.json", "--response", "diffusion",
         "--perturb-band", "1", "--perturb-magnitude", "0.5", "--latency-runs", "1",
         "--out-dir", "eval-empty-band"],
        ["infer", "--graph", "g.txt", "--filter", "tiny/filter.json", "--beliefs", "x.txt",
         "--out-dir", "another-graph"],
        ["attribute", "--graph", "g.txt", "--beliefs", "x.txt", "--model-filter",
         "tiny/filter.json", "--out-dir", "past-interval"],
        ["eval", "--tasks", "task/task.json", "--model-filter", "tiny/filter.json",
         "--latency-runs", "1", "--out-dir", "eval-past-interval"],
        ["attribute", "--graph", "long.txt", "--beliefs", "long-x.txt", "--response",
         "identity", "--out-dir", "dense-cap"],
        [*infer[:2], "commented.txt", *infer[3:], "--out-dir", "other-bytes"],
        [*infer[:4], "corrupt/filter.json", *infer[5:], "--out-dir", "unreadable-operator"],
        [*infer[:2], "edges-not-utf8.txt", *infer[3:], "--out-dir", "infer-not-utf8"],
        ["attribute", "--graph", "g.txt", "--beliefs", "beliefs-too-few.txt", "--response",
         "identity", "--out-dir", "attribute-too-few"],
        [*transfer[:4], "beliefs-too-few.txt", *transfer[5:], "--out-dir", "source-too-few"],
        [*transfer[:8], "beliefs-too-few.txt", "--out-dir", "target-too-few"],
        [*transfer[:6], "edges-unparsable.txt", *transfer[7:], "--out-dir", "target-unparsable"],
    ]


def groups(reduced: bool):
    """(group, write its inputs into the cwd, its runs); a run is argv, or (argv, option)
    for a run that reads the file the option names from one pipe, each time it is named."""
    for shape in (REDUCED_SHAPES if reduced else AWKWARD):
        yield (shape, lambda shape=shape: write_inputs(Path.cwd(), shape),
               shape_runs(AWKWARD[shape][1]))

    def star():
        Path("star.txt").write_text(STAR_400)

    yield "tasks", star, task_runs(reduced)
    train = [["train", "--graph", "g.txt", "--config", f"train-{name}.json",
              "--out-dir", f"train-{name}"] for name in TRAIN_CONFIGS]
    yield "train configs", lambda: Path("g.txt").write_text(PATH), train[:1] if reduced else train
    bench = [["bench", "--base-edges", "100", "--doublings", "1", "--runs", "3",
              "--out-dir", "edges"],
             ["bench", "--sweep", "order", "--base-edges", "100", "--base-order", "2",
              "--doublings", "1", "--runs", "3", "--out-dir", "order"]]
    yield "bench", lambda: None, bench[:1] if reduced else bench

    def pipe_inputs():
        write_inputs(Path.cwd(), "path")
        star()
        Path("rules.json").write_text(json.dumps(
            {"atoms": ["n0", "n1", "n2", "n3"], "clauses": [{"body": ["n0"], "head": "n1"}]}))

    runs = [["fit", "--graph", "g.txt", "--response", "diffusion", "--order", "6",
             "--out-dir", "fit"], STAR_FIT, ["gen", "--kind", "chain", "--depth", "3",
                                             "--out-dir", "task"]]
    for option_argv, option in piped_runs():
        name = option.lstrip("-")
        runs += [[*option_argv, "--out-dir", f"file-{name}"],
                 ([*option_argv, "--out-dir", f"piped-{name}"], option)]
    yield "pipes", pipe_inputs, runs

    def large():
        Path("big.txt").write_text(BIG)
        Path("big-x.txt").write_text("".join(f"{(-1.5) ** (k % 5)}\n" for k in range(BIG_N)))

    yield "large", large, large_runs()[:1] if reduced else large_runs()

    def unit_path():
        Path("g.txt").write_text(UNIT_PATH)
        Path("x.txt").write_text("".join(f"{(-1) ** k}\n" for k in range(600)))
        Path("mixed.txt").write_text(MIXED_PATH)

    fallback = [["fit", "--graph", "g.txt", "--response", "diffusion", "--out-dir", "fit"],
                ["infer", "--graph", "g.txt", "--filter", "fit/filter.json", "--beliefs", "x.txt",
                 "--out-dir", "infer"],
                ["fit", "--graph", "mixed.txt", "--response", "diffusion", "--out-dir", "mixed"]]
    yield "fallback", unit_path, fallback[:1] if reduced else fallback

    def refusal_inputs():
        write_inputs(Path.cwd(), "path")
        files = {"tiny.txt": TINY, "signed.txt": AWKWARD["signed path"][0], "long.txt": LONG_PATH,
                 "signed-task.json": SIGNED_TASK, "kindless-signed-task.json": KINDLESS_SIGNED_TASK,
                 "p2-task.json": P2_TASK,
                 "long-x.txt": "1\n" * 2049, "commented.txt": "# the same graph\n" + PATH}
        files.update((f"edges-{name}.txt", text) for name, text in EDGE_LISTS.items())
        files.update((f"beliefs-{name}.txt", text) for name, text in BELIEF_FILES.items())
        files.update((f"json-{name}.json", text) for name, (_, text) in JSON_INPUTS.items())
        for name, text in files.items():  # a lone surrogate writes the byte it escapes
            Path(name).write_bytes(text.encode("utf-8", "surrogateescape"))
        # fit's filter beside an operator.npz that is no zip file
        Path("corrupt").mkdir()
        Path("corrupt/operator.npz").write_bytes(b"not a zip file")
        Path("corrupt/filter.json").symlink_to(Path("..", "fit", "filter.json"))
        Path("taken/filter.json").mkdir(parents=True)  # no file can replace a directory

    runs = refusal_runs()
    yield "refusals", refusal_inputs, runs[:1] if reduced else runs
    transfer = ["transfer", "--source-graph", "g.txt", "--source-beliefs", "x.txt",
                "--target-graph", "g.txt", "--target-beliefs", "x.txt", "--points", "8"]
    tasks = ["eval", "--tasks", "task/task.json", "task/task.json", "--response", "identity",
             "--latency-runs", "1"]
    runs = [([*transfer, "--out-dir", "piped-graphs"], "--source-graph"),
            ([*transfer, "--out-dir", "piped-beliefs"], "--source-beliefs"),
            [*transfer, "--out-dir", "file-transfer"],
            ["gen", "--kind", "chain", "--depth", "3", "--out-dir", "task"],
            ([*tasks, "--out-dir", "piped-tasks"], "--tasks"), [*tasks, "--out-dir", "file-tasks"]]
    yield "repeated", lambda: write_inputs(Path.cwd(), "path"), runs[:1] if reduced else runs

    def narrow():
        write_inputs(Path.cwd(), "path")
        Path("narrow.json").write_text(json.dumps(NARROW))

    yield "narrow template", narrow, [["attribute", "--graph", "g.txt", "--beliefs", "x.txt",
                                       "--rules", "narrow.json", "--out-dir", "narrow"]]


def digests(out_dir: Path) -> dict:
    """The SHA-256 of each file in out_dir, its wall-clock columns left out."""
    found = {}
    if out_dir.is_dir():
        for path in sorted(p for p in out_dir.iterdir() if p.is_file()):
            data = path.read_bytes()
            if path.name in WALL_CLOCK:
                rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
                keep = [k for k, name in enumerate(rows[0]) if name not in WALL_CLOCK[path.name]]
                text = io.StringIO()
                csv.writer(text, lineterminator="\n").writerows([[row[k] for k in keep]
                                                                  for row in rows])
                data = text.getvalue().encode("utf-8")
            found[path.name] = hashlib.sha256(data).hexdigest()
    return found


def piped(data: bytes) -> str:
    """The path of a pipe that holds data, its write end closed, at descriptor PIPE_FD. The
    write blocks past the pipe's buffer, 64 KiB on Linux; each piped input is a few KiB."""
    read, write = os.pipe()
    with os.fdopen(write, "wb") as fh:
        fh.write(data)
    os.dup2(read, PIPE_FD)
    os.close(read)
    return f"/dev/fd/{PIPE_FD}"


def run(main, argv: list[str]) -> dict:
    """One in-process run of main on argv, as an entry of the record."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusals
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
            "files": digests(Path(argv[argv.index("--out-dir") + 1]))}


def sweep(reduced: bool) -> dict:
    from specreason.cli import main
    record = {"env": {var: os.environ[var] for var in THREAD_VARS}, "runs": []}
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory() as root:
        try:
            for number, (group, setup, runs) in enumerate(groups(reduced)):
                directory = Path(root) / str(number)
                directory.mkdir()
                os.chdir(directory)
                setup()
                write_models(directory)
                for item in runs:
                    argv, option = item if isinstance(item, tuple) else (item, None)
                    if option is not None:  # the option's path, wherever it is named
                        path = argv[argv.index(option) + 1]
                        fd = piped(Path(path).read_bytes())
                        argv = [fd if arg == path else arg for arg in argv]
                    unserve(argv)
                    try:
                        record["runs"].append({"group": group, **run(main, argv)})
                    finally:
                        if option is not None:
                            os.close(PIPE_FD)
        finally:
            os.chdir(cwd)
    return record


def compare(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in (a_path, b_path))
    if a["env"] != b["env"]:
        print(f"note: thread settings differ: {a['env']} against {b['env']}")
    entries = [{(run["group"], tuple(run["argv"])): run for run in record["runs"]}
               for record in (a, b)]
    differing = defaultdict(list)
    for key in dict.fromkeys([*entries[0], *entries[1]]):
        left, right = (runs.get(key) for runs in entries)
        if left is None or right is None:
            fields = [f"only in {a_path if right is None else b_path}"]
        else:
            fields = [field for field in ("code", "stdout", "stderr", "warnings")
                      if left[field] != right[field]]
            fields += [f"files[{name}]" for name in sorted({*left["files"], *right["files"]})
                       if left["files"].get(name) != right["files"].get(name)]
        if fields:
            differing[key[1][0], key[0]].append((key[1], fields))
    total = len(dict.fromkeys([*entries[0], *entries[1]]))
    for (command, group), runs in sorted(differing.items()):
        print(f"{command} / {group}: {len(runs)} differ")
        for argv, fields in runs:
            print(f"  {' '.join(argv)}\n    {', '.join(fields)}")
    count = sum(map(len, differing.values()))
    print(f"{count} of {total} runs differ" if count else f"all {total} runs agree")
    return 1 if count else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("record", nargs="?", help="the record to write")
    parser.add_argument("--reduced", action="store_true", help="two shapes, one of the rest")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two records")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.record is None:
        parser.error("name the record to write, or --compare two")
    unset = [var for var in THREAD_VARS if not os.environ.get(var)]
    if unset:
        print(f"error: set {' and '.join(unset)}: a record states the BLAS threads it was "
              "taken with", file=sys.stderr)
        return 2
    record = sweep(args.reduced)
    Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(record['runs'])} runs recorded in {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
