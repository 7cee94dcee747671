"""Command line front end.

This is the one module that reads files and the one that names them. _read_input turns
each input into a value: it reads the path once, as bytes, however often it is named,
records their SHA-256 and parses them with a library loader of bytes (so an input may be
a pipe) and any check against the operator the value feeds; a refusal, a decode error
too, starts with the path and comes before the run's first eigendecomposition or Lanczos
step. Options that make a library object (a response, a PerturbConfig, an EvalConfig)
become it, and band and point counts are checked, before any input is read. A subcommand
writes nothing: it returns its files (name to text, or to a function that writes bytes to
an open binary file), its inputs (path to the digest and the bytes parsed) and a summary.
main then makes --out-dir, so a refused run leaves none, replaces each file in it through
a .tmp sibling, writes manifest.json (the arguments and input digests) last and prints the
summary. Outputs are byte-identical across re-runs with the same inputs and seeds;
wall-clock latency columns are the one documented exception.

fit and train also write operator.npz beside filter.json: the product layout
build_laplacian assembled the Laplacian in, and the digest of the graph file. When that
digest is the --graph file's and the filter's graph_sha256 fingerprints the stored layout,
infer loads it in place of parsing the same graph again, scales it in place and runs its
products on it. An older operator.npz, which held CSR arrays, names no layout: infer takes
the text path and writes the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import zipfile
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, filters as ft, graph as gr, rules as rl, taskgen as tg, training as tr
from ._schema import Default, Nullable, read_json


def _atomic_write(path: Path, content) -> None:
    """path replaced by content: text, or a function that writes bytes to an open binary file.
    The .tmp sibling written first is removed when the write or the rename fails."""
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "wb")  # once open succeeds, the .tmp is this call's to remove
    try:
        with fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_manifest(out_dir: Path, args: argparse.Namespace, inputs: dict) -> None:
    """manifest.json; inputs maps each input path to (its digest, its bytes)."""
    # out_dir stays out of the manifest so runs into different directories
    # compare byte-identical
    arguments = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out_dir")}
    payload = {
        "command": args.command,
        "arguments": arguments,
        "inputs": {path: digest for path, (digest, _) in inputs.items()},
    }
    _atomic_write(out_dir / "manifest.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_input(path, inputs: dict, parse):
    """parse(the bytes of the input file at path), read and hashed at a command's first naming
    of path: inputs[path] keeps (their SHA-256, the bytes) for any later one, a pipe's too. A
    ValueError or OverflowError of parse, a decode error too, is raised as one naming path."""
    if path not in inputs:
        raw = Path(path).read_bytes()
        inputs[path] = (hashlib.sha256(raw).hexdigest(), raw)
    try:
        return parse(inputs[path][1])
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _beliefs(n: int):
    """The parse of a belief file for an operator of n nodes, its length checked as it is read."""
    return lambda raw: gr.belief_values(gr.load_beliefs(raw), n)


def _rulebase(raw: bytes, n: int) -> rl.RuleBase:
    """The rulebase raw holds, refused unless it names one atom per node of a graph of n."""
    rb = rl.load_rulebase(raw)
    if len(rb.atoms) != n:
        raise ValueError(f"rulebase names {len(rb.atoms)} atoms but the graph has {n} nodes")
    return rb


def _predicates_text(y: np.ndarray, predicates: rl.PredicateVector) -> str:
    """predicates.csv as gr.csv_text writes and refuses it, in one %-format over the columns."""
    for name, values in (("belief", y), ("soft", predicates.soft)):
        if values is not None and not np.isfinite(values).all():
            gr.float_text(values[~np.isfinite(values)][0], name)
    columns = [range(y.size), y.tolist()]
    if predicates.soft is not None:
        columns.append(predicates.soft.tolist())
    columns.append(predicates.hard.tolist())
    cells = [None] * (len(columns) * y.size)
    for k, column in enumerate(columns):
        cells[k::len(columns)] = column
    soft = gr.FLOAT_FORMAT if predicates.soft is not None else ""
    row = f"%d,{gr.FLOAT_FORMAT},{soft},%d\n"
    return "node,belief,soft,hard\n" + row * y.size % tuple(cells)


def _add_response_args(parser: argparse.ArgumentParser, other_models: bool) -> None:
    """--response and its parameters; with other_models, --model-filter and --rules too,
    exclusive with --response: one model source per run."""
    models = parser.add_mutually_exclusive_group(required=True)
    if other_models:
        models.add_argument("--model-filter", default=None, help="filter JSON to evaluate")
        models.add_argument("--rules", default=None, help="rule template JSON to evaluate")
    models.add_argument("--response", choices=ft.ANALYTIC_KINDS,
                        help="analytic response template")
    parser.add_argument("--tau", type=float, default=1.0, help="diffusion time scale")
    parser.add_argument("--beta", type=float, default=1.0, help="highpass knee")
    parser.add_argument("--center", type=float, default=1.0, help="bandpass center")
    parser.add_argument("--width", type=float, default=0.5, help="bandpass width")
    parser.add_argument("--coeffs", type=str, default="",
                        help="comma-separated polynomial coefficients")


def _response_from_args(args) -> ft.AnalyticResponse:
    kind = args.response
    if kind == "diffusion":
        return ft.diffusion(args.tau)
    if kind == "highpass":
        return ft.highpass(args.beta)
    if kind == "gaussian_bandpass":
        return ft.gaussian_bandpass(args.center, args.width)
    if kind == "identity":
        return ft.identity()
    try:
        return ft.polynomial(*(float(c) for c in args.coeffs.split(",") if c.strip()))
    except ValueError as exc:
        raise ValueError(f"--coeffs: {exc}") from None


def _load_model(args, inputs: dict):
    """The model --model-filter, --rules or --response names; a file read enters inputs."""
    if args.model_filter:
        return _read_input(args.model_filter, inputs, ft.load_filter)
    if args.rules:
        return _read_input(args.rules, inputs, rl.load_templates)
    return _response_from_args(args)


def _load_operator(args, path, inputs: dict) -> gr.Laplacian:
    """The Laplacian of the graph file at path, as --graph-kind and --variant say."""
    return _read_input(path, inputs, lambda raw: gr.build_laplacian(
        gr.load_graph(raw, kind=args.graph_kind), variant=args.variant))


_OPERATOR_FILE = "operator.npz"
_UNREADABLE = (OSError, EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile, zlib.error)


def _write_operator(file, lap: gr.Laplacian, source: str) -> None:
    """operator.npz, streamed into the binary file: lap's product layout, one member
    per array of gr.layout_arrays, and source_sha256, the digest of the graph file.

    An uncompressed .npz, as np.savez writes one, except that every member carries
    a fixed timestamp, so the same operator always gives the same bytes.
    """
    members = (*gr.layout_arrays(lap).items(), ("source_sha256", np.array(source)))
    with zipfile.ZipFile(file, "w", zipfile.ZIP_STORED) as archive:
        for name, values in members:
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, values, allow_pickle=False)


def _compiled_operator(path: Path, source: str, variant: str) -> gr.Laplacian | None:
    """The Laplacian whose layout the operator.npz at path holds, if the file names the
    graph bytes whose digest is source; None when it is missing, unreadable, of an
    older format or names others.

    The arrays are only converted, never checked: the caller serves them only when
    their fingerprint is the one a filter's bound record holds.
    """
    try:
        with np.load(path, allow_pickle=False) as npz:
            if str(npz["source_sha256"]) != source:
                return None
            return gr.Laplacian.from_layout(npz, variant)
    except _UNREADABLE:
        return None


def _lambda_max(lap: gr.Laplacian,
                stored: gr.LambdaMaxEstimate | None = None) -> gr.LambdaMaxEstimate:
    """The lambda_max bound, lap's one estimate unless stored is given; one that fell
    back is reported on stderr either way."""
    estimate = stored if stored is not None else gr.estimate_lambda_max(lap)
    if not estimate.converged:
        print(f"warning: lambda_max did not converge in {estimate.iterations} Lanczos steps; "
              f"using the {estimate.method} bound {gr.float_text(estimate.value)}",
              file=sys.stderr)
    return estimate


def _stored_estimate(f: ft.ChebyshevFilter, lap: gr.Laplacian,
                     kind: str) -> gr.LambdaMaxEstimate | None:
    """f's bound, the estimate its lambda_max came from, if its fingerprint names this operator."""
    if f.bound is None or f.graph_sha256 != gr.graph_sha256(lap, kind, f.lambda_max):
        return None
    return f.bound


def cmd_fit(args) -> tuple[dict, dict, str]:
    inputs = {}
    response = _response_from_args(args)
    lap = _load_operator(args, args.graph, inputs)
    estimate = _lambda_max(lap)
    fitted = ft.fit_chebyshev(response, args.order, estimate.value)
    error = ft.fit_grid_error(fitted, response)
    fitted = replace(fitted, bound=estimate,
                     graph_sha256=gr.graph_sha256(lap, args.graph_kind, estimate.value))
    return ({"filter.json": fitted.to_json() + "\n",
             _OPERATOR_FILE: lambda file: _write_operator(file, lap, inputs[args.graph][0])},
            inputs,
            f"fit order={args.order} lambda_max={gr.float_text(estimate.value)} "
            f"lambda_bound={estimate.method} grid_error={error:.3e}")


def cmd_infer(args) -> tuple[dict, dict, str]:
    inputs = {}
    _read_input(args.graph, inputs, lambda raw: None)  # its digest names a stored operator
    try:
        f = _read_input(args.filter, inputs, ft.load_filter)
    except (OSError, ValueError):  # a bad graph is reported before a bad filter
        _read_input(args.graph, inputs, lambda raw: gr.load_graph(raw, kind=args.graph_kind))
        raise
    # the operator fit stored beside the filter serves when it is the one the filter was
    # bounded on; otherwise the graph is parsed and assembled
    lap = _compiled_operator(Path(args.filter).with_name(_OPERATOR_FILE),
                             inputs[args.graph][0], args.variant) if f.bound is not None else None
    stored = None if lap is None else _stored_estimate(f, lap, args.graph_kind)
    if stored is None:
        lap = _load_operator(args, args.graph, inputs)
        stored = _stored_estimate(f, lap, args.graph_kind)
    n = lap.node_count
    rb = (_read_input(args.rulebase, inputs, lambda raw: _rulebase(raw, n))
          if args.rulebase else None)
    x = _read_input(args.beliefs, inputs, _beliefs(n))
    estimate = _lambda_max(lap, stored)
    if not ft.lambda_max_matches(f.lambda_max, estimate.value):
        raise ValueError(
            f"{args.filter}: on {args.graph}, filter lambda_max {f.lambda_max} does not match "
            f"this graph's estimate {estimate.value}; refit the filter on this graph")
    lt = gr.scale_laplacian(lap, f.lambda_max)
    y = ft.cheb_apply(f, lt, x)
    predicates = rl.project_predicates(y, threshold=args.threshold, temperature=args.temperature)
    files = {"predicates.csv": _predicates_text(y, predicates)}

    if rb is not None:
        facts = {rb.atoms[i] for i in range(n) if predicates.hard[i]}
        closure = rl.forward_chain(rb, facts)
        files["closure.txt"] = "\n".join(sorted(closure)) + "\n"
    return files, inputs, f"infer nodes={n} facts={int(predicates.hard.sum())}"


_TRAIN = {"order": Default(int, 8), "examples": Default(int, 8),
          "teacher": Default({"kind": str, "params": Default([float], [])},
                             {"kind": "diffusion", "params": [1.0]}),
          "penalties": Default({"proof": Default(float, 0.0),
                                "transfer": Default(float, 0.0)}, {}),
          "curriculum": Default(Nullable([(int, int)]), None),
          "allowed_bands": Default([int], [0]), "learning_rate": Default(float, 0.05),
          "epochs": Default(int, 100), "clip_norm": Default(Nullable(float), 10.0),
          "seed": Default(int, 0)}


def _train_plan(config: dict) -> dict:
    """config with the objects train runs with in its sections' places; refusals name keys."""
    for key, least in (("order", 0), ("examples", 1)):
        if config[key] < least:
            raise ValueError(f"{key} must be at least {least}, got {config[key]!r}")
    weights, stages, teacher = config["penalties"], config["curriculum"], config["teacher"]
    penalties = tr.PenaltyWeights(proof=weights["proof"], transfer=weights["transfer"])
    bands = config["allowed_bands"]  # read by the proof penalty alone, over three bands
    if penalties.proof > 0 and not (bands and set(bands) <= {0, 1, 2}):
        raise ValueError("allowed_bands must name one or more of bands 0, 1 and 2 when "
                         f"penalties.proof > 0, got {bands}")
    return dict(config,
                teacher=ft.AnalyticResponse(kind=teacher["kind"], params=tuple(teacher["params"])),
                penalties=penalties,
                curriculum=tr.CurriculumSchedule(stages=stages) if stages else None,
                train=tr.TrainConfig(learning_rate=config["learning_rate"],
                                     epochs=config["epochs"], clip_norm=config["clip_norm"]))


def cmd_train(args) -> tuple[dict, dict, str]:
    inputs = {}
    plan = _read_input(args.config, inputs, lambda raw: read_json(raw, _TRAIN, _train_plan))
    order, penalties = plan["order"], plan["penalties"]
    lap = _load_operator(args, args.graph, inputs)
    estimate = _lambda_max(lap)
    lt = gr.scale_laplacian(lap, estimate.value)
    teacher = ft.fit_chebyshev(plan["teacher"], order, estimate.value)

    # the student's recurrence on each example is the teacher's: one trace gives both
    # the target and the example training reuses every epoch
    rng = np.random.default_rng(plan["seed"])
    targets, traces = zip(*(ft.cheb_apply(teacher, lt, rng.standard_normal(lap.node_count),
                                          keep_trace=True) for _ in range(plan["examples"])))

    # only proof needs the basis; transfer holds the outputs to an all-zero reference
    disallowed = None
    if penalties.proof > 0:
        basis = gr.eigendecompose(lap)
        disallowed = analysis.disallowed_rows(basis, analysis.equal_bands(basis, 3),
                                              plan["allowed_bands"])

    student = ft.ChebyshevFilter(theta=np.zeros(order + 1), lambda_max=estimate.value)
    result = tr.train(student, traces, targets, penalties, schedule=plan["curriculum"],
                      config=plan["train"], disallowed=disallowed,
                      transfer_reference=np.zeros(lap.node_count))

    model = replace(result.model, bound=estimate,
                    graph_sha256=gr.graph_sha256(lap, args.graph_kind, estimate.value))
    first, last = result.history[0][1], result.history[-1][1]
    return ({"filter.json": model.to_json() + "\n",
             "history.csv": tr.history_to_csv(result.history),
             _OPERATOR_FILE: lambda file: _write_operator(file, lap, inputs[args.graph][0])},
            inputs,
            f"train epochs={len(result.history)} initial_loss={first:.6e} final_loss={last:.6e}")


def cmd_gen(args) -> tuple[dict, dict, str]:
    if args.kind == "community":
        inst = tg.gen_community_task(n=args.n, intra_p=args.intra_p, inter_p=args.inter_p,
                                     seed_fraction=args.seed_fraction, noise=args.noise,
                                     seed=args.seed)
    elif args.kind == "contradiction":
        inst = tg.gen_contradiction_task(n=args.n, base_p=args.base_p, planted=args.planted,
                                         flip_magnitude=args.flip_magnitude, seed=args.seed)
    else:
        inst = tg.gen_chain_task(depth=args.depth, branching=args.branching, seed=args.seed)
    files = {"task.json": tg.task_to_json(inst)}
    if inst.rulebase is not None:
        files["rules.json"] = rl.rulebase_to_json(inst.rulebase)
    return files, {}, (f"gen kind={args.kind} nodes={inst.graph.node_count} "
                       f"edges={inst.graph.edge_count}")


def cmd_eval(args) -> tuple[dict, dict, str]:
    inputs = {}
    perturb = analysis.PerturbConfig(band=args.perturb_band, magnitude=args.perturb_magnitude,
                                     seed=args.perturb_seed)
    cfg = tg.EvalConfig(threshold=args.threshold, variant=args.variant,
                        latency_runs=args.latency_runs, perturb=perturb)
    model = _load_model(args, inputs)
    instances = [_read_input(path, inputs, tg.load_task) for path in args.tasks]
    try:
        report = tg.evaluate(model, instances, cfg)
    except tg.IntervalError as exc:
        raise ValueError(f"{args.tasks[exc.index]}: {exc}") from None
    return ({"eval.csv": report.to_csv()}, inputs,
            f"eval model={report.model} accuracy={report.accuracy:.4f} "
            f"agreement={report.proof_band_agreement:.4f}")


def cmd_attribute(args) -> tuple[dict, dict, str]:
    inputs = {}
    if args.bands < 1:
        raise ValueError("need at least one band")
    model = _load_model(args, inputs)
    lap = _load_operator(args, args.graph, inputs)
    x = _read_input(args.beliefs, inputs, _beliefs(lap.node_count))
    basis = gr.eigendecompose(lap)
    try:
        y = np.asarray(tg.as_response(model, basis, x), dtype=float)
    except tg.IntervalError as exc:
        raise ValueError(f"{args.model_filter}: on {args.graph}, {exc}") from None
    partition = analysis.equal_bands(basis, args.bands)
    report = analysis.band_energy(basis, y, partition)
    bound = analysis.robustness_certificate(model, partition.edges[-1])

    # one row per instance: partition edges, then energies, fractions, bound
    edges, bands = range(partition.edges.size), range(partition.n_bands)
    header = ["instance", *(f"edge{b}" for b in edges), *(f"band{b}_energy" for b in bands),
              *(f"band{b}_fraction" for b in bands), "bound"]
    row = (0, *partition.edges, *report.energies, *report.fractions, bound)
    return ({"attribution.csv": gr.csv_text(header, [row])}, inputs,
            f"attribute bands={partition.n_bands} bound={gr.float_text(bound)}")


def cmd_perturb(args) -> tuple[dict, dict, str]:
    inputs = {}
    noise = analysis.PerturbConfig(band=args.band, magnitude=args.magnitude, seed=args.seed)
    if not 0 <= noise.band < args.bands:  # the band count first, as equal_bands refuses it
        raise ValueError("need at least one band" if args.bands < 1
                         else f"band {noise.band} outside partition with {args.bands} bands")
    lap = _load_operator(args, args.graph, inputs)
    x = _read_input(args.beliefs, inputs, _beliefs(lap.node_count))
    basis = gr.eigendecompose(lap)
    partition = analysis.equal_bands(basis, args.bands)
    perturbed = analysis.spectral_perturb(basis, x, noise, partition)
    before = analysis.band_energy(basis, x, partition)
    after = analysis.band_energy(basis, perturbed, partition)
    rows = zip(range(partition.n_bands), before.energies, after.energies)
    return ({"perturbed.txt": "".join(gr.float_text(v) + "\n" for v in perturbed),
             "perturb.csv": gr.csv_text(("band", "clean_energy", "perturbed_energy"), rows)},
            inputs, f"perturb band={args.band} magnitude={gr.float_text(args.magnitude)}")


def cmd_transfer(args) -> tuple[dict, dict, str]:
    if args.points < 2:
        raise ValueError("profile needs at least two points")
    pairs, profiles, inputs = [], [], {}
    for graph_path, belief_path in ((args.source_graph, args.source_beliefs),
                                    (args.target_graph, args.target_beliefs)):
        lap = _load_operator(args, graph_path, inputs)
        pairs.append((lap, _read_input(belief_path, inputs, _beliefs(lap.node_count))))
    for lap, x in pairs:  # every input is read and checked before the first decomposition
        basis = gr.eigendecompose(lap)
        xhat = np.asarray(gr.gft(basis, x), dtype=float)
        profiles.append(analysis.cospectral_profile(basis.eigenvalues, xhat, points=args.points))
    loss = analysis.cospectral_loss(profiles[0], profiles[1])
    rows = zip(range(args.points), *profiles)
    return ({"profiles.csv": gr.csv_text(("index", "source", "target"), rows),
             "transfer.csv": gr.csv_text(("points", "profile_loss"), [(args.points, loss)])},
            inputs,
            f"transfer points={args.points} loss={gr.float_text(loss)}")


def cmd_bench(args) -> tuple[dict, dict, str]:
    rows = tg.timing_sweep(kind=args.sweep, base_edges=args.base_edges,
                           base_order=args.base_order, doublings=args.doublings,
                           runs=args.runs, seed=args.seed)
    # each point's ratio is its median over the one before; the first has none
    medians = [median for _, _, median in rows]
    ratios = [None] + [after / before for before, after in zip(medians, medians[1:])]
    table = [(args.sweep, *point, ratio) for point, ratio in zip(rows, ratios)]
    header = ("sweep", "order", "edges", "median_seconds", "ratio")
    return ({"bench.csv": gr.csv_text(header, table)}, {},
            f"bench sweep={args.sweep} points={len(rows)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specreason",
                                     description="Spectral belief filtering with symbolic closure")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=True):
        if graph:
            p.add_argument("--graph", required=True, help="edge-list file")
            p.add_argument("--variant", default="combinatorial", choices=gr.VARIANTS)
            p.add_argument("--graph-kind", default="unsigned", choices=gr.GRAPH_KINDS)
        p.add_argument("--out-dir", required=True)

    p = sub.add_parser("fit", help="fit a Chebyshev filter to an analytic response")
    common(p)
    _add_response_args(p, other_models=False)
    p.add_argument("--order", type=int, default=16)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("infer", help="filter beliefs and project predicates")
    common(p)
    p.add_argument("--filter", required=True, help="filter JSON file")
    p.add_argument("--beliefs", required=True, help="belief vector file")
    p.add_argument("--rulebase", default=None, help="Horn rulebase JSON")
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--temperature", type=float, default=None, help="adds the soft column")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("train", help="train a filter from a JSON config")
    common(p)
    p.add_argument("--config", required=True, help="training config JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gen", help="generate a synthetic task instance")
    common(p, graph=False)
    p.add_argument("--kind", required=True, choices=("community", "contradiction", "chain"))
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--intra-p", type=float, default=0.08)
    p.add_argument("--inter-p", type=float, default=0.005)
    p.add_argument("--seed-fraction", type=float, default=0.05)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--planted", type=int, default=10)
    p.add_argument("--base-p", type=float, default=0.05)
    p.add_argument("--flip-magnitude", type=float, default=3.0)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--branching", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("eval", help="score a model over generated tasks")
    common(p, graph=False)
    p.add_argument("--tasks", nargs="+", required=True, help="task JSON files")
    _add_response_args(p, other_models=True)
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--variant", default="combinatorial", choices=gr.VARIANTS)
    p.add_argument("--latency-runs", type=int, default=3)
    p.add_argument("--perturb-band", type=int, default=2)
    p.add_argument("--perturb-magnitude", type=float, default=0.0)
    p.add_argument("--perturb-seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("attribute", help="band energy attribution and certificate")
    common(p)
    p.add_argument("--beliefs", required=True)
    _add_response_args(p, other_models=True)
    p.add_argument("--bands", type=int, default=3)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("perturb", help="inject band-limited spectral noise")
    common(p)
    p.add_argument("--beliefs", required=True)
    p.add_argument("--band", type=int, default=2)
    p.add_argument("--magnitude", type=float, default=0.1)
    p.add_argument("--bands", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("transfer", help="co-spectral profile comparison across graphs")
    common(p, graph=False)
    p.add_argument("--source-graph", required=True)
    p.add_argument("--source-beliefs", required=True)
    p.add_argument("--target-graph", required=True)
    p.add_argument("--target-beliefs", required=True)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--variant", default="combinatorial", choices=gr.VARIANTS)
    p.add_argument("--graph-kind", default="unsigned", choices=gr.GRAPH_KINDS)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("bench", help="timing sweep of the sparse recurrence")
    common(p, graph=False)
    p.add_argument("--sweep", default="edges", choices=("edges", "order"))
    p.add_argument("--base-edges", type=int, default=4000)
    p.add_argument("--base-order", type=int, default=8)
    p.add_argument("--doublings", type=int, default=3)
    p.add_argument("--runs", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a value past the float range is refused where it would be written, in one line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            files, inputs, summary = args.func(args)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            _atomic_write(out / name, content)
        _write_manifest(out, args, inputs)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, RuntimeError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
