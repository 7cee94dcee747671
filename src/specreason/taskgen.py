"""Synthetic reasoning tasks and the evaluator that scores models on them.

Three families: community recovery (low-band), spike-on-smooth
contradiction detection (high-band), and hop-propagation chains that
exercise the symbolic closure. Generation is fully seeded; identical
parameters reproduce identical instances.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import filters as ft
from ._schema import Default, Map, Nullable, read_json
from .analysis import (
    PerturbConfig,
    band_energy,
    equal_bands,
    proof_band_agreement,
    spectral_perturb,
)
from .graph import (
    Graph,
    InvalidEdgeError,
    build_laplacian,
    csv_text,
    eigendecompose,
    estimate_lambda_max,
    scale_laplacian,
)
from .rules import CLAUSE, HornClause, RuleBase, RuleSet, forward_chain, rulebase_from_dict


_SMOOTH_TAU = 2.0  # diffusion time of a contradiction task's background; task.json records it


def random_gnp(n: int, p: float, seed=0) -> Graph:
    """Erdos-Renyi graph with unit weights, edges drawn on the upper triangle."""
    if n < 1:
        raise ValueError("need at least one node")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, k=1)
    keep = rng.random(rows.size) < p
    return Graph(n, columns=(rows[keep], cols[keep], np.ones(np.count_nonzero(keep))))


def random_gnm(n: int, m: int, seed=0) -> Graph:
    """Uniform graph with exactly m distinct unit-weight edges."""
    max_edges = n * (n - 1) // 2
    if not 0 <= m <= max_edges:
        raise ValueError(f"cannot place {m} edges on {n} nodes")
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)  # pair (i, j), i < j, as i * n + j, in draw order
    while keys.size < m:
        need = m - keys.size
        i = rng.integers(0, n, size=2 * need + 8)
        j = rng.integers(0, n, size=2 * need + 8)
        drawn = (np.minimum(i, j) * n + np.maximum(i, j))[i != j]
        _, first = np.unique(drawn, return_index=True)
        fresh = np.sort(first[~np.isin(drawn[first], keys)])[:need]
        keys = np.concatenate([keys, drawn[fresh]])
    return Graph(n, columns=(keys // n, keys % n, np.ones(m)))


def _is_connected(g: Graph) -> bool:
    """Whether the edges join every node: union-find with path halving over the edge
    arrays, near-linear in n + m."""
    parent = list(range(g.node_count))

    def root(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    parts = g.node_count
    for i, j in zip(g.rows.tolist(), g.cols.tolist()):
        a, b = root(i), root(j)
        if a != b:
            parent[a] = b
            parts -= 1
    return parts == 1


def _connected(draw, what: str = "graph") -> Graph:
    """The first connected graph of up to ten that draw() samples."""
    for _ in range(10):
        g = draw()
        if _is_connected(g):
            return g
    raise RuntimeError(f"could not sample a connected {what} in 10 tries")


@dataclass(frozen=True)
class TaskInstance:
    """One graph, its seed beliefs, ground truth, and optional symbolic layer."""

    graph: Graph
    beliefs: np.ndarray
    labels: np.ndarray
    allowed_bands: tuple[int, ...] = ()
    rulebase: RuleBase | None = None
    kind: str = ""
    seed: int = 0
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        beliefs = np.array(self.beliefs, dtype=float)
        labels = np.array(self.labels)
        if beliefs.shape != (self.graph.node_count,) or labels.shape != beliefs.shape:
            raise ValueError("beliefs and labels must cover every node exactly once")
        bad = np.flatnonzero(~np.isfinite(beliefs))
        if bad.size:
            raise ValueError(f"belief of node {bad[0]} is not finite: {beliefs[bad[0]]}")
        bad = np.flatnonzero((labels != 0) & (labels != 1))
        if bad.size:
            raise ValueError(f"labels[{bad[0]}] must be 0 or 1, got {labels[bad[0]]}")
        labels = labels.astype(bool)
        beliefs.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "allowed_bands", tuple(int(b) for b in self.allowed_bands))
        if self.rulebase is not None and len(self.rulebase.atoms) != self.graph.node_count:
            raise ValueError("the rulebase must name one atom per node")


def gen_community_task(n: int = 200, intra_p: float = 0.08, inter_p: float = 0.005,
                       seed_fraction: float = 0.05, noise: float = 0.1,
                       seed: int = 0) -> TaskInstance:
    """Two-block stochastic block model with opposite-sign seed beliefs.

    The first half of the nodes is the positive community; each block
    seeds round(seed_fraction * n) of its nodes, capped at the block
    size. Sampling retries up to ten times for a connected graph.
    Low-pass smoothing of the seeds recovers the split, so the task
    declares the low band as its allowed region.
    """
    if n < 4 or n % 2:
        raise ValueError("community tasks need an even n of at least 4")
    if not 0.0 < seed_fraction < 1.0:
        raise ValueError("seed_fraction must sit strictly between 0 and 1")
    if intra_p <= inter_p:
        raise ValueError("communities need intra_p > inter_p")
    rng = np.random.default_rng(seed)
    half = n // 2
    rows, cols = np.triu_indices(n, k=1)
    same = (rows < half) == (cols < half)
    prob = np.where(same, intra_p, inter_p)

    def draw() -> Graph:
        keep = rng.random(rows.size) < prob
        return Graph(n, columns=(rows[keep], cols[keep], np.ones(np.count_nonzero(keep))))

    g = _connected(draw, "community graph")

    per_side = min(half, max(1, int(round(seed_fraction * n))))
    seeds_a = rng.choice(half, size=per_side, replace=False)
    seeds_b = half + rng.choice(half, size=per_side, replace=False)
    x = noise * rng.standard_normal(n)
    x[seeds_a] += 1.0
    x[seeds_b] -= 1.0
    labels = np.arange(n) < half
    return TaskInstance(graph=g, beliefs=x, labels=labels, allowed_bands=(0,),
                        kind="community", seed=int(seed),
                        params=(("n", float(n)), ("intra_p", intra_p), ("inter_p", inter_p),
                                ("seed_fraction", seed_fraction), ("noise", noise)))


def gen_contradiction_task(n: int = 200, base_p: float = 0.05, planted: int = 10,
                           flip_magnitude: float = 3.0, seed: int = 0) -> TaskInstance:
    """Smooth background with planted sign-flipped spikes; spikes are the positives.

    The background is a random field smoothed by (I + _SMOOTH_TAU L)^-1, normalized to
    unit peak, so its energy sits low in the spectrum. Each planted node
    gets a spike of size flip_magnitude pushed against the sign of the
    background there; the resulting near-deltas light up the high band,
    which the task declares as allowed. A zero flip_magnitude leaves the
    clean signal untouched and is flagged as degenerate.
    """
    if planted < 0 or planted >= n:
        raise ValueError("planted count must be in 0 .. n-1")
    if flip_magnitude < 0:
        raise ValueError("flip_magnitude cannot be negative")
    rng = np.random.default_rng(seed)
    g = _connected(lambda: random_gnp(n, base_p, rng))
    lap = build_laplacian(g)
    background = ft.rational_apply(_SMOOTH_TAU, lap, rng.standard_normal(n))
    peak = float(np.max(np.abs(background)))
    if peak > 0:
        background = background / peak
    chosen = rng.choice(n, size=planted, replace=False)
    if flip_magnitude == 0.0:
        warnings.warn("flip_magnitude is zero: spiked and clean signals coincide",
                      stacklevel=2)
    x = background.copy()
    against = np.where(background[chosen] >= 0, -1.0, 1.0)
    x[chosen] += flip_magnitude * against
    labels = np.zeros(n, dtype=bool)
    labels[chosen] = True
    return TaskInstance(graph=g, beliefs=x, labels=labels, allowed_bands=(2,),
                        kind="contradiction", seed=int(seed),
                        params=(("n", float(n)), ("base_p", base_p),
                                ("planted", float(planted)),
                                ("flip_magnitude", flip_magnitude),
                                ("smooth_tau", _SMOOTH_TAU)))


def gen_chain_task(depth: int = 6, branching: int = 1, seed: int = 0) -> TaskInstance:
    """Hop-propagation task: a source fact at the root, clauses pushing it outward.

    branching 1 builds a path of depth+1 nodes; larger values build a
    complete branching-ary tree of the given depth. Every edge carries
    one clause propagating the parent's atom to the child, so ground
    truth is the full reachable set. Node identities are shuffled by the
    seed so the structure never aligns with index order by accident.
    """
    if depth < 1:
        raise ValueError("chain tasks need depth of at least 1")
    if branching < 1:
        raise ValueError("branching factor must be at least 1")
    rng = np.random.default_rng(seed)
    if branching == 1:
        n = depth + 1
    else:
        n = (branching ** (depth + 1) - 1) // (branching - 1)
    perm = rng.permutation(n)
    # positional tree: parent of position k is (k-1)//branching
    edge_pairs = [(int(perm[(k - 1) // branching]), int(perm[k])) for k in range(1, n)]
    g = Graph(node_count=n, edges=tuple((i, j, 1.0) for i, j in edge_pairs))

    atoms = tuple(f"n{i}" for i in range(n))
    clauses = tuple(HornClause(body=frozenset({atoms[i]}), head=atoms[j])
                    for i, j in edge_pairs)
    rb = RuleBase(atoms=atoms, clauses=clauses)

    root = int(perm[0])
    x = np.zeros(n)
    x[root] = 1.0
    labels = np.ones(n, dtype=bool)
    return TaskInstance(graph=g, beliefs=x, labels=labels, allowed_bands=(0, 1),
                        rulebase=rb, kind="chain", seed=int(seed),
                        params=(("depth", float(depth)), ("branching", float(branching))))


def task_to_json(instance: TaskInstance) -> str:
    payload = {
        "kind": instance.kind,
        "seed": instance.seed,
        "params": {k: v for k, v in instance.params},
        "graph": {"n": instance.graph.node_count,
                  "edges": [[i, j, w] for i, j, w in instance.graph.edges],
                  "kind": instance.graph.kind},
        "beliefs": [float(v) for v in instance.beliefs],
        "labels": [int(v) for v in instance.labels],
        "allowed_bands": list(instance.allowed_bands),
        "atoms": list(instance.rulebase.atoms) if instance.rulebase else None,
        "clauses": ([{"body": sorted(c.body), "head": c.head} for c in instance.rulebase.clauses]
                    if instance.rulebase else None),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_TASK = {"kind": Default(str, ""), "seed": Default(int, 0), "params": Default(Map(float), {}),
         # Graph checks the endpoints, in one vectorised pass
         "graph": {"n": int, "edges": [(object, object, float)], "kind": Default(str, "unsigned")},
         "beliefs": [float], "labels": [int], "allowed_bands": Default([int], []),
         "atoms": Default(Nullable([str]), None), "clauses": Default(Nullable([CLAUSE]), None)}


def load_task(path) -> TaskInstance:
    return read_json(path, _TASK, _task_from_dict)


def _task_from_dict(payload: dict) -> TaskInstance:
    graph = payload["graph"]
    try:
        g = Graph(graph["n"], graph["edges"], graph["kind"])
    except InvalidEdgeError as exc:  # the same error raised on, its index kept
        exc.args = (f"graph.edges[{exc.index}]: {exc}",)
        raise
    rulebase = rulebase_from_dict(payload) if payload["atoms"] else None
    return TaskInstance(graph=g, beliefs=payload["beliefs"], labels=payload["labels"],
                        allowed_bands=payload["allowed_bands"], rulebase=rulebase,
                        kind=payload["kind"], seed=payload["seed"],
                        params=tuple((k, float(v)) for k, v in sorted(payload["params"].items())))


def ranking_auc(scores, labels) -> float:
    """Exact pairwise AUC with tie handling via midranks."""
    s = np.asarray(scores, dtype=float)
    lab = np.asarray(labels, dtype=bool)
    pos = int(lab.sum())
    neg = lab.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("AUC needs both positive and negative examples")
    ranks = _midranks(s)
    return float((ranks[lab].sum() - pos * (pos + 1) / 2.0) / (pos * neg))


def _midranks(s: np.ndarray) -> np.ndarray:
    """1-based ranks of s, ties sharing the mean of their ranks; all NaN if s holds a NaN."""
    if np.isnan(s).any():
        return np.full(s.size, np.nan)
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


@dataclass(frozen=True)
class EvalConfig:
    """How the evaluator reads beliefs off a model and scores them. perturb's band is one
    of the three that evaluate cuts, whatever its magnitude."""

    threshold: float = 0.0
    variant: str = "combinatorial"
    latency_runs: int = 3
    perturb: PerturbConfig | None = None

    def __post_init__(self):
        if not np.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        if self.latency_runs < 1:
            raise ValueError(f"latency_runs must be at least 1, got {self.latency_runs}")
        if self.perturb is not None and not 0 <= self.perturb.band < 3:
            raise ValueError(f"band {self.perturb.band} outside partition with 3 bands")


def model_label(model) -> str:
    """The model's name in eval.csv; as_response has refused any other type first."""
    if isinstance(model, ft.AnalyticResponse):
        inner = ", ".join(format(p, "g") for p in model.params)
        return f"{model.kind}({inner})"
    if isinstance(model, ft.ChebyshevFilter):
        return f"chebyshev(order={model.order})"
    return f"rules({len(model)})"


class IntervalError(ValueError):
    """A Chebyshev filter met a spectrum that reaches past its interval [0, lambda_max].
    index is the position, in the set evaluate scores, of the task the spectrum is of."""

    index = None


def as_response(model, basis, x):
    """A model's response to beliefs x, filtered exactly through one eigenbasis.

    A model is an analytic response, a Chebyshev filter or a rule set (their weighted
    mixture), each a function of the eigenvalues; anything else raises TypeError. A
    filter's series holds on [0, lambda_max] alone: a basis whose top eigenvalue lies
    past it, beyond ``lambda_max_matches``' tolerance, raises IntervalError.
    """
    if not isinstance(model, (ft.AnalyticResponse, ft.ChebyshevFilter, RuleSet)):
        raise TypeError(f"cannot evaluate a {type(model).__name__}")
    if (isinstance(model, ft.ChebyshevFilter) and basis.lambda_max > model.lambda_max
            and not ft.lambda_max_matches(model.lambda_max, basis.lambda_max)):
        raise IntervalError(f"filter lambda_max {model.lambda_max} is below this graph's top "
                            f"eigenvalue {basis.lambda_max}; refit the filter on a graph "
                            "whose spectrum it covers")
    return ft.dense_filter_apply(basis, model, x)


def _score(y, inst: TaskInstance, threshold: float) -> float:
    """Label accuracy of y > threshold, or the F1 of its Horn closure when symbolic."""
    y = np.asarray(y, dtype=float)
    if inst.rulebase is None:
        return float(np.mean((y > threshold) == inst.labels))
    atoms = inst.rulebase.atoms  # node i's atom is atoms[i]
    facts = {atoms[i] for i in range(len(y)) if y[i] > threshold}
    closure = forward_chain(inst.rulebase, facts)
    truth = {atoms[i] for i in range(len(y)) if inst.labels[i]}
    if not closure and not truth:
        return 1.0
    overlap = len(closure & truth)
    if overlap == 0:
        return 0.0
    precision = overlap / len(closure)
    recall = overlap / len(truth)
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class EvalReport:
    """Aggregate metrics for one model over one task set."""

    model: str
    instances: int
    accuracy: float
    latency_ms: float
    robustness_drop: float
    proof_band_agreement: float
    band_energies: tuple[float, ...]
    band_fractions: tuple[float, ...]

    def to_csv(self) -> str:
        """eval.csv: a header line and this report's one row."""
        bands = range(len(self.band_energies))
        header = ["model", "instances", "accuracy", "latency_ms", "robustness_drop",
                  "proof_band_agreement", *(f"band{b}_energy" for b in bands),
                  *(f"band{b}_fraction" for b in bands)]
        row = (self.model, self.instances, self.accuracy, self.latency_ms, self.robustness_drop,
               self.proof_band_agreement, *self.band_energies, *self.band_fractions)
        return csv_text(header, [row])


def evaluate(model, instances, config: EvalConfig | None = None) -> EvalReport:
    """Score a model over a task set: accuracy, latency, bands, robustness.

    Accuracy is the mean instance score. Latency is the median wall time
    of the model application alone, over latency_runs repeats per
    instance. Band columns attribute the output energy of every instance
    to three equal bands of its spectrum (equal_bands); a sum past the float range
    reads inf, which to_csv refuses. Robustness drop is the accuracy, in percentage
    points, lost to cfg.perturb's noise, cut at the same bands. Each instance
    is eigendecomposed once.
    """
    cfg = config or EvalConfig()
    instances = list(instances)
    if not instances:
        raise ValueError("evaluation needs at least one instance")
    noise = cfg.perturb
    noisy = noise is not None and noise.magnitude > 0

    def run(inst: TaskInstance):
        # one eigendecomposition gives the timed applications, the clean score,
        # the score under cfg.perturb (None without one) and the clean band report
        basis = eigendecompose(build_laplacian(inst.graph, cfg.variant))
        times = []
        for _ in range(cfg.latency_runs):
            start = time.perf_counter()
            y = as_response(model, basis, inst.beliefs)
            times.append(time.perf_counter() - start)
        part = equal_bands(basis, 3)
        perturbed = None
        if noisy:
            x = spectral_perturb(basis, inst.beliefs, noise.band, noise.magnitude,
                                 partition=part, seed=noise.seed)
            perturbed = _score(as_response(model, basis, x), inst, cfg.threshold)
        return times, _score(y, inst, cfg.threshold), perturbed, band_energy(basis, y, part)

    outcomes = []
    for k, inst in enumerate(instances):
        try:
            outcomes.append(run(inst))
        except IntervalError as exc:
            exc.index = k
            raise
    times, scores, perturbed, reports = zip(*outcomes)
    accuracy = float(np.mean(scores))
    latency_ms = float(np.median(np.concatenate(times)) * 1000.0)

    energies = np.zeros(reports[0].partition.n_bands)
    for report in reports:
        energies += report.energies
    total = float(energies.sum())
    fractions = energies / total if total > 0 else np.zeros_like(energies)

    agreement_pairs = [(report, inst.allowed_bands)
                       for report, inst in zip(reports, instances) if inst.allowed_bands]
    if agreement_pairs and any(not r.degenerate for r, _ in agreement_pairs):
        agreement = proof_band_agreement(agreement_pairs)
    else:
        agreement = 1.0

    drop = float((np.mean(scores) - np.mean(perturbed)) * 100.0) if noisy else 0.0

    return EvalReport(model=model_label(model), instances=len(instances),
                      accuracy=accuracy, latency_ms=latency_ms,
                      robustness_drop=drop, proof_band_agreement=agreement,
                      band_energies=tuple(float(e) for e in energies),
                      band_fractions=tuple(float(f) for f in fractions))


def timing_sweep(kind: str = "edges", base_edges: int = 4000, base_order: int = 8,
                 doublings: int = 3, runs: int = 9, seed: int = 0) -> list[tuple[int, int, float]]:
    """Median sparse-apply time across doublings of edge count or order.

    Returns (order, edges, median_seconds) per point. The recurrence is
    O(order * edges), so either doubling should roughly double the time.
    Every point's operator is built first; the runs then go round-robin
    across the points, so a slow spell of the host slows every point alike
    instead of inflating one ratio.
    """
    if kind not in ("edges", "order"):
        raise ValueError(f"kind must be 'edges' or 'order', got {kind!r}")
    if doublings < 1 or runs < 3:
        raise ValueError("need at least one doubling and three runs")
    rng = np.random.default_rng(seed)
    points = []
    for step in range(doublings + 1):
        if kind == "edges":
            edges = base_edges * (2 ** step)
            order = base_order
        else:
            edges = base_edges
            order = base_order * (2 ** step)
        n = max(64, int(np.ceil(np.sqrt(4 * edges))))
        g = random_gnm(n, edges, np.random.default_rng(seed + step))
        lap = build_laplacian(g)
        estimate = estimate_lambda_max(lap)
        lt = scale_laplacian(lap, estimate.value)
        f = ft.fit_chebyshev(ft.diffusion(1.0), order, estimate.value)
        x = rng.standard_normal(n)
        ft.cheb_apply(f, lt, x)  # warm the caches before timing
        points.append((order, edges, f, lt, x))
    samples = [[] for _ in points]
    for _ in range(runs):
        for (_, _, f, lt, x), taken in zip(points, samples):
            start = time.perf_counter()
            ft.cheb_apply(f, lt, x)
            taken.append(time.perf_counter() - start)
    return [(order, edges, float(np.median(taken)))
            for (order, edges, _, _, _), taken in zip(points, samples)]
