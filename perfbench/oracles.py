"""Correctness oracles for the outputs of the benchmarked commands.

Each check returns a list of problems; an empty list means the output is
correct. The references are computed here with NumPy and SciPy, never
with the program's own code.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# infer's beliefs must lie this close to the exact diffusion response
# (relative 2-norm). On G(100k, 500k) it reads 0.35-0.52% when lambda_max
# converges and 1.8% after a Gershgorin fallback.
RESULT_ERR_LIMIT = 0.03
# beliefs closer to the threshold than this (relative to max |y|) may
# fall on either side between two exact methods
AMBIGUOUS_REL = 1e-9
# eigenvalues closer than this to a band edge (relative to lambda_max) may
# fall in either band
EDGE_REL = 1e-9
# train's final loss must drop below this (initial losses are ~1e-2)
TRAIN_LOSS_BOUND = 2e-3


def parse_predicates(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(belief, hard) columns of predicates.csv; raises ValueError when malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != "node,belief,soft,hard":
        raise ValueError("predicates.csv header is not node,belief,soft,hard")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 4 for r in rows):
        raise ValueError("predicates.csv row without four columns")
    if [r[0] for r in rows] != [str(k) for k in range(len(rows))]:
        raise ValueError("predicates.csv nodes are not 0 .. n-1 in order")
    if any(r[3] not in ("0", "1") for r in rows):
        raise ValueError("predicates.csv hard column is not 0/1")
    return (np.array([float(r[1]) for r in rows]), np.array([r[3] == "1" for r in rows]))


def check_hard(belief: np.ndarray, hard: np.ndarray, threshold: float) -> list[str]:
    wrong = int(np.count_nonzero(hard != (belief > threshold)))
    return [f"hard column disagrees with belief > {threshold} on {wrong} nodes"] if wrong else []


def diffusion_reference(lap: sp.csr_array, x: np.ndarray, tau: float) -> np.ndarray:
    """y* solving (I + tau L) y* = x by conjugate gradient to relative residual 1e-12."""
    system = sp.identity(lap.shape[0], format="csr") + tau * lap
    y, info = spla.cg(system, x, rtol=1e-12, atol=0.0, maxiter=10 * lap.shape[0])
    if info != 0:
        raise RuntimeError(f"reference CG did not converge (info={info})")
    return y


def result_err(y: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(y - reference) / np.linalg.norm(reference))


def check_result_err(err: float) -> list[str]:
    return [] if err <= RESULT_ERR_LIMIT else [f"result_err {err:.3g} above {RESULT_ERR_LIMIT}"]


def horn_closure(clauses: list[dict], facts) -> set[str]:
    """Least model of Horn clauses over the facts: BFS with per-clause body counters."""
    waiting: dict[str, list[int]] = {}
    missing = []
    known = set(facts)
    queue = deque(known)
    for c, clause in enumerate(clauses):
        body = set(clause["body"])
        missing.append(len(body))
        for atom in body:
            waiting.setdefault(atom, []).append(c)
        if not body and clause["head"] not in known:
            known.add(clause["head"])
            queue.append(clause["head"])
    while queue:
        for c in waiting.get(queue.popleft(), ()):
            missing[c] -= 1
            head = clauses[c]["head"]
            if missing[c] == 0 and head not in known:
                known.add(head)
                queue.append(head)
    return known


def check_closure(closure_text: str, rulebase: dict, hard: np.ndarray) -> list[str]:
    """closure.txt must list, sorted, exactly the closure of the facts hard[i] = 1."""
    facts = {rulebase["atoms"][i] for i in np.flatnonzero(hard)}
    expected = "\n".join(sorted(horn_closure(rulebase["clauses"], facts))) + "\n"
    if closure_text == expected:
        return []
    got = set(closure_text.split())
    want = set(expected.split())
    return [f"closure.txt differs from the reference closure: {len(got - want)} extra, "
            f"{len(want - got)} missing atoms"]


def _dense_laplacian(graph: dict) -> np.ndarray:
    n = graph["n"]
    lap = np.zeros((n, n))
    for i, j, w in graph["edges"]:
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    return lap


def _score(task: dict, positive: np.ndarray) -> float:
    """Label accuracy, or closure F1 for tasks with a rulebase."""
    if not task.get("atoms"):
        return float(np.mean(positive == np.asarray(task["labels"], dtype=bool)))
    atoms = task["atoms"]
    closure = horn_closure(task["clauses"], {atoms[i] for i in np.flatnonzero(positive)})
    truth = {atoms[i] for i in np.flatnonzero(task["labels"])}
    overlap = len(closure & truth)
    if not closure and not truth:
        return 1.0
    if overlap == 0:
        return 0.0
    precision, recall = overlap / len(closure), overlap / len(truth)
    return 2.0 * precision * recall / (precision + recall)


def _score_range(task: dict, y: np.ndarray, threshold: float, slack: float) -> tuple[float, float]:
    """Lowest and highest score when every node within slack of the threshold may flip."""
    score = _score(task, y > threshold)
    flippable = int(np.count_nonzero(np.abs(y - threshold) <= slack))
    if not flippable:
        return score, score
    if not task.get("atoms"):
        return max(0.0, score - flippable / y.size), min(1.0, score + flippable / y.size)
    if all(task["labels"]):  # precision is 1, so F1 grows with the closure
        return _score(task, y > threshold + slack), _score(task, y >= threshold - slack)
    return 0.0, 1.0


@dataclass(frozen=True)
class EvalReference:
    """What a correct eval.csv holds; each value comes with the slack it allows.

    Slack comes from nodes whose belief lies at the threshold and from
    eigenvalues that lie on a band edge: two exact methods may put either
    on the other side.
    """

    instances: int
    accuracy: tuple[float, float]
    energies: np.ndarray  # per band, summed over the tasks
    energy_slack: float
    agreement: tuple[float, float]
    drop: tuple[float, float]


def eval_reference(tasks: list[dict], tau: float, threshold: float, perturb_band: int,
                   perturb_magnitude: float) -> EvalReference:
    """Reference eval.csv of a diffusion(tau) model over the tasks, from dense eigh.

    Band energies use equal thirds of [0, lambda_max] per task. The
    perturbed pass adds noise of norm perturb_magnitude inside one band;
    the filter shrinks it to at most magnitude * h(lowest eigenvalue of
    the band) in every node, so only nodes that close to the threshold
    may change their vote, and robustness_drop must lie in the range
    those flips allow.
    """
    clean, perturbed, energies, ambiguous, agreement, agreement_slack = [], [], [], 0.0, [], []
    for task in tasks:
        lam, vecs = np.linalg.eigh(_dense_laplacian(task["graph"]))
        response = 1.0 / (1.0 + tau * lam)
        yhat = response * (vecs.T @ np.asarray(task["beliefs"], dtype=float))
        y = vecs @ yhat
        near = AMBIGUOUS_REL * np.max(np.abs(y))
        clean.append(_score_range(task, y, threshold, near))
        band_edges = lam[-1] * np.array([1.0, 2.0]) / 3.0
        on_edge = np.min(np.abs(lam[:, None] - band_edges), axis=1) <= EDGE_REL * lam[-1]
        energy = np.bincount(np.searchsorted(band_edges, lam, side="right"), weights=yhat ** 2,
                             minlength=3)
        energies.append(energy)
        ambiguous += float(np.sum(yhat[on_edge] ** 2))
        allowed = sorted(set(task["allowed_bands"]))
        agreement.append(float(energy[allowed].sum() / energy.sum()))
        agreement_slack.append(float(np.sum(yhat[on_edge] ** 2) / energy.sum()))
        band_floor = (perturb_band - EDGE_REL * 3.0) * lam[-1] / 3.0
        shift = perturb_magnitude / (1.0 + tau * max(band_floor, 0.0))
        perturbed.append(_score_range(task, y, threshold, near + shift))
    total = np.sum(energies, axis=0)
    lo, hi = np.mean(clean, axis=0) + np.array([-1e-12, 1e-12])
    plo, phi = np.mean(perturbed, axis=0)
    mean_agreement, slack = float(np.mean(agreement)), float(np.mean(agreement_slack)) + 1e-9
    return EvalReference(
        instances=len(tasks), accuracy=(float(lo), float(hi)), energies=total,
        energy_slack=ambiguous + 1e-9 * float(total.sum()),
        agreement=(mean_agreement - slack, mean_agreement + slack),
        drop=(float(100.0 * (lo - phi)) - 1e-9, float(100.0 * (hi - plo)) + 1e-9))


def check_eval(eval_csv: str, ref: EvalReference) -> list[str]:
    lines = eval_csv.splitlines()
    if len(lines) != 2:
        return ["eval.csv must hold a header and one row"]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    bands = ref.energies.size
    names = ("accuracy", "robustness_drop", "proof_band_agreement",
             *(f"band{b}_energy" for b in range(bands)), *(f"band{b}_fraction" for b in range(bands)))
    try:
        count = int(row["instances"])
        value = {name: float(row[name]) for name in names}
    except (KeyError, ValueError):
        return [f"eval.csv lacks a numeric instances or {'/'.join(names)} column"]
    if not all(np.isfinite(v) for v in value.values()):
        return ["eval.csv holds a value that is not finite"]
    problems = []
    if count != ref.instances:
        problems.append(f"eval.csv scored {count} instances, expected {ref.instances}")
    for name, (lo, hi) in (("accuracy", ref.accuracy), ("proof_band_agreement", ref.agreement),
                           ("robustness_drop", ref.drop)):
        if not lo <= value[name] <= hi:
            problems.append(f"eval {name} {value[name]!r} is outside the dense reference's "
                            f"[{lo!r}, {hi!r}]")
    total = float(ref.energies.sum())
    fractions = [value[f"band{b}_fraction"] for b in range(bands)]
    for b in range(bands):
        if abs(value[f"band{b}_energy"] - ref.energies[b]) > ref.energy_slack:
            problems.append(f"eval band{b}_energy {value[f'band{b}_energy']!r} is off the dense "
                            f"reference {ref.energies[b]!r} by more than {ref.energy_slack:.3g}")
        if abs(fractions[b] - ref.energies[b] / total) > ref.energy_slack / total:
            problems.append(f"eval band{b}_fraction {fractions[b]!r} is off the dense reference "
                            f"{ref.energies[b] / total!r}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        problems.append(f"eval band fractions sum to {sum(fractions)!r}, not 1")
    return problems


_TRAIN_LINE = re.compile(r"^train epochs=(\d+) initial_loss=(\S+) final_loss=(\S+)$", re.M)


def check_train(stdout: str, history_csv: str, epochs: int) -> list[str]:
    match = _TRAIN_LINE.search(stdout)
    if not match:
        return ["train printed no 'train epochs=... initial_loss=... final_loss=...' line"]
    ran, initial, final = int(match[1]), float(match[2]), float(match[3])
    problems = []
    if ran != epochs or len(history_csv.splitlines()) != epochs + 1:
        problems.append(f"train ran {ran} epochs / history rows, expected {epochs}")
    if not final < initial:
        problems.append(f"train final_loss {final:.3e} is not below initial_loss {initial:.3e}")
    if not final < TRAIN_LOSS_BOUND:
        problems.append(f"train final_loss {final:.3e} is not below {TRAIN_LOSS_BOUND:.0e}")
    return problems
