"""Seeded input generators for the benchmark workloads.

Everything here uses NumPy and SciPy only and never imports the program,
so a change to the program's own generators (``specreason gen``,
``taskgen``, ``random_gnm``) cannot change a workload. The same seed
always writes the same bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def gnm_edges(n: int, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """m distinct unordered pairs (i < j, no self-loops), uniformly, in random order."""
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"cannot place {m} edges on {n} nodes")
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        i = rng.integers(0, n, size=2 * (m - keys.size) + 8, dtype=np.int64)
        j = rng.integers(0, n, size=i.size, dtype=np.int64)
        keep = i != j
        lo, hi = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
        keys = np.unique(np.concatenate([keys, lo * n + hi]))
    keys = rng.permutation(keys)[:m]
    return keys // n, keys % n


def relabel(n: int, i: np.ndarray, j: np.ndarray, rng: np.random.Generator,
            ) -> tuple[np.ndarray, np.ndarray]:
    """The same graph with its nodes renumbered and its edges (i < j) in a new order."""
    perm = rng.permutation(n)
    order = rng.permutation(i.size)
    a, b = perm[i[order]], perm[j[order]]
    return np.minimum(a, b), np.maximum(a, b)


def gnp_edges(n: int, p: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(n, k=1)
    keep = rng.random(rows.size) < p
    return rows[keep], cols[keep]


def laplacian(n: int, i: np.ndarray, j: np.ndarray) -> sp.csr_array:
    """Combinatorial Laplacian D - A of the unit-weight graph on edges (i, j)."""
    adj = sp.csr_array((np.ones(2 * i.size), (np.concatenate([i, j]), np.concatenate([j, i]))),
                       shape=(n, n))
    return sp.csr_array(sp.diags_array(adj.sum(axis=1)) - adj)


def graph_text(n: int, i: np.ndarray, j: np.ndarray) -> str:
    rows = "\n".join(f"{a} {b} 1" for a, b in zip(i.tolist(), j.tolist()))
    return f"{n} {i.size}\n{rows}\n"


def beliefs_text(x: np.ndarray) -> str:
    return "\n".join(_fmt(v) for v in x) + "\n"


def path_horn(n: int, rng: np.random.Generator) -> tuple[int, np.ndarray, dict]:
    """A path 0 - 1 - ... - n-1 with its middle node s seeded and one Horn clause per edge.

    Each clause pushes truth away from s (k -> k+1 right of s, k+1 -> k
    left of it), and the clauses are stored in a seeded random order, so
    the closure of {s} is every atom. s stays in the middle because the
    fixpoint sweep's pass count grows with the longer side of the path;
    the seed changes only the clause order.
    """
    s = n // 2
    atoms = [f"a{k}" for k in range(n)]
    clauses = [{"body": [atoms[k]], "head": atoms[k + 1]} if k >= s
               else {"body": [atoms[k + 1]], "head": atoms[k]} for k in range(n - 1)]
    order = rng.permutation(len(clauses))
    x = np.zeros(n)
    x[s] = 1.0
    return s, x, {"atoms": atoms, "clauses": [clauses[c] for c in order]}


def _task(kind: str, n: int, i: np.ndarray, j: np.ndarray, x: np.ndarray, labels: np.ndarray,
          allowed: list[int], atoms=None, clauses=None) -> dict:
    return {"kind": kind, "seed": 0, "params": {"n": float(n)},
            "graph": {"n": n, "edges": [[a, b, 1.0] for a, b in zip(i.tolist(), j.tolist())],
                      "kind": "unsigned"},
            "beliefs": [float(v) for v in x], "labels": [int(v) for v in labels],
            "allowed_bands": allowed, "atoms": atoms, "clauses": clauses}


def sbm_task(n: int, rng: np.random.Generator) -> dict:
    """Two-block SBM; 5% of each block seeded at +1 / -1 over 0.1 noise; label = first block."""
    half = n // 2
    rows, cols = np.triu_indices(n, k=1)
    same = (rows < half) == (cols < half)
    keep = rng.random(rows.size) < np.where(same, 16.0 / n, 1.0 / n)
    x = 0.1 * rng.standard_normal(n)
    per_side = max(1, round(0.05 * n))
    x[rng.choice(half, size=per_side, replace=False)] += 1.0
    x[half + rng.choice(half, size=per_side, replace=False)] -= 1.0
    return _task("community", n, rows[keep], cols[keep], x, np.arange(n) < half, [0])


def spike_task(n: int, rng: np.random.Generator, planted: int = 20) -> dict:
    """Diffusion-smoothed field on G(n, 10/n) with sign-flipped spikes; label = spike."""
    i, j = gnp_edges(n, 10.0 / n, rng)
    lap = laplacian(n, i, j)
    field = spla.spsolve(sp.csc_array(sp.identity(n) + 2.0 * lap), rng.standard_normal(n))
    x = field / np.max(np.abs(field))
    chosen = rng.choice(n, size=planted, replace=False)
    x[chosen] += 3.0 * np.where(x[chosen] >= 0, -1.0, 1.0)
    labels = np.zeros(n, dtype=bool)
    labels[chosen] = True
    return _task("contradiction", n, i, j, x, labels, [2])


def tree_chain_task(depth: int, rng: np.random.Generator) -> dict:
    """Complete binary tree of the given depth, node ids shuffled, root seeded.

    One clause per edge pushes the parent's atom to the child, so every
    node is a positive.
    """
    n = 2 ** (depth + 1) - 1
    perm = rng.permutation(n)
    parent, child = perm[(np.arange(1, n) - 1) // 2], perm[np.arange(1, n)]
    atoms = [f"n{k}" for k in range(n)]
    clauses = [{"body": [atoms[p]], "head": atoms[c]} for p, c in zip(parent.tolist(), child.tolist())]
    x = np.zeros(n)
    x[perm[0]] = 1.0
    return _task("chain", n, np.minimum(parent, child), np.maximum(parent, child), x,
                 np.ones(n, dtype=bool), [0, 1], atoms, clauses)


def write(path: Path, text: str) -> dict:
    """Write text and return its size record: bytes and SHA-256."""
    data = text.encode("utf-8")
    path.write_bytes(data)
    return {"file": path.name, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def task_json(task: dict) -> str:
    return json.dumps(task, indent=2, sort_keys=True) + "\n"
