"""Logical rules realized as spectral templates, plus symbolic closure.

Soft rules are spectral responses weighted and summed into a mixture;
hard rules are Horn clauses over a propositional atom set, chained to a
least fixpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import filters as ft
from ._schema import Default, read_json
from .graph import belief_values


@dataclass(frozen=True)
class RuleTemplate:
    """A named spectral response with a nonnegative mixture weight."""

    name: str
    response: object
    weight: float = 1.0

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("rule name must be a nonempty string")
        if not callable(self.response):
            raise ValueError("rule response must be callable on eigenvalues")
        w = float(self.weight)
        if not np.isfinite(w) or w < 0:
            raise ValueError(f"rule weight must be nonnegative, got {self.weight}")
        object.__setattr__(self, "weight", w)


@dataclass(frozen=True)
class RuleSet:
    templates: tuple[RuleTemplate, ...] = ()

    def __post_init__(self):
        templates = tuple(self.templates)
        names = [t.name for t in templates]
        if len(set(names)) != len(names):
            raise ValueError("rule names must be unique within a set")
        object.__setattr__(self, "templates", templates)

    def __len__(self) -> int:
        return len(self.templates)

    def __call__(self, lam):
        """The set's spectral response, the pointwise mixture sum_r w_r phi_r(lam).

        Aggregating templates on a basis equals filtering once with this
        mixture, which is what makes rule sets fittable as one filter. An
        empty set has no mixture and is refused.
        """
        if not self.templates:
            raise ValueError("cannot form the mixture of an empty rule set")
        lam = np.asarray(lam, dtype=float)
        acc = np.zeros_like(lam)
        for t in self.templates:
            acc = acc + t.weight * np.asarray(t.response(lam), dtype=float)
        return acc if acc.ndim else float(acc)


@dataclass(frozen=True)
class PredicateVector:
    """Thresholded beliefs: hard indicators plus an optional soft sigmoid."""

    hard: np.ndarray
    soft: np.ndarray | None

    def __post_init__(self):
        hard = np.array(self.hard, dtype=bool)
        hard.setflags(write=False)
        object.__setattr__(self, "hard", hard)
        if self.soft is not None:
            soft = np.array(self.soft, dtype=float)
            if soft.shape != hard.shape:
                raise ValueError("soft and hard projections must align")
            if np.any(soft < 0) or np.any(soft > 1):
                raise ValueError("soft predicates must lie in [0, 1]")
            soft.setflags(write=False)
            object.__setattr__(self, "soft", soft)


def project_predicates(y, threshold: float = 0.0,
                       temperature: float | None = None) -> PredicateVector:
    """Project beliefs to predicates.

    hard: p_i = 1 iff y_i > threshold, always populated. soft, formed exactly
    when a temperature is given, which must be positive:
    sigmoid(temperature * (y_i - threshold)).
    """
    values = belief_values(y)
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    hard = values > threshold
    soft = None
    if temperature is not None:
        if not np.isfinite(temperature) or temperature <= 0:
            raise ValueError("soft projection requires a positive temperature")
        with np.errstate(over="ignore"):  # exp overflows to inf for z below -709: p = 0
            soft = 1.0 / (1.0 + np.exp(-(temperature * (values - threshold))))
    return PredicateVector(hard=hard, soft=soft)


@dataclass(frozen=True)
class HornClause:
    """body -> head over propositional atoms; an empty body always fires."""

    body: frozenset[str]
    head: str

    def __post_init__(self):
        object.__setattr__(self, "body", frozenset(self.body))
        if not isinstance(self.head, str) or not self.head:
            raise ValueError("clause head must be a nonempty atom")


@dataclass(frozen=True)
class RuleBase:
    atoms: tuple[str, ...]
    clauses: tuple[HornClause, ...] = ()

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValueError("rulebase needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atoms must be unique")
        if any(not isinstance(a, str) or not a for a in atoms):
            raise ValueError("atoms must be nonempty strings")
        universe = set(atoms)
        clauses = tuple(self.clauses)
        for clause in clauses:
            unknown = (clause.body | {clause.head}) - universe
            if unknown:
                raise ValueError(f"clause mentions unknown atoms {sorted(unknown)}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "clauses", clauses)


def forward_chain(rb: RuleBase, facts) -> frozenset:
    """Least fixpoint of the Horn clauses over the starting facts: the unique minimal
    model containing them, independent of clause order. Linear in the rulebase's size
    (W. F. Dowling and J. H. Gallier, J. Logic Programming 1, 1984): each clause counts
    its body atoms not yet known, and each atom that becomes known is queued once and
    counts down the clauses whose body holds it.
    """
    known = set(facts)
    unknown = known - set(rb.atoms)
    if unknown:
        raise ValueError(f"facts mention unknown atoms {sorted(unknown)}")
    waiting = [len(clause.body) for clause in rb.clauses]
    watchers = {}
    for k, clause in enumerate(rb.clauses):
        for atom in clause.body:
            watchers.setdefault(atom, []).append(k)
    queue = list(known)

    def fire(k: int) -> None:
        if rb.clauses[k].head not in known:
            known.add(rb.clauses[k].head)
            queue.append(rb.clauses[k].head)

    for k, count in enumerate(waiting):
        if count == 0:  # an empty body fires at once
            fire(k)
    for atom in queue:  # the loop runs over the atoms that queue gains as it goes
        for k in watchers.get(atom, ()):
            waiting[k] -= 1
            if waiting[k] == 0:
                fire(k)
    return frozenset(known)


def rulebase_to_json(rb: RuleBase) -> str:
    payload = {
        "atoms": list(rb.atoms),
        "clauses": [{"body": sorted(c.body), "head": c.head} for c in rb.clauses],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


CLAUSE = {"body": [str], "head": str}  # a Horn clause as rulebase and task JSON hold it
_RULEBASE = {"atoms": [str], "clauses": [CLAUSE]}
_TEMPLATE = {"name": str, "kind": str, "params": [float], "weight": Default(float, 1.0)}


def rulebase_from_dict(payload: dict) -> RuleBase:
    """The RuleBase of a checked rulebase document, or of a task's atoms and clauses."""
    return RuleBase(atoms=tuple(payload["atoms"]),
                    clauses=tuple(HornClause(body=frozenset(c["body"]), head=c["head"])
                                  for c in payload["clauses"] or ()))


def load_rulebase(raw: bytes) -> RuleBase:
    return read_json(raw, _RULEBASE, rulebase_from_dict)


def load_templates(raw: bytes) -> RuleSet:
    return read_json(raw, [_TEMPLATE], lambda payload: RuleSet(templates=tuple(
        RuleTemplate(name=t["name"], weight=t["weight"],
                     response=ft.AnalyticResponse(kind=t["kind"], params=tuple(t["params"])))
        for t in payload)))
