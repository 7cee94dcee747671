"""Logical rules realized as spectral templates, plus symbolic closure.

Soft rules are spectral responses weighted and summed into a mixture;
hard rules are Horn clauses over a propositional atom set, chained to a
least fixpoint. Proposals from an external generator are vetted here
before they may touch the graph or the rule set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import filters as ft
from .graph import (
    DENSE_CAP,
    Graph,
    ScaledLaplacian,
    SpectralBasis,
    belief_values,
    build_laplacian,
)

DEFAULT_SPARSE_ORDER = 16


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

    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.templates)

    def __call__(self, lam):
        """The set's spectral response: its weighted mixture (see mixture_response) at lam."""
        return mixture_response(self)(lam)


def _apply_response(response, carrier, x, order: int):
    if isinstance(carrier, SpectralBasis):
        return ft.dense_filter_apply(carrier, response, x)
    if isinstance(carrier, ScaledLaplacian):
        fitted = ft.fit_chebyshev(response, order, carrier.lambda_max)
        return ft.cheb_apply(fitted, carrier, x)
    raise TypeError(f"carrier must be a SpectralBasis or ScaledLaplacian, got {type(carrier).__name__}")


def apply_rule(template: RuleTemplate, carrier, x, order: int = DEFAULT_SPARSE_ORDER):
    """Apply a single unweighted template response through the carrier.

    A SpectralBasis carrier uses exact functional calculus; a
    ScaledLaplacian carrier fits the response at ``order`` and runs the
    sparse recurrence.
    """
    return _apply_response(template.response, carrier, x, order)


def aggregate_rules(ruleset: RuleSet, carrier, x, order: int = DEFAULT_SPARSE_ORDER):
    """Weighted sum over templates, sum_r w_r Phi_r x, as one filter.

    Filtering is linear in the response, so the sum equals one pass with
    mixture_response(ruleset): one exact filter on a basis carrier, or one
    fit and one recurrence on a ScaledLaplacian, instead of one per template.
    """
    return _apply_response(mixture_response(ruleset), carrier, x, order)


def mixture_response(ruleset: RuleSet):
    """Pointwise mixture phi_*(lam) = sum_r w_r phi_r(lam) as a callable.

    Aggregating templates on a basis equals filtering once with this
    mixture, which is what makes rule sets fittable as one filter.
    """
    if not ruleset.templates:
        raise ValueError("cannot form the mixture of an empty rule set")
    templates = ruleset.templates

    def mixture(lam):
        lam = np.asarray(lam, dtype=float)
        acc = np.zeros_like(lam)
        for t in templates:
            acc = acc + t.weight * np.asarray(t.response(lam), dtype=float)
        return acc if acc.ndim else float(acc)

    return mixture


@dataclass(frozen=True)
class PredicateVector:
    """Thresholded beliefs: hard indicators plus an optional soft sigmoid."""

    hard: np.ndarray
    soft: np.ndarray | None
    threshold: float
    temperature: float | None = None

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


def project_predicates(y, threshold: float = 0.0, mode: str = "hard",
                       temperature: float | None = None) -> PredicateVector:
    """Project beliefs to predicates.

    hard: p_i = 1 iff y_i > threshold. soft: sigmoid(temperature *
    (y_i - threshold)), requiring a positive temperature. The hard
    projection is always populated.
    """
    if mode not in ("hard", "soft"):
        raise ValueError(f"mode must be 'hard' or 'soft', got {mode!r}")
    values = belief_values(y, expect_domain="vertex")
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    hard = values > threshold
    soft = None
    if mode == "soft" or temperature is not None:
        if temperature is None or not np.isfinite(temperature) or temperature <= 0:
            raise ValueError("soft projection requires a positive temperature")
        from scipy.special import expit  # imported here: every CLI command would pay for it
        soft = expit(temperature * (values - threshold))
    return PredicateVector(hard=hard, soft=soft, threshold=float(threshold),
                           temperature=None if temperature is None else float(temperature))


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
    """Least fixpoint of the Horn clauses over the starting facts.

    Iterates to saturation; the result is the unique minimal model
    containing the facts, independent of clause order.
    """
    known = set(facts)
    unknown = known - set(rb.atoms)
    if unknown:
        raise ValueError(f"facts mention unknown atoms {sorted(unknown)}")
    changed = True
    while changed:
        changed = False
        for clause in rb.clauses:
            if clause.head not in known and clause.body <= known:
                known.add(clause.head)
                changed = True
    return frozenset(known)


def rulebase_to_json(rb: RuleBase) -> str:
    payload = {
        "atoms": list(rb.atoms),
        "clauses": [{"body": sorted(c.body), "head": c.head} for c in rb.clauses],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def rulebase_from_json(text: str) -> RuleBase:
    payload = json.loads(text)
    if not isinstance(payload, dict) or "atoms" not in payload or "clauses" not in payload:
        raise ValueError("rulebase JSON must hold atoms and clauses")
    clauses = tuple(HornClause(body=frozenset(c["body"]), head=c["head"])
                    for c in payload["clauses"])
    return RuleBase(atoms=tuple(payload["atoms"]), clauses=clauses)


def save_rulebase(rb: RuleBase, path) -> None:
    Path(path).write_text(rulebase_to_json(rb), encoding="utf-8")


def load_rulebase(path) -> RuleBase:
    return rulebase_from_json(Path(path).read_text(encoding="utf-8"))


def template_to_dict(template: RuleTemplate) -> dict:
    response = template.response
    if not isinstance(response, ft.AnalyticResponse):
        raise ValueError("only analytic responses serialize to template JSON")
    return {"name": template.name, "kind": response.kind,
            "params": list(response.params), "weight": template.weight}


def template_from_dict(payload: dict) -> RuleTemplate:
    response = ft.AnalyticResponse(kind=payload["kind"], params=tuple(payload["params"]))
    return RuleTemplate(name=payload["name"], response=response,
                        weight=float(payload.get("weight", 1.0)))


def save_templates(ruleset: RuleSet, path) -> None:
    payload = [template_to_dict(t) for t in ruleset.templates]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_templates(path) -> RuleSet:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, list):
        raise ValueError("template JSON must be a list")
    return RuleSet(templates=tuple(template_from_dict(p) for p in payload))


class ProposalError(ValueError):
    """Malformed proposal line. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Proposal:
    """Candidate edit from an external generator: a new edge or rule."""

    kind: str
    edge: tuple[int, int, float] | None = None
    rule: RuleTemplate | None = None
    origin: str = ""

    def __post_init__(self):
        if self.kind == "edge":
            if self.edge is None or self.rule is not None:
                raise ValueError("edge proposal must carry exactly an edge")
            i, j, w = self.edge
            object.__setattr__(self, "edge", (int(i), int(j), float(w)))
        elif self.kind == "rule":
            if self.rule is None or self.edge is not None:
                raise ValueError("rule proposal must carry exactly a rule")
        else:
            raise ValueError(f"proposal kind must be 'edge' or 'rule', got {self.kind!r}")


def load_proposals(path) -> list[Proposal]:
    """Read proposals from JSONL, one object per line; blanks skipped."""
    proposals = []
    with open(path, "r", encoding="utf-8") as fh:
        for no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ProposalError(no, f"invalid JSON: {exc}") from None
            try:
                kind = payload["kind"]
                origin = payload.get("origin", "")
                if kind == "edge":
                    i, j, w = payload["edge"]
                    proposals.append(Proposal(kind="edge", edge=(int(i), int(j), float(w)),
                                              origin=origin))
                elif kind == "rule":
                    proposals.append(Proposal(kind="rule", rule=template_from_dict(payload["rule"]),
                                              origin=origin))
                else:
                    raise ValueError(f"unknown proposal kind {kind!r}")
            except ProposalError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise ProposalError(no, str(exc)) from None
    return proposals


@dataclass(frozen=True)
class ValidationConfig:
    """Bounds a proposal must respect before it may be applied."""

    max_lambda_growth: float = 0.25
    max_response: float = 10.0
    grid_points: int = 256
    variant: str = "combinatorial"


@dataclass(frozen=True)
class ValidationResult:
    accepted: bool
    reason: str | None = None
    detail: str = ""


def _reject(reason: str, detail: str = "") -> ValidationResult:
    return ValidationResult(accepted=False, reason=reason, detail=detail)


def validate_proposal(proposal: Proposal, g: Graph, ruleset: RuleSet,
                      basis: SpectralBasis, config: ValidationConfig | None = None) -> ValidationResult:
    """Accept or reject a proposal against structural and spectral bounds.

    Edge proposals must be new, well-formed, sign-consistent with the
    graph kind, and must not grow lambda_max by more than the configured
    fraction. Rule proposals must carry a fresh name and keep their
    response magnitude under max_response across the spectrum range.
    On the combinatorial and signed variants an edge of weight w raises
    lambda_max by at most 2|w| (Weyl), so an edge within that bound is
    accepted without an eigensolve; any other edge is checked with a dense
    one. Raises ValueError when the config's variant is not the basis's, or
    for an edge that needs the dense check on a graph above DENSE_CAP nodes.
    """
    cfg = config or ValidationConfig()
    if cfg.variant != basis.variant:
        raise ValueError(f"validation variant {cfg.variant!r} does not match "
                         f"the basis variant {basis.variant!r}")
    if proposal.kind == "edge":
        i, j, w = proposal.edge
        if i == j:
            return _reject("self-loop", f"({i}, {j})")
        if not (0 <= i < g.node_count and 0 <= j < g.node_count):
            return _reject("index-out-of-range", f"({i}, {j}) for {g.node_count} nodes")
        lo, hi = min(i, j), max(i, j)
        start, stop = np.searchsorted(g.rows, [lo, lo + 1])  # g's edges are sorted by (i, j)
        if hi in g.cols[start:stop]:
            return _reject("duplicate-edge", f"({lo}, {hi})")
        if not np.isfinite(w) or w == 0.0:
            return _reject("bad-weight", repr(w))
        if g.kind == "unsigned" and w < 0:
            return _reject("negative-weight", repr(w))
        base = basis.lambda_max
        limit = base * (1.0 + cfg.max_lambda_growth)
        # Weyl: here the edge adds a PSD rank-one term of norm 2|w| (a negative weight
        # under the combinatorial variant goes on to build_laplacian, which refuses it)
        rank_one = cfg.variant == "signed" or (cfg.variant == "combinatorial" and w > 0)
        if rank_one and base + 2.0 * abs(w) <= limit:
            return ValidationResult(accepted=True)
        if g.node_count > DENSE_CAP:
            raise ValueError(
                f"dense eigendecomposition refused for {g.node_count} > {DENSE_CAP} nodes")
        candidate = Graph(g.node_count, kind=g.kind, columns=(
            np.append(g.rows, i), np.append(g.cols, j), np.append(g.weights, w)))
        lap = build_laplacian(candidate, variant=cfg.variant)
        grown = float(np.linalg.eigvalsh(lap.matrix.toarray())[-1])
        if base > 1e-12 and grown > limit:
            return _reject("lambda-growth", f"{grown:.6g} > {base:.6g} * {1 + cfg.max_lambda_growth}")
        return ValidationResult(accepted=True)

    template = proposal.rule
    if isinstance(template, dict):
        template = template_from_dict(template)
    if template.name in ruleset.names():
        return _reject("duplicate-name", template.name)
    top = max(basis.lambda_max, 1e-12)
    grid = np.linspace(0.0, top, cfg.grid_points)
    magnitude = float(np.max(np.abs(ft.response_eval(template.response, grid))))
    if magnitude > cfg.max_response:
        return _reject("response-bound", f"sup |phi| = {magnitude:.6g} > {cfg.max_response}")
    return ValidationResult(accepted=True)
