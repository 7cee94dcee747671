"""Gradient-based training of Chebyshev filters, and gated expert mixtures.

Training fits one filter's coefficients. The data term is the mean squared
error to each example's target. Operator gradients are exact reverse-mode
through the Chebyshev recurrence, reported in the symmetric subspace.
Penalties steer where output energy is allowed to live and how outputs
should transfer across graphs. A mixture pools its experts' coefficients
through a softmax gate over five spectral features of its input.

Cost: an example's recurrence trace b_0 .. b_K depends on the operator and
the example, not on the coefficients, so training takes the traces as its
examples: one QR of each trace, O(K^2 n), and then O(K^2) per example per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import filters as ft
from .analysis import BandPartition, band_energy, equal_bands
from .graph import ScaledLaplacian, SpectralBasis, belief_values, csv_text

GATING_FEATURES = ("total_energy", "low_band_fraction", "mid_band_fraction",
                   "high_band_fraction", "node_count")


class DivergenceError(RuntimeError):
    """Training loss became non-finite; carries the offending epoch."""

    def __init__(self, epoch: int):
        super().__init__(f"loss diverged at epoch {epoch}")
        self.epoch = epoch


def grad_scaled_laplacian(dLdy, theta, trace: np.ndarray, lt: ScaledLaplacian) -> np.ndarray:
    """Exact reverse-mode gradient of the loss w.r.t. the scaled operator.

    Walks the recurrence b_k = 2 Lt b_{k-1} - b_{k-2} backwards, pushing
    adjoints down and accumulating outer products; the result is
    symmetrized because the operator is constrained symmetric. trace holds
    b_0 .. b_K as rows, as ``cheb_apply(..., keep_trace=True)`` returns it.
    """
    g = belief_values(dLdy, trace.shape[1])
    theta = np.asarray(theta, dtype=float)
    order = len(trace) - 1
    if theta.size != order + 1:
        raise ValueError("theta length does not match the trace")
    n = g.size
    adj = [theta[k] * g for k in range(order + 1)]
    grad = np.zeros((n, n))
    for k in range(order, 1, -1):
        grad += 2.0 * np.outer(adj[k], trace[k - 1])
        adj[k - 1] = adj[k - 1] + 2.0 * (lt @ adj[k])
        adj[k - 2] = adj[k - 2] - adj[k]
    if order >= 1:
        grad += np.outer(adj[1], trace[0])
    return 0.5 * (grad + grad.T)


def gating_features(basis: SpectralBasis, x) -> np.ndarray:
    """The five gating inputs: total energy, three band fractions, node count."""
    report = band_energy(basis, x, equal_bands(basis, 3))
    values = belief_values(x)
    return np.array([float(values @ values), report.fractions[0],
                     report.fractions[1], report.fractions[2],
                     float(basis.node_count)])


@dataclass(frozen=True)
class MoSEModel:
    """Mixture of spectral experts with a linear softmax gate.

    Every expert shares one lambda_max so a single recurrence trace
    serves them all; gating_weights has one row per expert over the
    GATING_FEATURES inputs.
    """

    experts: tuple[ft.ChebyshevFilter, ...]
    gating_weights: np.ndarray

    def __post_init__(self):
        experts = tuple(self.experts)
        if not experts:
            raise ValueError("a mixture needs at least one expert")
        if not all(ft.lambda_max_matches(experts[0].lambda_max, e.lambda_max) for e in experts):
            raise ValueError("experts must share a single lambda_max")
        weights = np.array(self.gating_weights, dtype=float)
        if weights.shape != (len(experts), len(GATING_FEATURES)):
            raise ValueError(
                f"gating weights must be ({len(experts)}, {len(GATING_FEATURES)}), got {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("gating weights must be finite")
        weights.setflags(write=False)
        object.__setattr__(self, "experts", experts)
        object.__setattr__(self, "gating_weights", weights)

    @property
    def lambda_max(self) -> float:
        return self.experts[0].lambda_max

    @property
    def max_order(self) -> int:
        return max(e.order for e in self.experts)


def mose_gate(model: MoSEModel, features) -> np.ndarray:
    """Softmax gate alpha = softmax(W f); always a point on the simplex."""
    f = np.asarray(features, dtype=float)
    if f.shape != (len(GATING_FEATURES),):
        raise ValueError(f"features must have length {len(GATING_FEATURES)}")
    logits = model.gating_weights @ f
    weights = np.exp(logits - logits.max())
    return weights / weights.sum()


def pooled_coefficients(model: MoSEModel, alpha) -> np.ndarray:
    """Gate-weighted coefficient pool: sum_b alpha_b theta_b, zero-padded."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (len(model.experts),):
        raise ValueError("alpha must hold one weight per expert")
    pooled = np.zeros(model.max_order + 1)
    for weight, expert in zip(alpha, model.experts):
        pooled[: expert.theta.size] += weight * expert.theta
    return pooled


def mose_apply(model: MoSEModel, lt: ScaledLaplacian, x, features):
    """Filter through the gate-pooled coefficients in one recurrence pass.

    Identical to summing alpha_b-weighted expert outputs because the
    output is linear in the coefficients.
    """
    pooled = pooled_coefficients(model, mose_gate(model, features))
    return ft.cheb_apply(ft.ChebyshevFilter(theta=pooled, lambda_max=model.lambda_max), lt, x)


@dataclass(frozen=True)
class CurriculumSchedule:
    """Epoch-indexed caps on the trainable coefficient order.

    stages are (start_epoch, max_order) pairs; the first stage starts at
    epoch zero and caps never decrease, so later masks contain earlier
    ones.
    """

    stages: tuple[tuple[int, int], ...]

    def __post_init__(self):
        stages = tuple((int(e), int(k)) for e, k in self.stages)
        if not stages:
            raise ValueError("curriculum needs at least one stage")
        if stages[0][0] != 0:
            raise ValueError("the first curriculum stage must start at epoch 0")
        epochs = [e for e, _ in stages]
        orders = [k for _, k in stages]
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            raise ValueError("curriculum stage epochs must increase strictly")
        if any(k < 0 for k in orders):
            raise ValueError("curriculum stage orders must be nonnegative")
        if any(b < a for a, b in zip(orders, orders[1:])):
            raise ValueError("curriculum stage orders must not decrease")
        object.__setattr__(self, "stages", stages)

    def cap_at(self, epoch: int) -> int:
        cap = self.stages[0][1]
        for start, order in self.stages:
            if start <= epoch:
                cap = order
            else:
                break
        return cap


def curriculum_mask(schedule: CurriculumSchedule | None, epoch: int, order: int) -> np.ndarray:
    """Boolean mask over theta_0 .. theta_order; masked entries stay frozen."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    mask = np.ones(order + 1, dtype=bool)
    if schedule is None:
        return mask
    cap = schedule.cap_at(epoch)
    mask[np.arange(order + 1) > cap] = False
    return mask


@dataclass(frozen=True)
class PenaltyWeights:
    proof: float = 0.0
    transfer: float = 0.0

    def __post_init__(self):
        for name, weight in (("proof", self.proof), ("transfer", self.transfer)):
            if not (np.isfinite(weight) and weight >= 0):
                raise ValueError(f"penalties.{name} must be finite and nonnegative, got {weight!r}")


@dataclass(frozen=True)
class PenaltyContext:
    """Shared structures the penalties read: the basis and bands proof needs, and the
    output, one value per node, that transfer holds the model's outputs to."""

    basis: SpectralBasis | None = None
    partition: BandPartition | None = None
    allowed_bands: tuple[int, ...] = ()
    transfer_reference: np.ndarray | None = None


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 100
    clip_norm: float | None = 10.0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and nonnegative, "
                             f"got {self.learning_rate!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs!r}")
        if self.clip_norm is not None and not (np.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError(f"clip_norm must be finite and positive, got {self.clip_norm!r}")


@dataclass(frozen=True)
class TrainResult:
    model: ft.ChebyshevFilter
    history: tuple[tuple, ...]


HISTORY_COLUMNS = ("epoch", "total", "data_term", "proof_penalty", "transfer")


def history_to_csv(history) -> str:
    """Render training history as CSV with full-precision floats."""
    return csv_text(HISTORY_COLUMNS, history)


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


class _FactoredLoss:
    """One example's loss terms and their gradients, at any coefficients c.

    With B the trace rows b_0 .. b_K, the output is y = B^T c and each term is a
    squared norm ||A z||^2 with A fixed per example. A Householder QR keeps that
    norm, so with R from [B^T | t | ref], built once, each call costs O(K^2):

    - data term ||y - t||^2 / n = ||R [c; -1; 0]||^2 / n;
    - transfer ||y - ref||^2 / n = ||R [c; 0; -1]||^2 / n;
    - proof ||U_dis^T y||^2 / ||y||^2 = ||R_C c||^2 / ||R_B c||^2, with R_B the
      leading block of R and R_C from U_dis^T B^T; a zero output scores 0.
    """

    def __init__(self, trace: np.ndarray, target: np.ndarray,
                 disallowed_rows: np.ndarray | None, reference: np.ndarray | None):
        b = trace.T
        self.size, k1 = b.shape
        columns = [b, target[:, None]] + ([] if reference is None else [reference[:, None]])
        r = np.linalg.qr(np.hstack(columns), mode="r")
        self.basis, self.targets = r[:, :k1], r[:, k1:].T
        self.proof = None if disallowed_rows is None else np.linalg.qr(disallowed_rows @ b,
                                                                        mode="r")

    def __call__(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Raw data term, proof and transfer penalties at c (0 when off), and their gradients."""
        values, grads = np.zeros(3), np.zeros((3, c.size))
        fitted = self.basis @ c  # R_B c, padded with zeros
        for term, target in zip((0, 2), self.targets):
            residual = fitted - target
            values[term] = float(residual @ residual) / self.size
            grads[term] = (2.0 / self.size) * (self.basis.T @ residual)
        total = float(fitted @ fitted)
        if self.proof is not None and total > 0.0:
            outside = self.proof @ c
            values[1] = float(outside @ outside) / total
            grads[1] = (2.0 / total) * (self.proof.T @ outside
                                        - values[1] * (self.basis.T @ fitted))
        return values, grads


def _record_epoch(history: list, epoch: int, pw: PenaltyWeights, means: np.ndarray) -> None:
    """Append one history row: the epoch, the weighted total and means, the per-example
    data term, proof and transfer penalties, unweighted."""
    data_total, proof_total, transfer_total = (float(v) for v in means)
    total = data_total + pw.proof * proof_total + pw.transfer * transfer_total
    if not np.isfinite(total):
        raise DivergenceError(epoch)
    history.append((epoch, total, data_total, proof_total, transfer_total))


def _clipped(grad: np.ndarray, clip_norm: float | None) -> np.ndarray:
    """grad scaled down to norm clip_norm when it is longer than that."""
    if clip_norm is not None:
        norm = float(np.linalg.norm(grad))
        if norm > clip_norm:
            grad = grad * (clip_norm / norm)
    return grad


def train(model: ft.ChebyshevFilter, traces, targets,
          penalties: PenaltyWeights | None = None,
          schedule: CurriculumSchedule | None = None,
          config: TrainConfig | None = None,
          context: PenaltyContext | None = None) -> TrainResult:
    """Full-batch gradient descent on a filter's coefficients.

    An example is its recurrence trace and its target: the trace b_0 .. b_K, row 0
    the beliefs, as ``cheb_apply(..., keep_trace=True)`` returns it on the operator
    the model is trained for, and the output the model should give there. Every
    epoch each example scores the coefficients on the QR factors of its trace,
    built once before the first epoch. The data term is the mean squared error to
    the targets.

    Records one history row per epoch before the update; penalty columns
    hold raw (unweighted) values while the total applies the configured
    weights.
    """
    cfg = config or TrainConfig()
    ctx = context or PenaltyContext()
    pw = penalties or PenaltyWeights()
    order = model.order
    traces = [np.asarray(t, dtype=float) for t in traces]
    targets = [np.asarray(t, dtype=float) for t in targets]
    n = traces[0].shape[-1] if traces and traces[0].ndim else None
    _require(bool(traces) and len(targets) == len(traces)
             and all(t.shape == (order + 1, n) for t in traces)
             and all(t.shape == (n,) for t in targets),
             "training needs one or more traces, each of the model's order + 1 rows over "
             "n nodes, and one target of n values per trace")
    _require(pw.proof == 0 or (ctx.basis is not None and ctx.partition is not None
                               and len(ctx.allowed_bands) > 0),
             "proof penalty needs a basis, partition, and allowed bands")
    _require(pw.proof == 0 or all(0 <= int(b) < ctx.partition.n_bands for b in ctx.allowed_bands),
             f"allowed bands {list(ctx.allowed_bands)} outside the partition")
    _require(pw.transfer == 0 or np.shape(ctx.transfer_reference) == (n,),
             "transfer penalty needs a reference output, one value per node")

    disallowed_rows = reference = None
    if pw.proof > 0:
        disallowed = ~np.isin(ctx.partition.band_of(ctx.basis.eigenvalues),
                              [int(b) for b in ctx.allowed_bands])
        disallowed_rows = ctx.basis.eigenvectors[:, disallowed].T
    if pw.transfer > 0:
        reference = np.asarray(ctx.transfer_reference, dtype=float)
    losses = [_FactoredLoss(trace, target, disallowed_rows, reference)
              for trace, target in zip(traces, targets)]
    term_weights = np.array([1.0, pw.proof, pw.transfer])

    theta, history = model.theta, []
    # a diverging run overflows on its way to DivergenceError, which reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            grad = np.zeros(order + 1)
            sums = np.zeros(3)  # data term, proof and transfer penalties over the examples
            for loss in losses:
                values, grads = loss(theta)
                sums += values
                grad += term_weights @ grads
            _record_epoch(history, epoch, pw, sums / len(losses))
            step = np.where(curriculum_mask(schedule, epoch, order), grad / len(losses), 0.0)
            theta = theta - cfg.learning_rate * _clipped(step, cfg.clip_norm)
            if not np.all(np.isfinite(theta)):
                raise DivergenceError(epoch)
    return TrainResult(model=ft.ChebyshevFilter(theta=theta, lambda_max=model.lambda_max),
                       history=tuple(history))
