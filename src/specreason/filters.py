"""Spectral responses and the operators that realize them.

A response is a scalar function of the Laplacian eigenvalue. Analytic
templates are exact closed forms; ChebyshevFilter is a truncated series
applied to sparse operators through the three-term recurrence without any
eigendecomposition. The dense functional-calculus path is kept as the
slow reference implementation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from ._schema import Default, read_json
from .graph import (LambdaMaxEstimate, Laplacian, ScaledLaplacian, SpectralBasis, belief_values,
                    float_text, gft, lambda_max_value, scale_exponent)

ANALYTIC_KINDS = ("diffusion", "highpass", "gaussian_bandpass", "identity", "polynomial")
_LAMBDA_MATCH_RTOL = 1e-9
_CG_TOL = 1e-10  # relative residual at which rational_apply's conjugate gradient stops
_CG_STEPS_PER_NODE = 10  # its step cap, per node of the operator
_FLOAT_MAX = float(np.finfo(float).max)
_SQUARE_SAFE = 2.0 ** 500  # a value up to this in magnitude squares, and doubles, in range


class SolverError(RuntimeError):
    """Iterative solve failed to reach the requested residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class AnalyticResponse:
    """Closed-form spectral response, one of ANALYTIC_KINDS.

    diffusion(tau):             1 / (1 + tau * lam)
    highpass(beta):             lam / (lam + beta)
    gaussian_bandpass(c, w):    exp(-(lam - c)^2 / (2 w^2))
    identity():                 1
    polynomial(c0, c1, ...):    sum_k c_k lam^k
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ANALYTIC_KINDS:
            raise ValueError(f"unknown response kind {self.kind!r}")
        params = tuple(float(p) for p in self.params)
        if not all(np.isfinite(p) for p in params):
            raise ValueError("response parameters must be finite")
        if self.kind == "diffusion":
            if len(params) != 1 or params[0] <= 0:
                raise ValueError("diffusion takes a single positive tau")
        elif self.kind == "highpass":
            if len(params) != 1 or params[0] <= 0:
                raise ValueError("highpass takes a single positive beta")
        elif self.kind == "gaussian_bandpass":
            if len(params) != 2 or params[1] <= 0:
                raise ValueError("gaussian_bandpass takes (center, width) with width > 0")
        elif self.kind == "identity":
            if params:
                raise ValueError("identity takes no parameters")
        else:
            if not params:
                raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "params", params)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.kind == "diffusion":
            tau = self.params[0]
            # past |lam| = max / tau, tau * lam overflows and the 1 is lost: 1 / (tau lam)
            out = _piecewise(lam, np.abs(lam) <= _FLOAT_MAX / tau,
                             lambda x: 1.0 / (1.0 + tau * x), lambda x: (1.0 / tau) / x)
        elif self.kind == "highpass":
            out = lam / (lam + self.params[0])
        elif self.kind == "gaussian_bandpass":
            center, width = self.params
            # with the width in [2^-500, 2^500] and the distance to the centre at most
            # 2^500 min(1, width), the distance, the width and their ratio square in range;
            # half the distance is formed, as it cannot overflow
            in_range = 1 / _SQUARE_SAFE <= width <= _SQUARE_SAFE
            reach = _SQUARE_SAFE * min(1.0, width) if in_range else -1.0
            near = np.abs(0.5 * lam - 0.5 * center) <= reach / 2

            def far(x):
                # half the distance in units of 32 widths, capped at 1: exp(-2048) is 0 already
                units = np.minimum(np.abs(0.5 * x - 0.5 * center) / 32.0, width) / width
                return np.exp(-2048.0 * units * units)

            out = _piecewise(lam, near,
                             lambda x: np.exp(-((x - center) ** 2) / (2.0 * width * width)), far)
        elif self.kind == "identity":
            out = np.ones_like(lam)
        else:
            out = nppoly.polyval(lam, np.asarray(self.params))
        return out if out.ndim else float(out)


def _piecewise(lam: np.ndarray, ordinary: np.ndarray, form, far_form) -> np.ndarray:
    """form(lam) where ordinary holds and far_form(lam) elsewhere, each given only its own
    entries: form is the closed form as written, far_form one that cannot overflow."""
    if ordinary.all():
        return form(lam)
    out = np.empty(lam.shape)
    out[ordinary] = form(lam[ordinary])
    out[~ordinary] = far_form(lam[~ordinary])
    return out


def diffusion(tau: float) -> AnalyticResponse:
    return AnalyticResponse("diffusion", (tau,))


def highpass(beta: float) -> AnalyticResponse:
    return AnalyticResponse("highpass", (beta,))


def gaussian_bandpass(center: float, width: float) -> AnalyticResponse:
    return AnalyticResponse("gaussian_bandpass", (center, width))


def identity() -> AnalyticResponse:
    return AnalyticResponse("identity", ())


def polynomial(*coeffs: float) -> AnalyticResponse:
    return AnalyticResponse("polynomial", tuple(coeffs))


def response_eval(response, points) -> np.ndarray:
    """Evaluate a response (analytic, fitted Chebyshev, or rule-set mixture) on points."""
    return np.asarray(response(np.asarray(points, dtype=float)), dtype=float)


_FILTER = {"lambda_max": float, "theta": [float],
           "bound": Default({"method": str, "iterations": int, "converged": bool,
                             "degenerate": bool, "graph_sha256": str}, None)}


@dataclass(frozen=True)
class ChebyshevFilter:
    """Truncated Chebyshev series over the rescaled spectrum [-1, 1].

    theta holds K + 1 coefficients for T_0 .. T_K; lambda_max is the
    spectral bound the rescaling was built against and must match the
    operator the filter is applied to. bound, when present, is the estimate
    lambda_max came from, and graph_sha256 the fingerprint of its operator.
    """

    theta: np.ndarray
    lambda_max: float
    bound: LambdaMaxEstimate | None = None
    graph_sha256: str | None = None

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        if theta.ndim != 1 or theta.size < 1:
            raise ValueError("theta must hold at least one coefficient")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        lambda_max = lambda_max_value(self.lambda_max)
        if self.bound is not None and (self.bound.iterations < 0 or not re.fullmatch(
                r"[0-9a-f]{64}", self.graph_sha256 or "")):
            raise ValueError(f"bound needs iterations >= 0 and a 64-hex-digit graph_sha256, got "
                             f"{self.bound.iterations} and {self.graph_sha256!r}")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "lambda_max", lambda_max)

    @property
    def order(self) -> int:
        return self.theta.size - 1

    def __call__(self, lam):
        # divided first: no overflow near the float range, and the bits of 2 lam / lambda_max
        scaled = np.asarray(lam, dtype=float) / self.lambda_max * 2.0 - 1.0
        out = npcheb.chebval(scaled, self.theta)
        return out if np.ndim(out) else float(out)

    def to_json(self) -> str:
        coeffs = ", ".join(map(float_text, self.theta))
        # the bound record's keys in the schema's order; graph_sha256 is the filter's own
        bound = "" if self.bound is None else ', "bound": ' + json.dumps(
            {key: getattr(self.bound, key, self.graph_sha256) for key in _FILTER["bound"].kind})
        return ('{"lambda_max": %s, "theta": [%s]%s}'
                % (float_text(self.lambda_max), coeffs, bound))


def load_filter(raw: bytes) -> ChebyshevFilter:
    return read_json(raw, _FILTER, _filter_from_dict)


def _filter_from_dict(payload: dict) -> ChebyshevFilter:
    record, lambda_max = payload["bound"] or {}, payload["lambda_max"]
    sha = record.pop("graph_sha256", None)
    return ChebyshevFilter(theta=payload["theta"], lambda_max=lambda_max, graph_sha256=sha,
                           bound=LambdaMaxEstimate(value=lambda_max, **record) if record else None)


def fit_chebyshev(response, order: int, lambda_max: float) -> ChebyshevFilter:
    """Project a response onto T_0 .. T_order by Chebyshev-Gauss quadrature
    on M = max(64, 4 (order + 1)) nodes."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    lambda_max = lambda_max_value(lambda_max)
    nodes = max(64, 4 * (order + 1))
    angles = np.pi * (np.arange(nodes) + 0.5) / nodes
    z = np.cos(angles)
    lam = lambda_max / 2.0 * (z + 1.0)  # halved first: exact, and no overflow near the float range
    f = response_eval(response, lam)
    if not np.all(np.isfinite(f)):
        raise ValueError("response is not finite on the quadrature nodes")
    k = np.arange(order + 1)
    kernel = np.cos(np.outer(k, angles))
    # the sum over the nodes is taken on f / 2^e (scale_exponent), which is exact: no overflow
    exponent = scale_exponent(f)
    theta = (2.0 / nodes) * (kernel @ np.ldexp(f, -exponent))
    theta[0] *= 0.5
    with np.errstate(over="ignore"):  # a coefficient past the float range is refused below
        theta = np.ldexp(theta, exponent)
    return ChebyshevFilter(theta=theta, lambda_max=lambda_max)


def fit_grid_error(f: ChebyshevFilter, response) -> float:
    """Sup-norm fit error max |f - response| on 1000 evenly spaced points of [0, lambda_max]."""
    grid = np.linspace(0.0, f.lambda_max, 1000)
    return float(np.max(np.abs(response_eval(f, grid) - response_eval(response, grid))))


def lambda_max_matches(reference: float, other: float) -> bool:
    """Whether other is the lambda_max reference, within _LAMBDA_MATCH_RTOL * |reference|:
    the one test of two filters, or a filter and an operator, sharing a bound."""
    return abs(reference - other) <= _LAMBDA_MATCH_RTOL * abs(reference)


def chebyshev_sum(theta, basis_vectors) -> np.ndarray:
    """sum_k theta_k b_k, accumulated from k = 0 upwards.

    The one place a filter output is formed from its recurrence vectors,
    so that recomputing it from a kept trace gives the same bits.
    """
    acc = theta[0] * basis_vectors[0]
    term = np.empty_like(acc)
    for k in range(1, len(theta)):
        np.multiply(theta[k], basis_vectors[k], out=term)
        acc += term
    return acc


def cheb_apply(f: ChebyshevFilter, lt: ScaledLaplacian, x, keep_trace: bool = False):
    """Apply the filter through the sparse three-term recurrence.

    b_0 = x, b_1 = Lt x, b_{k+1} = 2 Lt b_k - b_{k-1}; the output is
    sum_k theta_k b_k at O(K |E|) cost. With keep_trace the trace b_0 .. b_K
    is returned too, a read-only (K + 1, n) array, for gradient computation.
    """
    if not lambda_max_matches(f.lambda_max, lt.lambda_max):
        raise ValueError(
            f"filter lambda_max {f.lambda_max!r} does not match operator {lt.lambda_max!r}")
    values = belief_values(x, lt.node_count)
    rows = [values]
    if f.order >= 1:
        rows.append(lt @ values)
    for _ in range(2, f.order + 1):
        rows.append(2.0 * (lt @ rows[-1]) - rows[-2])
    y = chebyshev_sum(f.theta, rows)
    if keep_trace:
        trace = np.array(rows)
        trace.setflags(write=False)
        return y, trace
    return y


def dense_filter_apply(basis: SpectralBasis, response, x):
    """Exact functional calculus U h(Lambda) U^T x. Reference path only.

    The products h_k c_k are formed on h / 2^e, e its binary exponent (scale_exponent),
    so that none overflows where the output does not, and the output is scaled back by
    2^e, where an entry beyond the float range reads inf.
    """
    coeffs = gft(basis, x)
    h = response_eval(response, basis.eigenvalues)
    exponent = scale_exponent(h)
    y = basis.eigenvectors @ (np.ldexp(h, -exponent) * coeffs)
    with np.errstate(over="ignore"):
        return np.ldexp(y, exponent)


def rational_apply(tau: float, lap: Laplacian, x):
    """Solve (I + tau L) y = x by conjugate gradient.

    The system matrix is symmetric positive definite for tau >= 0 on any
    PSD Laplacian, so plain CG applies. Stops when the residual drops
    below _CG_TOL * ||x|| (1e-10); failure to do so within _CG_STEPS_PER_NODE
    steps per node raises SolverError carrying the final relative residual.
    """
    if not np.isfinite(tau) or tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    n = lap.node_count
    b = belief_values(x, n)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(n)

    y = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    iterations = 0
    while np.sqrt(rs) > _CG_TOL * norm_b and iterations < _CG_STEPS_PER_NODE * n:
        ap = p + tau * (lap @ p)
        denom = float(p @ ap)
        if denom <= 0.0:
            raise SolverError("conjugate gradient lost positive definiteness",
                              residual=float(np.sqrt(rs) / norm_b), iterations=iterations)
        alpha = rs / denom
        y = y + alpha * p
        r = r - alpha * ap
        rs_next = float(r @ r)
        p = r + (rs_next / rs) * p
        rs = rs_next
        iterations += 1
    relative = float(np.sqrt(rs) / norm_b)
    if relative > _CG_TOL:
        raise SolverError(
            f"conjugate gradient stalled at relative residual {relative:.3e} after {iterations} iterations",
            residual=relative, iterations=iterations)
    return y
