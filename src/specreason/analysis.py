"""Spectral diagnostics: band energy, robustness, perturbation, transfer.

Everything here reads a belief vector through the eigenbasis and asks
where its energy sits, how stable the filtered output is, how it moves
under band-limited noise, and how well a signal carries over to another
graph's spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import filters as ft
from .graph import SpectralBasis, belief_values, gft, lambda_max_value, scale_exponent
from .rules import RuleSet

CERT_SLACK = 1.05
PROOF_BANDS = 3  # the bands allowed_bands, eval's --perturb-band and the gate's fractions name


@dataclass(frozen=True)
class BandPartition:
    """Contiguous spectral bands cut at ``edges``: [e0, e1), ..., [e_{B-1}, e_B].

    Edges start at zero and increase strictly; the last band is closed so the top
    eigenvalue, which equal_bands cuts the partition at, always lands somewhere.
    """

    edges: np.ndarray

    def __post_init__(self):
        edges = np.array(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("a partition needs at least two edges")
        if edges[0] != 0.0:
            raise ValueError(f"the first edge must be 0, got {edges[0]}")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("edges must increase strictly")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    def band_of(self, lam) -> np.ndarray:
        """Band index for each eigenvalue; one past either end falls in the band there."""
        return np.searchsorted(self.edges[1:-1], np.asarray(lam, dtype=float), side="right")


def equal_bands(top: float, bands: int) -> BandPartition:
    """bands equal bands over [0, top], top a spectrum's top eigenvalue or, when that is not
    positive, as an edgeless graph's is, 1.0. Edge k < bands is k (top / bands), then top:
    np.linspace's bits, with no edge past the float range."""
    if bands < 1:
        raise ValueError("need at least one band")
    top = top if top > 0 else 1.0
    return BandPartition(edges=np.append(np.arange(bands) * (top / bands), top))


@dataclass(frozen=True)
class BandReport:
    """Per-band energies of one signal; fractions are zero when degenerate."""

    partition: BandPartition
    energies: np.ndarray
    fractions: np.ndarray
    degenerate: bool

    def __post_init__(self):
        for name in ("energies", "fractions"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def band_energy(basis: SpectralBasis, y, bands: int) -> BandReport:
    """Split ||y_hat||^2 across bands equal bands of basis's spectrum.

    Parseval makes the energies sum to ||y||^2. A zero signal yields the
    degenerate report with all-zero fractions. y is transformed, and its
    coefficients squared, each in its own scale_exponent frame, so no sum or
    square leaves the float range; the fractions come from the scaled energies,
    and an energy beyond the float range reads inf.
    """
    partition = equal_bands(basis.lambda_max, bands)
    values = belief_values(y)
    shift = scale_exponent(values)
    yhat = gft(basis, np.ldexp(values, -shift))
    exponent = scale_exponent(yhat)
    scaled = np.bincount(partition.band_of(basis.eigenvalues),
                         weights=np.ldexp(yhat, -exponent) ** 2, minlength=bands)
    total = float(scaled.sum())
    degenerate = total <= 0.0
    fractions = np.zeros_like(scaled) if degenerate else scaled / total
    with np.errstate(over="ignore"):
        energies = np.ldexp(scaled, 2 * (exponent + shift))
    return BandReport(partition=partition, energies=energies, fractions=fractions,
                      degenerate=degenerate)


def proof_band_agreement(pairs) -> float:
    """Mean allowed-band energy fraction over (report, allowed_bands) pairs.

    Degenerate reports are skipped; an empty remainder is an error since
    the agreement of nothing is undefined.
    """
    scores = []
    for report, allowed in pairs:
        allowed = sorted(set(int(b) for b in allowed))
        if any(b < 0 or b >= report.energies.size for b in allowed):
            raise ValueError(f"allowed bands {allowed} outside the partition")
        if report.degenerate:
            continue
        scores.append(float(report.fractions[allowed].sum()))
    if not scores:
        raise ValueError("no non-degenerate reports to score")
    return float(np.mean(scores))


def disallowed_rows(basis: SpectralBasis, bands: int, allowed_bands) -> np.ndarray:
    """U_dis^T: basis's eigenvectors whose eigenvalues lie outside allowed_bands of bands equal
    bands, as rows; the proof penalty scores the share of an output's energy they hold."""
    partition = equal_bands(basis.lambda_max, bands)
    allowed = [int(b) for b in allowed_bands]
    if any(b < 0 or b >= bands for b in allowed):
        raise ValueError(f"allowed bands {allowed} outside the partition")
    return basis.eigenvectors[:, ~np.isin(partition.band_of(basis.eigenvalues), allowed)].T


def robustness_certificate(response, lambda_max: float) -> float:
    """The bound ||h(L)||_2 <= sup |h| over [0, lambda_max], inflated by CERT_SLACK.

    sup |h| is the largest |h| at 1001 evenly spaced points, both ends included, where
    the monotone diffusion, highpass and identity responses peak; a gaussian_bandpass
    can peak between them and uses its closed form; a Chebyshev filter's is at most
    sum |theta_k|, as |T_k| <= 1 on the interval as_response holds the spectrum inside. A
    rule set's bound is its templates' bounds times their weights, summed. The bound dominates
    ||h(L) x - h(L) x'|| / ||x - x'|| for any PSD operator whose spectrum lies in the range.
    """
    lambda_max = lambda_max_value(lambda_max)
    if isinstance(response, ft.ChebyshevFilter):
        return float(np.abs(response.theta).sum()) * CERT_SLACK
    if isinstance(response, RuleSet):
        return sum(t.weight * robustness_certificate(t.response, lambda_max)
                   for t in response.templates)
    if isinstance(response, ft.AnalyticResponse) and response.kind == "gaussian_bandpass":
        center, width = response.params
        if 0.0 <= center <= lambda_max:
            sup = 1.0
        else:
            dist = -center if center < 0 else center - lambda_max
            sup = float(np.exp(-(dist ** 2) / (2.0 * width * width)))
    else:
        grid = np.linspace(0.0, lambda_max, 1001)
        sup = float(np.max(np.abs(ft.response_eval(response, grid))))
    return sup * CERT_SLACK


@dataclass(frozen=True)
class PerturbConfig:
    """Band-limited spectral noise: which band of how many equal bands, how strong, which
    stream. A zero magnitude adds none. Refused here, once, in this order: a negative or
    non-finite magnitude, fewer than one band, a band outside the bands."""

    band: int = 2
    magnitude: float = 0.0
    seed: int = 0
    bands: int = PROOF_BANDS

    def __post_init__(self):
        if self.magnitude < 0 or not np.isfinite(self.magnitude):
            raise ValueError(f"magnitude must be nonnegative, got {self.magnitude}")
        if self.bands < 1:
            raise ValueError("need at least one band")
        if not 0 <= self.band < self.bands:
            raise ValueError(f"band {self.band} outside partition with {self.bands} bands")


def spectral_perturb(basis: SpectralBasis, x, noise: PerturbConfig):
    """Add noise's seeded Gaussian noise, confined to its band of noise.bands equal bands.

    The injected component is rescaled so its total norm equals
    ``noise.magnitude`` exactly; since the basis is orthonormal this is also
    ||perturbed - x||. Energy in every other band is untouched because
    the noise is exactly band-supported.
    """
    values = belief_values(x, basis.node_count)
    partition = equal_bands(basis.lambda_max, noise.bands)
    mask = partition.band_of(basis.eigenvalues) == noise.band
    if not np.any(mask):
        raise ValueError(f"band {noise.band} contains no eigenvalues; nothing to perturb")
    if noise.magnitude == 0.0:
        return values.copy()
    rng = np.random.default_rng(noise.seed)
    draw = np.where(mask, rng.standard_normal(values.size), 0.0)
    norm = float(np.linalg.norm(draw))
    while norm == 0.0:  # measure-zero, but keeps the scale exact
        draw = np.where(mask, rng.standard_normal(values.size), 0.0)
        norm = float(np.linalg.norm(draw))
    delta_hat = (noise.magnitude / norm) * draw
    return values + basis.eigenvectors @ delta_hat


def cospectral_loss(a, b) -> float:
    """Squared distance between two spectral coefficient vectors."""
    va = belief_values(a)
    diff = va - belief_values(b, va.size)
    return float(diff @ diff)


def cospectral_profile(eigenvalues, coeffs, points: int = 64) -> np.ndarray:
    """Resample spectral energy onto a fixed grid of relative eigenvalues.

    Each |coeff|^2 is accumulated at the grid point nearest lam /
    lam_max, which lets signals from graphs of different sizes be
    compared. A zero spectrum piles everything into bin zero.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    c = belief_values(coeffs, lam.size)
    if points < 2:
        raise ValueError("profile needs at least two points")
    profile = np.zeros(points)
    top = float(lam[-1]) if lam.size else 0.0
    if top <= 0.0:
        profile[0] = float(c @ c)
        return profile
    idx = np.clip(np.rint(lam / top * (points - 1)).astype(int), 0, points - 1)
    np.add.at(profile, idx, c ** 2)
    return profile

