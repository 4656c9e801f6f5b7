"""Rank-normalised bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner, "Rank-normalization,
folding, and localization: an improved R-hat for assessing convergence of
MCMC", Bayesian Analysis 16(2), 2021: split every chain in half, replace the
pooled draws by normal scores of their ranks, and sum the multi-chain
autocorrelations with Geyer's initial monotone sequence.
"""

from __future__ import annotations

import numpy as np


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, lags 0..n-1, by FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, size, axis=1)
    return np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n


def bulk_ess(draws) -> float:
    """Bulk ESS of a (chains, draws) array."""
    from scipy import special, stats  # scipy.stats is slow to import; keep it out of set-up

    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] < 4:
        raise ValueError("need a (chains, draws) array with at least 4 draws per chain")
    half = draws.shape[1] // 2
    split = np.concatenate([draws[:, :half], draws[:, -half:]], axis=0)
    m, n = split.shape
    ranks = stats.rankdata(split, method="average").reshape(m, n)
    z = special.ndtri((ranks - 0.375) / (m * n + 0.25))

    acov = _autocovariance(z)
    w = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = w * (n - 1.0) / n + z.mean(axis=1).var(ddof=1)
    if not var_plus > 0:
        return float(m * n)
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer: sum adjacent pairs while positive, forced to be non-increasing
    tau, prev, t = -1.0, np.inf, 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        prev = min(prev, pair)
        tau += 2.0 * prev
        t += 2
    return float(m * n / max(tau, 1.0 / np.log10(m * n)))
