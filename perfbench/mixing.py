"""Rank-normalized split-chain Rhat and bulk ESS (Vehtari et al. 2021,
Bayesian Analysis 16(2)), computed from the draws CSV alone.

The benchmark keeps its own estimator so that a change to the diagnostics
inside jmsched cannot redefine the mixing metrics it reports.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _split(chains: np.ndarray) -> np.ndarray:
    """(m, n) -> (2m, n // 2): each chain cut into its two halves."""
    half = chains.shape[1] // 2
    return np.concatenate([chains[:, :half], chains[:, half: 2 * half]])


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    ranks = rankdata(x, method="average").reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def _rhat(x: np.ndarray) -> float:
    m, n = x.shape
    within = x.var(axis=1, ddof=1).mean()
    between = n * x.mean(axis=1).var(ddof=1)
    if within == 0.0:
        return 1.0
    return math.sqrt(((n - 1) / n * within + between / n) / within)


def _ess(x: np.ndarray) -> float:
    """Multi-chain ESS with Geyer's initial monotone sequence."""
    m, n = x.shape
    centred = x - x.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(centred, 2 * n, axis=1)
    acov = np.fft.irfft(spec * np.conjugate(spec), axis=1)[:, :n] / n
    within = x.var(axis=1, ddof=1).mean()
    var_plus = within * (n - 1) / n + x.mean(axis=1).var(ddof=1)
    if var_plus == 0.0:
        return float(m * n)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    tau, prev, k = -1.0, math.inf, 0
    while 2 * k + 1 < n:
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair < 0.0:
            break
        pair = min(pair, prev)
        prev = pair
        tau += 2.0 * pair
        k += 1
    return float(m * n / max(tau, 1.0 / math.log10(m * n)))


def rhat(chains) -> float:
    """max of bulk and folded rank-normalized split-Rhat; chains is (m, n)."""
    x = _split(np.asarray(chains, dtype=float))
    folded = np.abs(x - np.median(x))
    return max(_rhat(_rank_normalize(x)), _rhat(_rank_normalize(folded)))


def bulk_ess(chains) -> float:
    """Bulk ESS of the rank-normalized split chains; chains is (m, n)."""
    return _ess(_rank_normalize(_split(np.asarray(chains, dtype=float))))
