"""Deterministic statistics primitives shared by the analytics modules.

Implements the small set of inferential statistics the audit pipeline needs
(Welch and pooled two-sample t, one-sample t, paired t, Cohen's d, Pearson r)
plus a keyed deterministic random-number facility. The t-distribution tail
probability is evaluated through a continued-fraction expansion of the
regularized incomplete beta function, so the package carries no statistics
dependency beyond numpy.

Conventions
-----------
Inferential statistics use the sample variance (denominator ``n - 1``).
All p-values are two-sided.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import exp, lgamma, log, log1p, sqrt
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, InsufficientSupportError

_BETACF_MAX_ITER = 400
_BETACF_EPS = 1e-15
_FPMIN = 1e-300


@dataclass(frozen=True)
class TestResult:
    """Outcome of a t-type hypothesis test."""

    statistic: float
    p_value: float
    df: float
    kind: str


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x)
    front = exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: float) -> float:
    """Survival function P(T > t) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * betainc_regularized(df / 2.0, 0.5, x)
    return tail if t > 0 else 1.0 - tail


def t_p_two_sided(t: float, df: float) -> float:
    """Two-sided p-value for a t statistic."""
    return min(1.0, 2.0 * t_sf(abs(t), df))


def _as_float_array(values: Sequence[float], name: str, min_n: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size < min_n:
        raise InsufficientSupportError(
            f"{name} needs at least {min_n} observations, got {arr.size}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def welch_t(sample_a: Sequence[float], sample_b: Sequence[float], pooled: bool = False) -> TestResult:
    """Two-sample t-test; Welch (unequal variances) by default.

    ``pooled=True`` uses the classical equal-variance statistic with
    ``n_a + n_b - 2`` degrees of freedom.
    """
    a = _as_float_array(sample_a, "sample_a", 2)
    b = _as_float_array(sample_b, "sample_b", 2)
    va, vb = a.var(ddof=1), b.var(ddof=1)
    na, nb = a.size, b.size
    if va == 0.0 and vb == 0.0 and a.mean() == b.mean():
        # identical constant samples: no difference, maximal p
        return TestResult(0.0, 1.0, float(na + nb - 2), "pooled_two_sample" if pooled else "welch_two_sample")
    if pooled:
        sp2 = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
        if sp2 == 0.0:
            raise DegenerateDataError("pooled variance is zero")
        t = (a.mean() - b.mean()) / sqrt(sp2 * (1.0 / na + 1.0 / nb))
        df = float(na + nb - 2)
        return TestResult(float(t), t_p_two_sided(t, df), df, "pooled_two_sample")
    se2 = va / na + vb / nb
    if se2 == 0.0:
        raise DegenerateDataError("both samples have zero variance")
    t = (a.mean() - b.mean()) / sqrt(se2)
    df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return TestResult(float(t), t_p_two_sided(t, df), float(df), "welch_two_sample")


def one_sample_t(values: Sequence[float], mu0: float) -> TestResult:
    """One-sample t-test of mean(values) against ``mu0``."""
    x = _as_float_array(values, "values", 2)
    sd = x.std(ddof=1)
    if sd == 0.0:
        if x.mean() == mu0:
            return TestResult(0.0, 1.0, float(x.size - 1), "one_sample")
        raise DegenerateDataError("zero variance with mean != mu0")
    t = (x.mean() - mu0) / (sd / sqrt(x.size))
    df = float(x.size - 1)
    return TestResult(float(t), t_p_two_sided(t, df), df, "one_sample")


def paired_t(diffs: Sequence[float]) -> TestResult:
    """Paired t-test on precomputed within-pair differences."""
    d = _as_float_array(diffs, "diffs", 2)
    sd = d.std(ddof=1)
    if sd == 0.0:
        raise DegenerateDataError("paired differences have zero standard deviation")
    t = d.mean() / (sd / sqrt(d.size))
    df = float(d.size - 1)
    return TestResult(float(t), t_p_two_sided(t, df), df, "paired")


def cohens_d(diffs: Sequence[float]) -> float:
    """Standardized paired effect size mean(d)/sd(d), sample sd.

    All-zero (or exactly mean-zero constant) differences are reported as 0.0;
    a nonzero constant difference has no defined d and raises.
    """
    d = _as_float_array(diffs, "diffs", 2)
    sd = d.std(ddof=1)
    if sd == 0.0:
        if d.mean() == 0.0:
            return 0.0
        raise DegenerateDataError("zero spread with nonzero mean difference")
    return float(d.mean() / sd)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson product-moment correlation."""
    xa = _as_float_array(x, "x", 2)
    ya = _as_float_array(y, "y", 2)
    if xa.size != ya.size:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sxx = float(np.dot(xc, xc))
    syy = float(np.dot(yc, yc))
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateDataError("correlation undefined for constant input")
    r = float(np.dot(xc, yc) / sqrt(sxx * syy))
    return max(-1.0, min(1.0, r))


def stream_entropy(seed: int, stream_key: str) -> list[int]:
    """Entropy words for a named substream: the seed plus a key digest."""
    digest = hashlib.sha256(stream_key.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return [int(seed) & 0x7FFFFFFFFFFFFFFF, *words]


def seeded_sampler(seed: int, stream_key: str = "") -> np.random.Generator:
    """Deterministic generator for (seed, stream_key).

    Identical arguments always yield an identical stream; distinct keys give
    independent substreams, so parallel consumers can each derive their own
    generator without coordinating draw order.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(stream_entropy(seed, stream_key))))
