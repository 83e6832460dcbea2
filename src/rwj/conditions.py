"""Sufficient conditions for small-jump improvement, and the Rayleigh minimum they rest on.

Every condition below compares the alpha=0 spectral gap against a threshold
that only uses coarse graph data:

* gap < 1/n                                    (smallest, always sound)
* gap < min(#negative, #positive entries)/n    (cluster form, uses v_star signs)
* gap < c * d_mean^2 / second_moment(d)        (degree irregularity form)
* gap < c * d_mean / d_max                     (weakest, easiest to check)

A condition holds only when its threshold beats the gap by more than a
rounding-level tie (NANDS_TIE relative), so a tie in exact arithmetic does not
meet it, whatever the last bit of the gap.

The degree forms come with two constants: the published one (c = 4) and the
sharp one (c = 1) that the constrained Rayleigh minimum actually certifies.
Implication tests run against the sharp constants; the published constant is
reported and audited, never asserted sound. :func:`ladder_stack` evaluates the
ladder for a stack of graphs, and :func:`full_report` is its stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import DegreeStats, WeightedGraph, degree_stats_of
from .perturb import TOL_SIGN, nand_s_sides
from .spectral import SLEM, StackedSpectrum, build_transition, normalize_convention, spectrum

PAPER_CONSTANT = 4.0
SHARP_CONSTANT = 1.0
# A NandS that fails by at most this fraction of max(lhs, rhs) is a rounding-level
# tie: it neither violates a theorem nor witnesses against the published constant.
# A sufficient condition holds only when its threshold beats the gap by more than
# this fraction of max(|threshold|, |gap|): a tie does not meet it.
NANDS_TIE = 1e-12


@dataclass(frozen=True)
class Verdict:
    threshold: float
    holds: bool


@dataclass(frozen=True)
class Cor2Verdict:
    mu: float
    threshold: float
    holds: bool


# Each condition below also takes a stack: an array of gaps with eigenvectors
# and degree statistics stacked along the leading axes gives arrays of
# thresholds and verdicts, one per graph.

def _holds(gamma, threshold):
    """gap < threshold by more than a rounding-level tie (NANDS_TIE relative).

    A Python bool for one graph, the boolean array for a stack.
    """
    below = threshold - gamma > NANDS_TIE * np.maximum(np.abs(threshold), np.abs(gamma))
    return below if isinstance(below, np.ndarray) else bool(below)


def corollary1(gamma: float, n: int) -> Verdict:
    """gap < 1/n."""
    return Verdict(threshold=1.0 / n, holds=_holds(gamma, 1.0 / n))


def corollary2(gamma: float, v_star: np.ndarray) -> Cor2Verdict:
    """gap < min(mu, 1 - mu) with mu the proportion of negative eigenvector entries.

    Entries within 1e-12 * max|v| of zero are counted in neither class, and
    the threshold uses min(#negative, #positive)/n, which can only shrink it;
    this keeps the condition sound in the presence of dead entries.
    """
    v = np.asarray(v_star, dtype=float)
    band = 1e-12 * np.abs(v).max(axis=-1, keepdims=True)
    neg = (v < -band).sum(axis=-1)
    pos = (v > band).sum(axis=-1)
    if np.any(neg + pos == 0):
        raise ValueError("eigenvector has no entries outside the dead band")
    n = v.shape[-1]
    threshold = np.minimum(neg, pos) / n
    return Cor2Verdict(mu=neg / n, threshold=threshold, holds=_holds(gamma, threshold))


def theorem2(gamma: float, stats: DegreeStats, constant: str = "sharp") -> Verdict:
    """gap < c * d_mean^2 / second_moment(d), c = 4 (paper) or 1 (sharp)."""
    c = _constant(constant)
    threshold = c * stats.snr
    return Verdict(threshold=threshold, holds=_holds(gamma, threshold))


def corollary4(gamma: float, stats: DegreeStats, constant: str = "sharp") -> Verdict:
    """gap < c * d_mean / d_max, c = 4 (paper) or 1 (sharp)."""
    c = _constant(constant)
    threshold = c * stats.d_mean / stats.d_max
    return Verdict(threshold=threshold, holds=_holds(gamma, threshold))


def _constant(constant: str) -> float:
    if constant == "paper":
        return PAPER_CONSTANT
    if constant == "sharp":
        return SHARP_CONSTANT
    raise ValueError(f"constant must be 'paper' or 'sharp', got {constant!r}")


def rayleigh_minimum(stats: DegreeStats) -> tuple[float, np.ndarray]:
    """Minimum of f^T L_K f / (n f^T f) over unit f with f . d = 0, and its minimiser.

    L_K = nI - 11^T is the complete-graph Laplacian. The minimum equals
    d_mean^2 / second_moment(d) and is attained by the normalised projection
    of the all-ones vector onto the hyperplane orthogonal to d; for regular
    degree vectors every feasible f attains it.
    """
    d = np.asarray(stats.d, dtype=float)
    n = len(d)
    min_value = float(d.sum() ** 2 / (n * (d * d).sum()))
    raw = 1.0 - (d.sum() / (d * d).sum()) * d
    norm = np.linalg.norm(raw)
    if norm < 1e-12 * np.sqrt(n):
        # regular degrees: the ones vector lies along d, any unit f with f.d=0 works
        f = np.zeros(n)
        f[0], f[1] = 1.0, -1.0
        f /= np.linalg.norm(f)
    else:
        f = raw / norm
    return min_value, f


class Ladder(NamedTuple):
    """The condition ladder of every graph of a stack; each verdict holds (k,) arrays, but cor1's threshold is 1/n."""

    cor1: Verdict
    cor2: Cor2Verdict
    thm2_paper: Verdict
    thm2_sharp: Verdict
    cor4_sharp: Verdict
    simple: np.ndarray                   # (k,) lambda_star simple and not sign-tied at its modulus level
    positive: np.ndarray                 # (k,) lambda_star > TOL_SIGN, where NandS is defined
    nand_s: np.ndarray                   # (k,) (1/n)(1^T v)^2 < lambda_star v^T v
    consistency: list[tuple[str, ...]]   # implication violations; empty means consistent
    paper_constant_witness: np.ndarray   # (k,) thm2 with the published constant held but NandS failed


def ladder_stack(stats: DegreeStats, spec: StackedSpectrum) -> Ladder:
    """The condition ladder of a stack of graphs with degree statistics ``stats`` and alpha = 0 spectrum ``spec``.

    ``stats`` holds (k,) arrays.
    Every row must be :meth:`~rwj.spectral.StackedSpectrum.admissible`. For a
    simple positive lambda_star every sharp sufficient condition that holds
    must be matched by the necessary-and-sufficient condition; any violation
    is surfaced in ``consistency`` (and would indicate a bug, these
    implications are theorems). A NandS failure within the relative band
    NANDS_TIE is a rounding-level tie and counts as neither a violation nor a
    paper-constant witness.
    """
    gamma, lam, v = spec.gap, spec.lambda_star, spec.v_star
    n = v.shape[-1]
    c1 = corollary1(gamma, n)
    c2 = corollary2(gamma, v)
    t2p = theorem2(gamma, stats, "paper")
    t2s = theorem2(gamma, stats, "sharp")
    c4s = corollary4(gamma, stats, "sharp")
    simple = spec.level.sum(axis=-1) == 1  # one eigenvalue at the level, so not sign-tied either
    positive = lam > TOL_SIGN
    lhs, rhs = nand_s_sides(lam, v, n)
    nand_failed = positive & simple & _nand_failed(lhs, rhs)
    implications = _implications(nand_failed, c1.holds, c2.holds, t2s.holds, c4s.holds)
    consistency = [()] * len(gamma)
    for i in np.flatnonzero(np.logical_or.reduce([violated for _, violated in implications])).tolist():
        consistency[i] = tuple(message for message, violated in implications if violated[i])
    return Ladder(c1, c2, t2p, t2s, c4s, simple, positive, lhs < rhs, consistency, nand_failed & t2p.holds)


def full_report(g: WeightedGraph, convention: str = SLEM) -> Ladder:
    """The condition ladder of ``g`` at alpha = 0: :func:`ladder_stack` on its stack of one.

    Every column holds one entry, the ladder that ``rwj analyze`` prints. The
    NandS sides with their Laplacian form come from
    :func:`~rwj.perturb.nand_s_check`, the Rayleigh minimum from
    :func:`rayleigh_minimum`.
    """
    conv = normalize_convention(convention)
    return ladder_stack(degree_stats_of(g.degrees()[None]), spectrum(build_transition(g, 0.0), conv).stack)


def _nand_failed(lhs, rhs):
    """NandS failed by more than a rounding-level tie (NANDS_TIE relative); elementwise on arrays."""
    return lhs - rhs > NANDS_TIE * np.maximum(lhs, rhs)


def _implications(nand_failed, cor1, cor2, thm2_sharp, cor4_sharp):
    """(message, violated) for each implication the ladder's theorems assert; elementwise on arrays."""
    return (
        ("cor1 held but NandS failed", np.logical_and(nand_failed, cor1)),
        ("cor2 held but NandS failed", np.logical_and(nand_failed, cor2)),
        ("thm2(sharp) held but NandS failed", np.logical_and(nand_failed, thm2_sharp)),
        ("cor4(sharp) held but thm2(sharp) failed", np.logical_and(cor4_sharp, np.logical_not(thm2_sharp))),
    )
