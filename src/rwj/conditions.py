"""Sufficient conditions for small-jump improvement, and the Rayleigh minimum they rest on.

Every condition below compares the alpha=0 spectral gap against a threshold
that only uses coarse graph data:

* gap < 1/n                                    (smallest, always sound)
* gap < min(#negative, #positive entries)/n    (cluster form, uses v_star signs)
* gap < c * d_mean^2 / second_moment(d)        (degree irregularity form)
* gap < c * d_mean / d_max                     (weakest, easiest to check)

The degree forms come with two constants: the published one (c = 4) and the
sharp one (c = 1) that the constrained Rayleigh minimum actually certifies.
Implication tests run against the sharp constants; the published constant is
reported and audited, never asserted sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import DegreeStats, WeightedGraph, degree_stats, degree_stats_of
from .perturb import NandS, TOL_SIGN, nand_s_check, nand_s_sides
from .spectral import SLEM, SpectralSummary, build_transition, normalize_convention, require_alpha_zero, spectrum

PAPER_CONSTANT = 4.0
SHARP_CONSTANT = 1.0
# A NandS that fails by at most this fraction of max(lhs, rhs) is a rounding-level
# tie: it neither violates a theorem nor witnesses against the published constant.
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

def _holds(below):
    """A Python bool for one graph, the boolean array for a stack."""
    return below if isinstance(below, np.ndarray) else bool(below)


def corollary1(gamma: float, n: int) -> Verdict:
    """gap < 1/n."""
    return Verdict(threshold=1.0 / n, holds=_holds(gamma < 1.0 / n))


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
    return Cor2Verdict(mu=neg / n, threshold=threshold, holds=_holds(gamma < threshold))


def theorem2(gamma: float, stats: DegreeStats, constant: str = "sharp") -> Verdict:
    """gap < c * d_mean^2 / second_moment(d), c = 4 (paper) or 1 (sharp)."""
    c = _constant(constant)
    threshold = c * stats.snr
    return Verdict(threshold=threshold, holds=_holds(gamma < threshold))


def corollary4(gamma: float, stats: DegreeStats, constant: str = "sharp") -> Verdict:
    """gap < c * d_mean / d_max, c = 4 (paper) or 1 (sharp)."""
    c = _constant(constant)
    threshold = c * stats.d_mean / stats.d_max
    return Verdict(threshold=threshold, holds=_holds(gamma < threshold))


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


class LadderRow(NamedTuple):
    """The condition-ladder columns of a scan row."""

    cor1: bool
    cor2: bool
    thm2_sharp: bool
    cor4_sharp: bool
    nand_s: bool | None       # None when lambda_star <= TOL_SIGN
    consistency: tuple[str, ...]
    paper_constant_witness: bool


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Every condition evaluated on one graph at alpha = 0."""

    convention: str
    n: int
    gamma: float
    lambda_star: float
    lambda_star_simple: bool  # simple and not sign-tied at its modulus level
    cor1: Verdict
    cor2: Cor2Verdict
    thm2_paper: Verdict
    thm2_sharp: Verdict
    cor4_paper: Verdict
    cor4_sharp: Verdict
    nand_s: NandS | None      # None when lambda_star <= 0
    rayleigh_min: float
    consistency: tuple[str, ...]      # implication violations; empty means consistent
    paper_constant_witness: bool      # thm2 with the published constant held but NandS failed

    def row(self) -> LadderRow:
        return LadderRow(
            self.cor1.holds, self.cor2.holds, self.thm2_sharp.holds, self.cor4_sharp.holds,
            None if self.nand_s is None else self.nand_s.holds,
            self.consistency, self.paper_constant_witness,
        )


def full_report(
    g: WeightedGraph,
    convention: str = SLEM,
    summary: SpectralSummary | None = None,
) -> ConditionReport:
    """Evaluate the condition ladder, the necessary-and-sufficient condition and the Rayleigh minimum.

    For a simple positive lambda_star every sharp sufficient condition that
    holds must be matched by the necessary-and-sufficient condition; any
    violation is surfaced in ``consistency`` (and would indicate a bug, these
    implications are theorems). A NandS failure within the relative band
    NANDS_TIE is a rounding-level tie and counts as neither a violation nor a
    paper-constant witness; ``nand_s`` still reports it as printed.
    """
    conv = normalize_convention(convention)
    if summary is None:
        summary = spectrum(build_transition(g, 0.0), conv)
    require_alpha_zero(summary, "full_report")
    stats = degree_stats(g)
    gamma = summary.gap
    lam = summary.lambda_star
    simple = summary.degenerate_multiplicity == 1 and not summary.tied_sign

    c1 = corollary1(gamma, g.n)
    c2 = corollary2(gamma, summary.v_star)
    t2p = theorem2(gamma, stats, "paper")
    t2s = theorem2(gamma, stats, "sharp")
    c4p = corollary4(gamma, stats, "paper")
    c4s = corollary4(gamma, stats, "sharp")
    nand = nand_s_check(lam, summary.v_star, g.n) if lam > TOL_SIGN else None
    ray_min, _ = rayleigh_minimum(stats)

    nand_failed = bool(nand is not None and simple and _nand_failed(nand.lhs, nand.rhs))
    violations = tuple([
        message
        for message, violated in _implications(nand_failed, c1.holds, c2.holds, t2s.holds, c4s.holds)
        if violated
    ])
    witness = nand_failed and t2p.holds

    return ConditionReport(
        convention=conv,
        n=g.n,
        gamma=gamma,
        lambda_star=lam,
        lambda_star_simple=simple,
        cor1=c1,
        cor2=c2,
        thm2_paper=t2p,
        thm2_sharp=t2s,
        cor4_paper=c4p,
        cor4_sharp=c4s,
        nand_s=nand,
        rayleigh_min=ray_min,
        consistency=violations,
        paper_constant_witness=witness,
    )


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


def stacked_ladder(
    gamma: np.ndarray, d: np.ndarray, v_star: np.ndarray, lambda_star: np.ndarray
) -> list[LadderRow | None]:
    """The :class:`LadderRow` of every graph of a stack whose governing levels are simple.

    ``gamma`` and ``lambda_star`` are (k,) arrays, ``d`` the (k, n) degrees and
    ``v_star`` the (k, n) eigenvectors of the stack. The conditions, thresholds
    and rules are those of :func:`full_report`, evaluated elementwise. A graph
    with a consistency violation gets None: :func:`full_report` reports it.
    """
    n = d.shape[-1]
    stats = degree_stats_of(d)
    c1 = corollary1(gamma, n).holds
    c2 = corollary2(gamma, v_star).holds
    t2p = theorem2(gamma, stats, "paper").holds
    t2s = theorem2(gamma, stats, "sharp").holds
    c4s = corollary4(gamma, stats, "sharp").holds
    positive = lambda_star > TOL_SIGN
    lhs, rhs = nand_s_sides(lambda_star, v_star, n)
    nand_failed = positive & _nand_failed(lhs, rhs)
    violated = np.logical_or.reduce([v for _, v in _implications(nand_failed, c1, c2, t2s, c4s)])
    columns = (c1, c2, t2s, c4s, lhs < rhs, positive, nand_failed & t2p, violated)
    return [
        None if bad else LadderRow(r1, r2, rt, r4, nand if pos else None, (), witness)
        for r1, r2, rt, r4, nand, pos, witness, bad in zip(*(c.tolist() for c in columns))
    ]
