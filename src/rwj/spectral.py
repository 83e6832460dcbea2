"""Transition matrices for random walks with uniform jumps, spectra, gaps, Dobrushin bounds.

The jump walk with rate alpha moves on the weighted graph A(alpha) obtained by
superimposing a complete graph of total weight alpha on every vertex pair,
scaled by 1/n: A(alpha) = A + (alpha/n) 11^T, with degree matrix
D(alpha) = D + alpha I and transition matrix P(alpha) = D(alpha)^{-1} A(alpha).

All spectra are computed through the symmetric similarity
N = D(alpha)^{-1/2} A(alpha) D(alpha)^{-1/2}, so eigenvalues are real and
eigenvectors come back D(alpha)-orthonormal. The eigensolver is LAPACK's
symmetric driver via ``numpy.linalg.eigh`` (accurate to a few ulp times the
spectral norm, which is 1 here); non-convergence raises, it is never truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BranchCrossingError,
    ConventionError,
    DisconnectedGraphError,
    NumericalError,
)
from .graphs import WeightedGraph

SLEM = "slem"
PAPER = "paper-literal"

TOL_UNIT = 1e-9   # band around +1/-1 for the paper-literal exclusion
TOL_TIE = 1e-9    # eigenvalues closer than this are one level


def normalize_convention(convention: str) -> str:
    if convention in (SLEM,):
        return SLEM
    if convention in (PAPER, "paper"):
        return PAPER
    raise ValueError(f"unknown convention {convention!r}; use 'slem' or 'paper'")


@dataclass(frozen=True, eq=False)
class TransitionSystem:
    """A graph together with a jump rate, its transition matrix and stationary law."""

    graph: WeightedGraph
    alpha: float
    P: np.ndarray
    pi: np.ndarray


def build_transition(g: WeightedGraph, alpha: float) -> TransitionSystem:
    """Transition system of the jump walk: P(alpha) = (D + alpha I)^{-1} (A + (alpha/n) 11^T).

    The stationary law is pi_i = (d_i + alpha) / (volume + alpha n).
    """
    alpha = float(alpha)
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if not g.connected:
        raise DisconnectedGraphError("transition system requires a connected graph")
    a = g.adjacency()
    d = g.degrees()
    a_alpha = a + alpha / g.n
    d_alpha = d + alpha
    p = a_alpha / d_alpha[:, None]
    pi = (d + alpha) / (d.sum() + alpha * g.n)
    return TransitionSystem(graph=g, alpha=alpha, P=p, pi=pi)


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """Full real spectrum of P(alpha) with the selected non-unit eigenvalue.

    ``eigenvalues`` are sorted descending; ``eigenvectors`` columns are
    D(alpha)-orthonormal and aligned with them. ``v_star`` is the selected
    eigenvector renormalised to Euclidean unit length with its largest-modulus
    entry made positive. ``level`` holds the indices of the governing modulus
    level: the admissible eigenvalues within TOL_TIE of the largest admissible
    modulus, lambda_star among them.
    """

    alpha: float
    convention: str
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    level: np.ndarray
    lambda_star: float
    star_index: int
    v_star: np.ndarray
    gap: float
    t_rel: float
    degenerate_multiplicity: int
    tied_sign: bool
    near_unit: bool


def _similarity(a: np.ndarray, d: np.ndarray, alpha) -> tuple[np.ndarray, np.ndarray]:
    """N(alpha) = D(alpha)^{-1/2} A(alpha) D(alpha)^{-1/2}, symmetrised, and sqrt(d(alpha)).

    ``a`` is an adjacency matrix and ``d`` its degree vector. The leading axes
    of ``a[..., :, :]``, ``d[..., :]`` and a 1-D array of rates broadcast, so
    stacked graphs or rates give one matrix each for a single batched ``eigh``;
    every entry is computed the same way whatever the stacking.
    """
    alpha = np.asarray(alpha, dtype=float)
    root = np.sqrt(d + alpha[..., None])
    inv = 1.0 / root
    sym = inv[..., :, None] * (a + (alpha / a.shape[-1])[..., None, None]) * inv[..., None, :]
    return (sym + np.swapaxes(sym, -1, -2)) / 2.0, root


def _eigh(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed to converge: {exc}") from exc


def _gap_trel(lambda_star: float) -> tuple[float, float]:
    mod = abs(lambda_star)
    if mod >= 1.0 - TOL_UNIT:
        return 0.0, math.inf
    gap = 1.0 - mod
    return gap, 1.0 / gap


def spectrum(ts: TransitionSystem, convention: str) -> SpectralSummary:
    """Eigendecomposition of P(alpha) plus selection of lambda_star.

    Conventions: ``slem`` excludes only the Perron eigenvalue 1 (bipartite
    graphs then give lambda_star = -1 and an infinite relaxation time);
    ``paper`` additionally excludes everything within 1e-9 of -1 and raises
    :class:`ConventionError` when nothing remains.
    """
    conv = normalize_convention(convention)
    g, alpha = ts.graph, ts.alpha
    sym, root = _similarity(g.adjacency(), g.degrees(), alpha)
    w, u = _eigh(sym)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    u = u[:, order]
    if w[0] > 1.0 + 1e-10 or w[-1] < -1.0 - 1e-10:
        raise NumericalError(f"eigenvalues escaped [-1, 1]: range [{w[-1]}, {w[0]}]")
    unit = np.flatnonzero(np.abs(w - 1.0) <= TOL_UNIT)
    if len(unit) != 1:
        raise NumericalError(
            f"expected exactly one unit eigenvalue, found {len(unit)} (disconnected input?)"
        )
    perron = int(unit[0])

    vecs = (1.0 / root)[:, None] * u  # columns are D(alpha)-orthonormal eigenvectors of P(alpha)

    candidates = np.ones(g.n, dtype=bool)
    candidates[perron] = False
    if conv == PAPER:
        candidates &= np.abs(w - 1.0) > TOL_UNIT
        candidates &= np.abs(w + 1.0) > TOL_UNIT
    if not candidates.any():
        raise ConventionError(
            "no admissible eigenvalue under the paper-literal convention "
            "(all non-Perron eigenvalues are within 1e-9 of -1 or +1)"
        )
    cidx = np.flatnonzero(candidates)
    mods = np.abs(w[cidx])
    mstar = float(mods.max())
    level = cidx[np.abs(mods - mstar) <= TOL_TIE]
    plus = [i for i in level if w[i] > 0.0]
    minus = [i for i in level if w[i] <= 0.0]
    tied = mstar > TOL_TIE and bool(plus) and bool(minus)
    # among the level pick the largest signed eigenvalue, first occurrence
    star_index = int(level[np.argmax(w[level])])
    lambda_star = float(w[star_index])

    v = vecs[:, star_index].copy()
    v /= np.linalg.norm(v)
    if v[int(np.argmax(np.abs(v)))] < 0.0:
        v = -v

    others = np.arange(g.n) != perron
    near_unit = bool(np.any(others & ((np.abs(w - 1.0) <= TOL_UNIT) | (np.abs(w + 1.0) <= TOL_UNIT))))

    gap, t_rel = _gap_trel(lambda_star)
    return SpectralSummary(
        alpha=alpha,
        convention=conv,
        eigenvalues=w,
        eigenvectors=vecs,
        level=level,
        lambda_star=lambda_star,
        star_index=star_index,
        v_star=v,
        gap=gap,
        t_rel=t_rel,
        degenerate_multiplicity=int(len(level)),
        tied_sign=tied,
        near_unit=near_unit,
    )


class StackedSpectrum(NamedTuple):
    """alpha = 0 spectra of a stack of k connected n-vertex graphs, from :func:`stacked_spectrum`.

    ``lambda_star``, ``basis``, ``v_star`` and ``gap`` mean what they mean in
    :class:`SpectralSummary`, but only on the rows marked ``simple``.
    """

    eigenvalues: np.ndarray   # (k, n), ascending, as eigh returns them
    eigenvectors: np.ndarray  # (k, n, n), orthonormal eigenvectors of the similarity
    root: np.ndarray          # (k, n), sqrt(d)
    lambda_star: np.ndarray   # (k,)
    basis: np.ndarray         # (k, n, 1), the D-orthonormal eigenvector of lambda_star
    v_star: np.ndarray        # (k, n)
    gap: np.ndarray           # (k,)
    simple: np.ndarray        # (k,) bool


def stacked_spectrum(a: np.ndarray, d: np.ndarray) -> StackedSpectrum:
    """alpha = 0 spectra of a (k, n, n) adjacency stack with degrees ``d``: one build, one ``eigh``.

    A row is ``simple`` when :func:`spectrum` accepts it under either
    convention and selects the same simple lambda_star: the eigenvalues lie in
    [-1, 1] (to 1e-10), exactly one is within TOL_UNIT of 1, no other is
    within TOL_UNIT of +-1 (so the row is not ``near_unit`` and both
    conventions admit the same eigenvalues, with gap 1 - |lambda_star|), and
    the governing modulus level holds one eigenvalue (neither degenerate nor
    tied). Every other row is for :func:`spectrum` to decide.
    """
    sym, root = _similarity(a, d, 0.0)
    w, u = _eigh(sym)
    perron = np.abs(w - 1.0) <= TOL_UNIT
    near = perron | (np.abs(w + 1.0) <= TOL_UNIT)
    mods = np.where(perron, -1.0, np.abs(w))
    level = np.abs(mods - mods.max(axis=-1, keepdims=True)) <= TOL_TIE
    j = np.argmax(level, axis=-1)
    lam = np.take_along_axis(w, j[:, None], axis=-1)[:, 0]
    simple = (
        (w[:, -1] <= 1.0 + 1e-10) & (w[:, 0] >= -1.0 - 1e-10)
        & (perron.sum(axis=-1) == 1) & (near.sum(axis=-1) == 1)
        & (level.sum(axis=-1) == 1) & (np.abs(lam) < 1.0 - TOL_UNIT)
    )
    basis = (1.0 / root)[..., None] * np.take_along_axis(u, j[:, None, None], axis=-1)
    v = basis[..., 0] / np.sqrt(np.swapaxes(basis, -1, -2) @ basis)[..., 0]
    flip = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[:, None], axis=-1) < 0.0
    return StackedSpectrum(
        eigenvalues=w, eigenvectors=u, root=root, lambda_star=lam, basis=basis,
        v_star=np.where(flip, -v, v), gap=1.0 - np.abs(lam), simple=simple,
    )


def relaxation(summary_or_lambda) -> tuple[float, float]:
    """(spectral gap, relaxation time) for a summary or a bare lambda_star value."""
    lam = summary_or_lambda.lambda_star if isinstance(summary_or_lambda, SpectralSummary) else float(summary_or_lambda)
    return _gap_trel(lam)


def mixing_time_bounds(t_rel: float, pi_min: float, epsilon: float) -> tuple[float, float]:
    """Two-sided mixing-time bounds from the relaxation time.

    lower = (ln(1/eps) + ln(1/2)) (t_rel - 1),
    upper = (ln(1/eps) + ln(1/pi_min)) t_rel, natural logarithms.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if not 0.0 < pi_min < 1.0:
        raise ValueError(f"pi_min must lie in (0, 1), got {pi_min}")
    if not math.isfinite(t_rel) or t_rel < 1.0:
        raise ValueError(f"t_rel must be finite and >= 1, got {t_rel}")
    lower = (math.log(1.0 / epsilon) + math.log(0.5)) * (t_rel - 1.0)
    upper = (math.log(1.0 / epsilon) + math.log(1.0 / pi_min)) * t_rel
    return lower, upper


def dobrushin(ts: TransitionSystem) -> float:
    """Dobrushin ergodic coefficient: half the max total-variation row distance.

    Row i is compared with the rows after it, one block at a time, so memory
    stays O(n^2); each distance sums over columns exactly as the full
    n x n x n difference would, and the distance matrix is symmetric with a
    zero diagonal, so the maximum is unchanged.
    """
    p = ts.P
    worst = 0.0
    for i in range(p.shape[0] - 1):
        worst = max(worst, float(np.abs(p[i + 1:] - p[i]).sum(axis=1).max()))
    return worst / 2.0


def dobrushin_bound(alpha: float, d_max: float) -> float:
    """Lower bound alpha / (d_max + alpha) on the spectral gap of P(alpha)."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if d_max <= 0.0:
        raise ValueError(f"d_max must be > 0, got {d_max}")
    return alpha / (d_max + alpha)


def alpha_bar_closed_form(gamma0: float, d_max: float) -> float:
    """Smallest alpha whose Dobrushin bound exceeds gamma0: gamma0 d_max / (1 - gamma0)."""
    if gamma0 >= 1.0:
        return math.inf
    return gamma0 * d_max / (1.0 - gamma0)


@dataclass(frozen=True)
class AlphaBar:
    """Jump rates beyond which the gap provably / empirically beats the alpha=0 gap."""

    gamma0: float
    closed_form: float
    searched: float | None


def alpha_bar(g: WeightedGraph, base: SpectralSummary, grid: Sequence[float] | None = None) -> AlphaBar:
    """Closed-form and grid-searched improvement thresholds for the jump rate.

    ``base`` is the alpha=0 spectrum of ``g``; its convention selects the gaps
    along the grid. ``closed_form`` makes the Dobrushin bound exceed the alpha=0
    gap (infinite when that gap is already 1); ``searched`` is the smallest grid
    point whose recomputed gap actually beats it (None if none does). Default
    grid: 64 log-spaced points in [1e-3, 1e3].
    """
    if base.alpha != 0.0:
        raise ValueError(f"alpha_bar needs the alpha=0 spectrum, got alpha={base.alpha}")
    gamma0 = base.gap
    d_max = float(g.degrees().max())
    closed = alpha_bar_closed_form(gamma0, d_max)
    if gamma0 >= 1.0:
        # no gap exceeds 1, so no grid point can beat gamma0
        return AlphaBar(gamma0=gamma0, closed_form=closed, searched=None)
    if grid is None:
        grid = np.logspace(-3.0, 3.0, 64)
    searched = None
    for a in grid:
        if spectrum(build_transition(g, float(a)), base.convention).gap > gamma0:
            searched = float(a)
            break
    return AlphaBar(gamma0=gamma0, closed_form=closed, searched=searched)


def track_branch(
    g: WeightedGraph,
    alpha_grid: Sequence[float],
    v_ref: np.ndarray,
) -> list[tuple[float, float, np.ndarray]]:
    """Follow one eigenvalue branch along an ascending alpha grid.

    At each alpha the eigenpair whose eigenvector has the largest absolute
    D(alpha)-weighted overlap with the previously tracked vector is selected;
    an overlap below 0.5 raises :class:`BranchCrossingError` (refine the grid).
    When the matched eigenvalue sits in a (near-)degenerate group, the
    continuation vector is the projection of the previous vector onto that
    group's eigenspace and the reported eigenvalue is the projection-weighted
    group average, which keeps tracking well defined through exact symmetry
    degeneracies. Returns (alpha, eigenvalue, eigenvector) per grid point,
    eigenvectors sign-aligned along the branch.
    """
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("alpha grid is empty")
    if any(a < 0.0 for a in alphas):
        raise ValueError("alpha grid must be nonnegative")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha grid must be strictly ascending")
    syms, roots = _similarity(g.adjacency(), g.degrees(), alphas)
    ws, us = _eigh(syms)
    v_prev = np.asarray(v_ref, dtype=float)
    out: list[tuple[float, float, np.ndarray]] = []
    for alpha, w, u, s in zip(alphas, ws, us, roots):
        u_prev = s * v_prev
        u_prev /= np.linalg.norm(u_prev)
        overlaps = u.T @ u_prev
        j = int(np.argmax(np.abs(overlaps)))
        group = np.flatnonzero(np.abs(w - w[j]) <= TOL_TIE)
        coeff = overlaps[group]
        total = float(np.linalg.norm(coeff))
        if total < 0.5:
            raise BranchCrossingError(
                f"branch lost at alpha={alpha}: best overlap {total:.3f} < 0.5"
            )
        u_new = u[:, group] @ coeff
        u_new /= np.linalg.norm(u_new)
        lam = float((coeff * coeff) @ w[group] / (coeff @ coeff))
        v = u_new / s
        out.append((alpha, lam, v))
        v_prev = v
    return out


def track_stack(
    a: np.ndarray,
    d: np.ndarray,
    rates: Sequence[float],
    v_ref: np.ndarray,
    start: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`track_branch` for a (k, n, n) stack of graphs along the grid 0, ``rates``.

    ``start`` is the alpha = 0 (eigenvalues, eigenvectors, sqrt(d)) of the
    stack, as :class:`StackedSpectrum` holds them; they are reused, and the
    ascending positive ``rates`` take one more batched ``eigh``. Each step
    follows track_branch's rule from the (k, n) vectors ``v_ref``. Returns the
    tracked eigenvalue and the norm of the matched group's overlaps, (k, grid
    points) each. Nothing raises: the caller compares the overlaps with the
    0.5 below which track_branch raises :class:`BranchCrossingError`.
    """
    syms, roots = _similarity(a[:, None], d[:, None], rates)
    ws, us = _eigh(syms)
    steps = [start] + [(ws[:, i], us[:, i], roots[:, i]) for i in range(len(rates))]
    v = v_ref
    lams, totals = [], []
    for w, u, s in steps:
        u_prev = s * v
        u_prev /= np.linalg.norm(u_prev, axis=-1, keepdims=True)
        overlaps = (np.swapaxes(u, -1, -2) @ u_prev[..., None])[..., 0]
        j = np.argmax(np.abs(overlaps), axis=-1)
        group = np.abs(w - np.take_along_axis(w, j[:, None], axis=-1)) <= TOL_TIE
        coeff = np.where(group, overlaps, 0.0)
        weight = (coeff * coeff).sum(axis=-1)
        totals.append(np.sqrt(weight))
        lams.append((coeff * coeff * w).sum(axis=-1) / weight)
        u_new = (u @ coeff[..., None])[..., 0]
        v = u_new / np.linalg.norm(u_new, axis=-1, keepdims=True) / s
    return np.stack(lams, axis=-1), np.stack(totals, axis=-1)
