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


class StackedSpectrum(NamedTuple):
    """Spectra of a stack of k graphs at one jump rate, with the selection of lambda_star.

    Eigenpairs are sorted by descending eigenvalue, equal eigenvalues in
    ``eigh``'s order. Every row follows :func:`spectrum`'s rule under the
    convention the stack was solved with, and :func:`spectrum` is the k = 1
    case: on the rows it accepts, the fields mean what they mean in
    :class:`SpectralSummary`.
    """

    eigenvalues: np.ndarray   # (k, n), descending
    eigenvectors: np.ndarray  # (k, n, n), orthonormal eigenvectors of the similarity
    root: np.ndarray          # (k, n), sqrt(d(alpha))
    in_range: np.ndarray      # (k,) every eigenvalue lies in [-1, 1] to 1e-10
    units: np.ndarray         # (k,) number of eigenvalues within TOL_UNIT of 1
    near_unit: np.ndarray     # (k,) a second eigenvalue is within TOL_UNIT of +-1
    level: np.ndarray         # (k, n) admissible eigenvalues within TOL_TIE of the largest admissible modulus
    star_index: np.ndarray    # (k,) the largest eigenvalue of the level, first occurrence
    tied_sign: np.ndarray     # (k,) the level holds both signs (away from 0)
    lambda_star: np.ndarray   # (k,)
    basis: np.ndarray         # (k, n, 1), the D(alpha)-orthonormal eigenvector of lambda_star
    v_star: np.ndarray        # (k, n)
    gap: np.ndarray           # (k,) 1 - |lambda_star|, 0 within TOL_UNIT of 1

    @property
    def simple(self) -> np.ndarray:
        """(k,) rows :func:`spectrum` accepts under either convention with the same simple lambda_star.

        In range, one unit eigenvalue and no other near +-1 (so both
        conventions admit the same eigenvalues), a level of one eigenvalue
        (neither degenerate nor tied) and a positive gap.
        """
        return (
            self.in_range & (self.units == 1) & ~self.near_unit
            & (self.level.sum(axis=-1) == 1) & (self.gap > 0.0)
        )


def _unit(x: np.ndarray) -> np.ndarray:
    """``x`` scaled to Euclidean length 1 along its last axis.

    The squared norm is a dot product, as ``x @ x`` computes it for one
    vector, so a stacked row and the same vector alone give the same bits.
    """
    return x / np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0]


def _solve(a: np.ndarray, d: np.ndarray, alpha, convention: str) -> StackedSpectrum:
    """One build, one ``eigh`` and the selection of lambda_star for a (k, n, n) stack ``a`` with degrees ``d``."""
    sym, root = _similarity(a, d, alpha)
    w, u = _eigh(sym)
    rows = np.arange(len(w))
    order = np.argsort(-w, axis=-1, kind="stable")
    w = w[rows[:, None], order]
    u = np.ascontiguousarray(np.swapaxes(np.swapaxes(u, -1, -2)[rows[:, None], order], -1, -2))
    mods = np.abs(w)
    near = np.abs(mods - 1.0) <= TOL_UNIT  # within TOL_UNIT of 1 or of -1
    unit = near & (w > 0.0)
    admissible = ~near if convention == PAPER else ~unit
    candidates = np.where(admissible, mods, -1.0)
    mstar = candidates.max(axis=-1)
    level = admissible & (np.abs(candidates - mstar[:, None]) <= TOL_TIE)
    star = level.argmax(axis=-1)
    lam = w[rows, star]
    basis = ((1.0 / root) * u[rows, :, star])[..., None]
    v = _unit(basis[..., 0])
    sign = np.sign(v[rows, np.abs(v).argmax(axis=-1)])  # makes the largest-modulus entry positive
    mod = np.abs(lam)
    return StackedSpectrum(
        eigenvalues=w, eigenvectors=u, root=root, in_range=mods.max(axis=-1) <= 1.0 + 1e-10,
        units=unit.sum(axis=-1), near_unit=near.sum(axis=-1) > 1, level=level, star_index=star,
        tied_sign=(mstar > TOL_TIE) & (lam > 0.0) & (level & (w <= 0.0)).any(axis=-1),
        lambda_star=lam, basis=basis, v_star=v * sign[:, None],
        gap=np.where(mod < 1.0 - TOL_UNIT, 1.0 - mod, 0.0),
    )


def spectrum(ts: TransitionSystem, convention: str) -> SpectralSummary:
    """Eigendecomposition of P(alpha) plus selection of lambda_star.

    Conventions: ``slem`` excludes only the Perron eigenvalue 1 (bipartite
    graphs then give lambda_star = -1 and an infinite relaxation time);
    ``paper`` additionally excludes everything within 1e-9 of -1 and raises
    :class:`ConventionError` when nothing remains.
    """
    conv = normalize_convention(convention)
    g, alpha = ts.graph, ts.alpha
    s = StackedSpectrum._make(f[0] for f in _solve(g.adjacency()[None], g.degrees()[None], alpha, conv))
    w = s.eigenvalues
    if not s.in_range:
        raise NumericalError(f"eigenvalues escaped [-1, 1]: range [{w[-1]}, {w[0]}]")
    if s.units != 1:
        raise NumericalError(
            f"expected exactly one unit eigenvalue, found {s.units} (disconnected input?)"
        )
    if not s.level.any():
        raise ConventionError(
            "no admissible eigenvalue under the paper-literal convention "
            "(all non-Perron eigenvalues are within 1e-9 of -1 or +1)"
        )
    level = np.flatnonzero(s.level)
    gap = float(s.gap)
    return SpectralSummary(
        alpha=alpha, convention=conv, eigenvalues=w,
        eigenvectors=(1.0 / s.root)[:, None] * s.eigenvectors,  # D(alpha)-orthonormal eigenvectors of P(alpha)
        level=level, lambda_star=float(s.lambda_star), star_index=int(s.star_index), v_star=s.v_star,
        gap=gap, t_rel=1.0 / gap if gap > 0.0 else math.inf, degenerate_multiplicity=len(level),
        tied_sign=bool(s.tied_sign), near_unit=bool(s.near_unit),
    )


def stacked_spectrum(a: np.ndarray, d: np.ndarray) -> StackedSpectrum:
    """alpha = 0 spectra of a (k, n, n) adjacency stack with degrees ``d``: one build, one ``eigh``.

    Solved under ``slem``; on the rows marked ``simple`` the ``paper``
    selection is the same.
    """
    return _solve(a, d, 0.0, SLEM)


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


_MIN_OVERLAP = 0.5  # a matched group overlapping the tracked vector less than this loses the branch


def _follow(steps, v: np.ndarray):
    """Follow one branch per stack row from the (k, n) vectors ``v``; yields each step's result.

    ``steps`` gives (eigenvalues, similarity eigenvectors, sqrt(d(alpha)))
    per grid point, stacked over k. At each point the eigenvector with the
    largest absolute D(alpha)-weighted overlap with the previous vector is
    matched; its group is every eigenvalue within TOL_TIE of it. The step
    yields the projection-weighted group eigenvalue, the norm of the group's
    overlaps, whether that norm reaches _MIN_OVERLAP, and the continuation vector
    (the projection onto the group, D(alpha)-scaled back), each (k,) or (k, n).
    """
    rows = np.arange(len(v))
    for w, u, s in steps:
        x = _unit(s * v)
        overlaps = (x[:, None, :] @ u)[:, 0]
        j = np.abs(overlaps).argmax(axis=-1)
        coeff = overlaps * (np.abs(w - w[rows, j][:, None]) <= TOL_TIE)
        weight = (coeff[:, None, :] @ coeff[:, :, None])[:, 0, 0]
        total = np.sqrt(weight)
        x = (u @ coeff[..., None])[..., 0]
        v = _unit(x) / s
        lam = ((coeff * coeff)[:, None, :] @ w[:, :, None])[:, 0, 0] / weight
        yield lam, total, total >= _MIN_OVERLAP, v


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
    eigenvectors sign-aligned along the branch. This is :func:`track_stack`'s
    step on a stack of one.
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
    steps = zip(ws[:, None], us[:, None], roots[:, None])
    out: list[tuple[float, float, np.ndarray]] = []
    for alpha, (lam, total, kept, v) in zip(alphas, _follow(steps, np.asarray(v_ref, dtype=float)[None])):
        if not kept[0]:
            raise BranchCrossingError(
                f"branch lost at alpha={alpha}: best overlap {total[0]:.3f} < {_MIN_OVERLAP}"
            )
        out.append((alpha, float(lam[0]), v[0]))
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
    ascending positive ``rates`` take one more batched ``eigh``. Returns the
    tracked eigenvalues, (k, grid points), and where every step kept the
    branch, (k,). Nothing raises where track_branch would raise
    :class:`BranchCrossingError`; those rows are False.
    """
    syms, roots = _similarity(a[:, None], d[:, None], rates)
    ws, us = _eigh(syms)
    steps = [start] + [(ws[:, i], us[:, i], roots[:, i]) for i in range(len(rates))]
    lams, _, kept, _ = zip(*_follow(steps, v_ref))
    return np.stack(lams, axis=-1), np.logical_and.reduce(kept)
