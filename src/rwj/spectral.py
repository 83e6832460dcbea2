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
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

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

NO_ADMISSIBLE = ("no admissible eigenvalue under the paper-literal convention "
                 "(all non-Perron eigenvalues are within 1e-9 of -1 or +1)")


def normalize_convention(convention: str) -> str:
    if convention in (SLEM,):
        return SLEM
    if convention in (PAPER, "paper"):
        return PAPER
    raise ValueError(f"unknown convention {convention!r}; use 'slem' or 'paper'")


@dataclass(frozen=True, eq=False)
class TransitionSystem:
    """A graph together with a jump rate; its transition matrix and stationary law are computed on first read."""

    graph: WeightedGraph
    alpha: float

    @cached_property
    def P(self) -> np.ndarray:
        """P(alpha) = (D + alpha I)^{-1} (A + (alpha/n) 11^T)."""
        return (self.graph.adjacency() + self.alpha / self.graph.n) / (self.graph.degrees() + self.alpha)[:, None]

    @cached_property
    def pi(self) -> np.ndarray:
        """pi_i = (d_i + alpha) / (volume + alpha n)."""
        d = self.graph.degrees()
        return (d + self.alpha) / (d.sum() + self.alpha * self.graph.n)


def build_transition(g: WeightedGraph, alpha: float) -> TransitionSystem:
    """Transition system of the jump walk on a connected graph at a jump rate alpha >= 0."""
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    require_connected(g)
    return TransitionSystem(graph=g, alpha=alpha)


def require_connected(g: WeightedGraph) -> None:
    """Raise :class:`DisconnectedGraphError` unless ``g`` is connected, as the jump walk needs."""
    if not g.connected:
        raise DisconnectedGraphError("transition system requires a connected graph")


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """Full real spectrum of P(alpha) with the selected non-unit eigenvalue.

    ``eigenvalues`` are sorted descending; ``eigenvectors`` columns, computed
    on first read, are D(alpha)-orthonormal and aligned with them. ``v_star``
    is the selected eigenvector renormalised to Euclidean unit length with its
    largest-modulus entry made positive. ``level`` holds the indices of the
    governing modulus level: the admissible eigenvalues within TOL_TIE of the
    largest admissible modulus, lambda_star among them.
    """

    alpha: float
    convention: str
    eigenvalues: np.ndarray
    stack: "StackedSpectrum"  # the stack of one this summary reads
    level: np.ndarray
    lambda_star: float
    v_star: np.ndarray
    gap: float
    t_rel: float
    degenerate_multiplicity: int
    tied_sign: bool
    near_unit: bool

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """D(alpha)-orthonormal eigenvectors of P(alpha), one column per entry of ``eigenvalues``."""
        s = self.stack
        return ((1.0 / s.root[0])[:, None] * s.eigenvectors[0])[:, s.order[0]]


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

    Eigenvalues are sorted descending, ties in ``eigh``'s order; eigenvectors
    stay in ``eigh``'s order. Every row follows :func:`spectrum`'s rule under the
    convention the stack was solved with, and :func:`spectrum` is the k = 1
    case: on the rows :meth:`admissible` accepts, the other fields mean what
    they mean in :class:`SpectralSummary`.
    """

    eigenvalues: np.ndarray   # (k, n), descending
    order: np.ndarray         # (k, n), the eigenvector column of each eigenvalue
    eigh_values: np.ndarray   # (k, n), ascending, as ``eigh`` returned them
    eigenvectors: np.ndarray  # (k, n, n), orthonormal eigenvectors of the similarity, as ``eigh`` returned them
    root: np.ndarray          # (k, n), sqrt(d(alpha))
    in_range: np.ndarray      # (k,) every eigenvalue lies in [-1, 1] to 1e-10
    units: np.ndarray         # (k,) number of eigenvalues within TOL_UNIT of 1
    near_unit: np.ndarray     # (k,) a second eigenvalue is within TOL_UNIT of +-1
    level: np.ndarray         # (k, n) admissible eigenvalues within TOL_TIE of the largest admissible modulus
    tied_sign: np.ndarray     # (k,) the level holds both signs (away from 0)
    lambda_star: np.ndarray   # (k,)
    basis: np.ndarray         # (k, n, 1), the D(alpha)-orthonormal eigenvector of lambda_star
    v_star: np.ndarray        # (k, n)
    gap: np.ndarray           # (k,) 1 - |lambda_star|, 0 within TOL_UNIT of 1

    @property
    def solved(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors, root) as ``eigh`` returned them, which :func:`track_stack` reuses."""
        return self.eigh_values, self.eigenvectors, self.root

    def take(self, rows) -> "StackedSpectrum":
        """The stack of ``rows`` (an index array, a mask or a slice)."""
        return self._make(f[rows] for f in self)

    def admissible(self) -> np.ndarray:
        """(k,) rows with an admissible eigenvalue, after the checks of :func:`spectrum`.

        A row with an eigenvalue outside [-1, 1] or without exactly one unit
        eigenvalue raises :class:`NumericalError`.
        """
        for i in np.flatnonzero(~self.in_range | (self.units != 1)).tolist():
            w = self.eigenvalues[i]
            if not self.in_range[i]:
                raise NumericalError(f"eigenvalues escaped [-1, 1]: range [{w[-1]}, {w[0]}]")
            raise NumericalError(
                f"expected exactly one unit eigenvalue, found {self.units[i]} (disconnected input?)"
            )
        return self.level.any(axis=-1)

    def require_admissible(self) -> None:
        """Raise :class:`ConventionError` unless :meth:`admissible` accepts every row."""
        if not self.admissible().all():
            raise ConventionError(NO_ADMISSIBLE)

    def summary(self, i: int, alpha: float, convention: str) -> SpectralSummary:
        """Row ``i``, which must be admissible, as the :class:`SpectralSummary` of a stack solved at ``alpha``."""
        s = self._make(f[i] for f in self)
        level = np.flatnonzero(s.level)
        gap = float(s.gap)
        return SpectralSummary(
            alpha=alpha, convention=convention, eigenvalues=s.eigenvalues,
            stack=self.take(slice(i, i + 1)), level=level, lambda_star=float(s.lambda_star), v_star=s.v_star,
            gap=gap, t_rel=1.0 / gap if gap > 0.0 else math.inf,
            degenerate_multiplicity=len(level), tied_sign=bool(s.tied_sign), near_unit=bool(s.near_unit),
        )


def _unit(x: np.ndarray) -> np.ndarray:
    """``x`` scaled to Euclidean length 1 along its last axis.

    The squared norm is a dot product, as ``x @ x`` computes it for one
    vector, so a stacked row and the same vector alone give the same bits.
    """
    return x / np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0]


def _solve(a: np.ndarray, d: np.ndarray, alpha, convention: str) -> StackedSpectrum:
    """One build, one ``eigh`` and the selection of lambda_star for a (k, n, n) stack ``a`` with degrees ``d``.

    ``convention`` is SLEM or PAPER, as :func:`normalize_convention` gives it; anything else raises ValueError.
    """
    if convention not in (SLEM, PAPER):
        raise ValueError(f"convention must be {SLEM!r} or {PAPER!r}, got {convention!r}")
    sym, root = _similarity(a, d, alpha)
    raw, u = _eigh(sym)
    rows = np.arange(len(raw))
    order = np.argsort(-raw, axis=-1, kind="stable")
    w = raw[rows[:, None], order]
    mods = np.abs(w)
    near = np.abs(mods - 1.0) <= TOL_UNIT  # within TOL_UNIT of 1 or of -1
    unit = near & (w > 0.0)
    admissible = ~near if convention == PAPER else ~unit
    candidates = np.where(admissible, mods, -1.0)
    mstar = candidates.max(axis=-1)
    level = admissible & (np.abs(candidates - mstar[:, None]) <= TOL_TIE)
    star = level.argmax(axis=-1)
    lam = w[rows, star]
    basis = ((1.0 / root) * u[rows, :, order[rows, star]])[..., None]
    v = _unit(basis[..., 0])
    sign = np.sign(v[rows, np.abs(v).argmax(axis=-1)])  # makes the largest-modulus entry positive
    mod = np.abs(lam)
    return StackedSpectrum(
        eigenvalues=w, order=order, eigh_values=raw, eigenvectors=u, root=root,
        in_range=mods.max(axis=-1) <= 1.0 + 1e-10, units=unit.sum(axis=-1), near_unit=near.sum(axis=-1) > 1,
        level=level,
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
    s = _solve(g.adjacency()[None], g.degrees()[None], alpha, conv)
    s.require_admissible()
    return s.summary(0, alpha, conv)


def mixing_time_bounds(t_rel: float, pi_min: float, epsilon: float) -> tuple[float, float]:
    """Two-sided mixing-time bounds from the relaxation time.

    lower = (ln(1/eps) + ln(1/2)) (t_rel - 1),
    upper = (ln(1/eps) + ln(1/pi_min)) t_rel, natural logarithms.
    """
    _require_epsilon(epsilon)
    if not 0.0 < pi_min < 1.0:
        raise ValueError(f"pi_min must lie in (0, 1), got {pi_min}")
    if not math.isfinite(t_rel) or t_rel < 1.0:
        raise ValueError(f"t_rel must be finite and >= 1, got {t_rel}")
    lower = (math.log(1.0 / epsilon) + math.log(0.5)) * (t_rel - 1.0)
    upper = (math.log(1.0 / epsilon) + math.log(1.0 / pi_min)) * t_rel
    return lower, upper


def _require_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")


def dobrushin(ts: TransitionSystem) -> float:
    """Dobrushin ergodic coefficient: half the max total-variation row distance.

    Row i is compared with the rows after it, one block at a time in one
    reused n x n buffer, so memory stays O(n^2); each distance sums over
    columns exactly as the full n x n x n difference would, and the distance
    matrix is symmetric with a zero diagonal, so the maximum is unchanged.
    """
    p = ts.P
    buffer = np.empty_like(p)
    worst = 0.0
    for i in range(p.shape[0] - 1):
        block = buffer[i + 1:]
        np.abs(np.subtract(p[i + 1:], p[i], out=block), out=block)
        worst = max(worst, float(block.sum(axis=1).max()))
    return worst / 2.0


def dobrushin_bound(alpha: float, d_max: float) -> float:
    """Lower bound alpha / (d_max + alpha) on the spectral gap of P(alpha)."""
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
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


def alpha_bar(g: WeightedGraph, gamma0: float, convention: str, grid: Sequence[float] | None = None) -> AlphaBar:
    """Closed-form and grid-searched improvement thresholds for the jump rate.

    ``gamma0`` is the alpha=0 gap of ``g`` under ``convention``, which selects
    the gaps along the grid. ``closed_form`` makes the Dobrushin bound exceed
    gamma0 (infinite when it is already 1); ``searched`` is the smallest grid
    point whose recomputed gap actually beats it (None if none does). Default
    grid: 64 log-spaced points in [1e-3, 1e3], solved one at a time up to the
    first hit.
    """
    d_max = float(g.degrees().max())
    closed = alpha_bar_closed_form(gamma0, d_max)
    if gamma0 >= 1.0:
        # no gap exceeds 1, so no grid point can beat gamma0
        return AlphaBar(gamma0=gamma0, closed_form=closed, searched=None)
    if grid is None:
        grid = np.logspace(-3.0, 3.0, 64)
    searched = None
    for a in grid:
        if spectrum(build_transition(g, float(a)), convention).gap > gamma0:
            searched = float(a)
            break
    return AlphaBar(gamma0=gamma0, closed_form=closed, searched=searched)


_MIN_OVERLAP = 0.5  # a matched group overlapping the tracked vector less than this loses the branch


class Track(NamedTuple):
    """Branches followed along a grid of jump rates, one per stack row."""

    eigenvalues: np.ndarray  # (k, m) projection-weighted group eigenvalue at each grid point
    overlap: np.ndarray      # (k, m) norm of the matched group's overlaps with the previous vector
    vectors: np.ndarray      # (k, m, n) continuation vectors

    @property
    def kept(self) -> np.ndarray:
        """(k,) every step of the row kept its branch (overlap at least _MIN_OVERLAP)."""
        return (self.overlap >= _MIN_OVERLAP).all(axis=-1)

    def require_kept(self, alpha_grid: Sequence[float]) -> None:
        """Raise :class:`BranchCrossingError` at the first row and grid point that lost its branch."""
        if not self.kept.all():
            row, i = np.argwhere(~(self.overlap >= _MIN_OVERLAP))[0]
            raise BranchCrossingError(
                f"branch lost at alpha={alpha_grid[i]}: best overlap {self.overlap[row, i]:.3f} < {_MIN_OVERLAP}"
            )


def track_stack(a: np.ndarray, d: np.ndarray, alpha_grid: Sequence[float], v: np.ndarray, solved: dict) -> Track:
    """Follow one eigenvalue branch per row of the (k, n) vectors ``v`` along an ascending grid.

    ``a`` is a (k, n, n) adjacency stack with degrees ``d``; one graph with k
    vectors follows k branches of it. ``solved`` maps rates to the
    eigensolves the caller holds (:attr:`StackedSpectrum.solved`); the other
    rates take one batched ``eigh``. At each rate the eigenvector with the
    largest absolute D(alpha)-weighted overlap with the previous vector is
    matched with every eigenvalue within TOL_TIE of it; the step records the
    group's projection-weighted eigenvalue and overlap norm, and continues
    from the projection onto the group, which keeps tracking well defined
    through exact degeneracies. Nothing raises here.
    """
    todo = [rate for rate in alpha_grid if rate not in solved]
    if todo:
        syms, roots = _similarity(a[:, None], d[:, None], todo)
        ws, us = _eigh(syms)
        solved = {**solved, **{rate: (ws[:, i], us[:, i], roots[:, i]) for i, rate in enumerate(todo)}}
    rows = np.arange(len(v)) % len(a)  # the stack row each vector follows
    track = Track(*(np.empty((len(v), len(alpha_grid)) + shape) for shape in ((), (), v.shape[-1:])))
    for i, (w, u, s) in enumerate(solved[rate] for rate in alpha_grid):
        x = _unit(s * v)
        overlaps = (x[:, None, :] @ u)[:, 0]
        j = np.abs(overlaps).argmax(axis=-1)
        coeff = overlaps * (np.abs(w - w[rows, j][:, None]) <= TOL_TIE)
        weight = (coeff[:, None, :] @ coeff[:, :, None])[:, 0, 0]
        x = (u @ coeff[..., None])[..., 0]
        v = _unit(x) / s
        track.eigenvalues[:, i] = ((coeff * coeff)[:, None, :] @ w[..., :, None])[:, 0, 0] / weight
        track.overlap[:, i] = np.sqrt(weight)
        track.vectors[:, i] = v
    return track


def track_branch(
    g: WeightedGraph, alpha_grid: Sequence[float], v_ref: np.ndarray, solved: Iterable[SpectralSummary] = ()
) -> list[tuple[float, float, np.ndarray]]:
    """:func:`track_stack` for one branch of ``g``; grid points of the spectra ``solved`` are not solved again.

    An overlap below 0.5 raises :class:`BranchCrossingError` (refine the
    grid). Returns (alpha, eigenvalue, eigenvector) per grid point,
    eigenvectors sign-aligned along the branch.
    """
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("alpha grid is empty")
    if any(a < 0.0 for a in alphas):
        raise ValueError("alpha grid must be nonnegative")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha grid must be strictly ascending")
    held = {s.alpha: s.stack.solved for s in solved}
    track = track_stack(g.adjacency()[None], g.degrees()[None], alphas, np.asarray(v_ref, dtype=float)[None], held)
    track.require_kept(alphas)
    return list(zip(alphas, track.eigenvalues[0].tolist(), track.vectors[0]))
