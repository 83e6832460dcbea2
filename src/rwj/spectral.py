"""Transition matrices for random walks with uniform jumps, spectra, gaps, Dobrushin bounds.

The jump walk with rate alpha moves on the weighted graph A(alpha) obtained by
superimposing a complete graph of total weight alpha on every vertex pair,
scaled by 1/n: A(alpha) = A + (alpha/n) 11^T, with degree matrix
D(alpha) = D + alpha I and transition matrix P(alpha) = D(alpha)^{-1} A(alpha).

All spectra are computed through the symmetric similarity
N = D(alpha)^{-1/2} A(alpha) D(alpha)^{-1/2}, so eigenvalues are real and
eigenvectors come back D(alpha)-orthonormal. Eigenvalues come first: one
``numpy.linalg.eigvalsh`` per stack (LAPACK's symmetric driver, accurate to a
few ulp times the spectral norm, which is 1 here) selects lambda_star. The one
vector a simple lambda_star needs, v*, comes from two shifted solves
(N - sigma I) y = b from a fixed generic b (inverse iteration), and a residual
certificate proves by Davis-Kahan that y is v* (:func:`_certify`). Only the
rows that read a basis, a level of several eigenvalues or a vector the
certificate does not accept, are solved by ``numpy.linalg.eigh``, in one
batched call per stack that gives their eigenvalues too. Non-convergence
raises, it is never truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
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

    ``eigenvalues`` are sorted descending; ``eigenvectors`` columns, solved
    on first read, are D(alpha)-orthonormal and aligned with them. ``v_star``
    is the selected eigenvector renormalised to Euclidean unit length with its
    first entry within 1e-12 max|v| of the largest modulus made positive, so
    a tie of moduli does not leave the sign to rounding. ``level`` holds the
    indices of the governing modulus level: the admissible eigenvalues within
    TOL_TIE of the largest admissible modulus, lambda_star among them.
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
        """D(alpha)-orthonormal eigenvectors of P(alpha), one column per entry of ``eigenvalues``, solved on first read.

        A row that :func:`_solve` solved by ``eigh`` gives the eigenvectors it holds.
        """
        s = self.stack.with_bases(self.convention)
        return ((1.0 / s.root[0])[:, None] * s.vectors[0])[:, s.order[0]]


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


def _eigvalsh(sym: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed to converge: {exc}") from exc


class _Levels(NamedTuple):
    """The selection of lambda_star in each row of a stack, made from its eigenvalues alone."""

    eigenvalues: np.ndarray   # (k, n), descending
    order: np.ndarray         # (k, n), the ascending position of each eigenvalue
    in_range: np.ndarray      # (k,) every eigenvalue lies in [-1, 1] to 1e-10
    units: np.ndarray         # (k,) number of eigenvalues within TOL_UNIT of 1
    near_unit: np.ndarray     # (k,) a second eigenvalue is within TOL_UNIT of +-1
    level: np.ndarray         # (k, n) admissible eigenvalues within TOL_TIE of the largest admissible modulus
    tied_sign: np.ndarray     # (k,) the level holds both signs (away from 0)
    lambda_star: np.ndarray   # (k,)
    sep: np.ndarray           # (k,) distance from lambda_star to the nearest eigenvalue off its level
    gap: np.ndarray           # (k,) 1 - |lambda_star|, 0 within TOL_UNIT of 1


def _levels(raw: np.ndarray, convention: str) -> _Levels:
    """The selection of lambda_star under ``convention`` from the ascending eigenvalues ``raw`` of a (k, n) stack."""
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
    lam = w[rows, level.argmax(axis=-1)]
    mod = np.abs(lam)
    return _Levels(
        eigenvalues=w, order=order, in_range=mods.max(axis=-1) <= 1.0 + 1e-10, units=unit.sum(axis=-1),
        near_unit=near.sum(axis=-1) > 1, level=level,
        tied_sign=(mstar > TOL_TIE) & (lam > 0.0) & (level & (w <= 0.0)).any(axis=-1), lambda_star=lam,
        sep=np.where(level, np.inf, np.abs(w - lam[:, None])).min(axis=-1),
        gap=np.where(mod < 1.0 - TOL_UNIT, 1.0 - mod, 0.0),
    )


def _ascending(s) -> np.ndarray:
    """The eigenvalues of the levels ``s`` in ascending order, as the eigensolver gave them."""
    raw = np.empty_like(s.eigenvalues)
    np.put_along_axis(raw, s.order, s.eigenvalues, axis=-1)
    return raw


def _admissible(s) -> np.ndarray:
    """(k,) rows of the levels ``s`` with an admissible eigenvalue; a row out of [-1, 1] or without exactly one
    unit eigenvalue raises :class:`NumericalError`."""
    for i in np.flatnonzero(~s.in_range | (s.units != 1)).tolist():
        w = s.eigenvalues[i]
        if not s.in_range[i]:
            raise NumericalError(f"eigenvalues escaped [-1, 1]: range [{w[-1]}, {w[0]}]")
        raise NumericalError(
            f"expected exactly one unit eigenvalue, found {s.units[i]}: the graph is near-decomposable at "
            "TOL_UNIT = 1e-9"
        )
    return s.level.any(axis=-1)


class StackedSpectrum(NamedTuple):
    """Spectra of a stack of k graphs at one jump rate, with the selection of lambda_star.

    Eigenvalues are sorted descending, ties in ascending order. A row holds
    the eigenvectors ``eigh`` gave it only where :func:`_solve` solved it by
    ``eigh``: a level of several eigenvalues, or a lambda_star whose vector
    the residual certificate (:func:`_certify`) does not accept. Every row
    follows :func:`spectrum`'s rule under the convention the stack was solved
    with, and :func:`spectrum` is the k = 1 case: on the rows :meth:`admissible`
    accepts, the other fields mean what they mean in :class:`SpectralSummary`.
    """

    eigenvalues: np.ndarray   # (k, n), descending
    order: np.ndarray         # (k, n), the ascending position of each eigenvalue: its column in ``vectors``
    in_range: np.ndarray      # (k,) every eigenvalue lies in [-1, 1] to 1e-10
    units: np.ndarray         # (k,) number of eigenvalues within TOL_UNIT of 1
    near_unit: np.ndarray     # (k,) a second eigenvalue is within TOL_UNIT of +-1
    level: np.ndarray         # (k, n) admissible eigenvalues within TOL_TIE of the largest admissible modulus
    tied_sign: np.ndarray     # (k,) the level holds both signs (away from 0)
    lambda_star: np.ndarray   # (k,)
    sep: np.ndarray           # (k,) distance from lambda_star to the nearest eigenvalue off its level
    gap: np.ndarray           # (k,) 1 - |lambda_star|, 0 within TOL_UNIT of 1
    sym: np.ndarray           # (k, n, n), the similarity N(alpha) of each row
    root: np.ndarray          # (k, n), sqrt(d(alpha))
    vectors: np.ndarray       # (k,) objects: a held row's (n, n) eigenvectors as ``eigh`` gave them, else None
    basis: np.ndarray         # (k, n, 1), the D(alpha)-orthonormal eigenvector of lambda_star
    v_star: np.ndarray        # (k, n)

    @property
    def held(self) -> np.ndarray:
        """(k,) the row was solved by ``eigh`` and holds its eigenvectors."""
        return np.array([x is not None for x in self.vectors], dtype=bool)

    def take(self, rows) -> "StackedSpectrum":
        """The stack of ``rows`` (an index array, a mask or a slice)."""
        return self._make(f[rows] for f in self)

    def admissible(self) -> np.ndarray:
        """(k,) rows with an admissible eigenvalue, after the checks of :func:`spectrum`.

        A row with an eigenvalue outside [-1, 1] raises :class:`NumericalError`,
        and so does a row without exactly one unit eigenvalue: its graph is
        disconnected or, connected, near-decomposable at TOL_UNIT.
        """
        return _admissible(self)

    def require_admissible(self) -> None:
        """Raise :class:`ConventionError` unless :meth:`admissible` accepts every row."""
        if not self.admissible().all():
            raise ConventionError(NO_ADMISSIBLE)

    def with_bases(self, convention: str) -> "StackedSpectrum":
        """This stack, solved under ``convention``, with every row held: the others are solved by one batched ``eigh``.

        A row solved here selects lambda_star from the eigenvalues ``eigh``
        gives, as a held row did, so it is the row a solve of every row by
        ``eigh`` gives.
        """
        if self.held.all():
            return self
        levels = _Levels(*self[:len(_Levels._fields)])  # a stack's first fields are its levels
        return _assemble(self.sym, self.root, levels, self.vectors, np.empty(self.eigenvalues.shape), ~self.held,
                         convention)

    def solution(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ascending eigenvalues, eigenvectors, root) of a stack whose every row is held, as ``eigh`` gave them.

        This is the alpha = 0 solve that :func:`track_stack` takes from its caller.
        """
        if not self.held.all():
            raise ValueError("every row must hold its eigenvectors (with_bases)")
        return _ascending(self), np.array(list(self.vectors)).reshape(self.sym.shape), self.root

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


_SHIFT = 1e-13      # inverse iteration shifts lambda_star by this times max(1, |lambda_star|)
_START_SEED = 0     # seed of the generic start vector of inverse iteration
_CERTIFY_START = 0.5  # residual <= _CERTIFY_START * sep accepts a vector of lambda_star (_certify)


@lru_cache(maxsize=None)
def _start_vector(n: int) -> np.ndarray:
    """The fixed generic start vector of inverse iteration: n standard normal draws from seed _START_SEED."""
    y = np.random.default_rng(_START_SEED).standard_normal(n)
    y.flags.writeable = False
    return y


def _inverse_iteration(sym: np.ndarray, lambda_star: np.ndarray) -> np.ndarray:
    """(k, n) unit vectors of ``lambda_star`` in each (n, n) matrix of the stack ``sym``: two shifted solves.

    Each row solves (N - sigma I) y = b twice from :func:`_start_vector`,
    with sigma = lambda_star + _SHIFT max(1, |lambda_star|): the shift keeps
    the solve regular where lambda_star is exact, and is far below any
    separation the certificate accepts. A solve that fails or overflows
    gives NaN, which :func:`_certify` rejects.
    """
    k, n = sym.shape[:2]
    shifted = sym.copy()
    shifted.reshape(k, n * n)[:, ::n + 1] -= (lambda_star + _SHIFT * np.maximum(1.0, np.abs(lambda_star)))[:, None]
    y = np.broadcast_to(_start_vector(n), (k, n))
    with np.errstate(all="ignore"):
        try:
            for _ in range(2):
                y = _unit(np.linalg.solve(shifted, y[..., None])[..., 0])
        except np.linalg.LinAlgError:
            return np.full((k, n), np.nan)
    return y


def _certify(sym: np.ndarray, lambda_star: np.ndarray, y: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """(k,) rows whose unit vector ``y`` provably is the eigenvector of lambda_star, up to sign and angle 30 degrees.

    By Davis-Kahan, sin angle(y, v*) <= |N y - lambda_star y| / sep, with sep
    the distance to the nearest other eigenvalue; sep > 3 TOL_TIE keeps that
    distance far above the eigenvalues' rounding. A residual of at most
    sep / 2 then gives an overlap of at least sqrt(3)/2 > 0.5 with v* alone:
    an ``eigh``-tracked branch from y matches lambda_star and starts there,
    which is what the verdict core's start check proved of an ``eigh`` basis.
    """
    with np.errstate(all="ignore"):
        r = (sym @ y[..., None])[..., 0] - lambda_star[:, None] * y
        residual = np.sqrt((r * r).sum(axis=-1))
    return (residual <= _CERTIFY_START * sep) & (sep > 3.0 * TOL_TIE)


def _assemble(sym, root, levels: _Levels, vectors, y, solve, convention: str) -> StackedSpectrum:
    """The stack of the matrices ``sym`` with eigenvalues ``levels`` once the rows ``solve`` are solved by ``eigh``.

    ``vectors`` holds the eigenvectors of rows already held (None elsewhere)
    and ``y`` the unit vector of lambda_star of every other row not in the
    (k,) mask ``solve``. The rows solved here take their eigenvalues from
    ``eigh`` too, and lambda_star is selected again from them.
    """
    idx = np.flatnonzero(solve)
    if len(idx):
        raw, vectors = _ascending(levels), vectors.copy()
        raw[idx], u = _eigh(sym[idx])
        for i, row_vectors in zip(idx.tolist(), u):
            vectors[i] = row_vectors
        levels = _levels(raw, convention)
    rows = np.arange(len(y))
    star = levels.order[rows, levels.level.argmax(axis=-1)]
    for i, row_vectors in enumerate(vectors):
        if row_vectors is not None:
            y[i] = row_vectors[:, star[i]]
    basis = ((1.0 / root) * y)[..., None]
    v = _unit(basis[..., 0])
    mods = np.abs(v)  # the first entry within 1e-12 max|v| of the largest modulus is made positive (cor2's band)
    sign = np.sign(v[rows, (mods >= mods.max(axis=-1, keepdims=True) * (1.0 - 1e-12)).argmax(axis=-1)])
    return StackedSpectrum(*levels, sym=sym, root=root, vectors=vectors, basis=basis, v_star=v * sign[:, None])


def _solve(a: np.ndarray, d: np.ndarray, alpha, convention: str) -> StackedSpectrum:
    """One build, one ``eigvalsh`` and the selection of lambda_star for a (k, n, n) stack ``a`` with degrees ``d``.

    The vector of a lambda_star alone at its level comes from two shifted
    solves (:func:`_inverse_iteration`) and must pass the residual
    certificate (:func:`_certify`). One batched ``eigh`` solves the other
    rows, a level of several eigenvalues or a vector the certificate does not
    accept, whose eigenbasis the verdict core reads; they take their
    eigenvalues from it too.
    ``convention`` is SLEM or PAPER, as :func:`normalize_convention` gives it; anything else raises ValueError.
    """
    if convention not in (SLEM, PAPER):
        raise ValueError(f"convention must be {SLEM!r} or {PAPER!r}, got {convention!r}")
    sym, root = _similarity(a, d, alpha)
    levels = _levels(_eigvalsh(sym), convention)
    y = np.empty(levels.eigenvalues.shape)
    simple = np.flatnonzero(levels.level.sum(axis=-1) == 1)
    single = sym if len(simple) == len(sym) else sym[simple]  # no copy where every level is simple
    lam = levels.lambda_star[simple]
    y[simple] = _inverse_iteration(single, lam)
    solve = np.ones(len(y), dtype=bool)
    solve[simple] = ~_certify(single, lam, y[simple], levels.sep[simple])
    return _assemble(sym, root, levels, np.full(len(y), None, dtype=object), y, solve, convention)


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
    """Dobrushin ergodic coefficient in overlap form: 1 - min over row pairs i < j of sum_k min(P_ik, P_jk).

    This is half the max total-variation row distance, as rows sum to 1, and
    it never exceeds 1: every overlap is a sum of nonnegative terms, and the
    minimum starts from 1, the overlap of a row with itself, so identical rows
    give 0 and one row alone gives 0. Row i is compared with the rows after
    it, one block at a time in one reused n x n buffer, so memory stays
    O(n^2): one ``np.minimum`` and one row sum per block. At alpha = 0 the
    pattern S = (P > 0) is read first: a zero of S S^T is two rows that share
    no column, whose overlap is exactly 0, so delta = 1.0 exactly from one
    matrix product and no blocked pass.
    """
    p = ts.P
    if ts.alpha == 0.0:
        pattern = (p > 0.0).astype(float)
        if not (pattern @ pattern.T).all():
            return 1.0
    buffer = np.empty_like(p)
    least = 1.0
    for i in range(p.shape[0] - 1):
        block = np.minimum(p[i + 1:], p[i], out=buffer[i + 1:])
        least = min(least, float(block.sum(axis=1).min()))
    return 1.0 - least


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
    first hit. A gap needs the eigenvalues alone: each point is one
    ``eigvalsh`` and the checks of :func:`spectrum`.
    """
    d_max = float(g.degrees().max())
    closed = alpha_bar_closed_form(gamma0, d_max)
    if gamma0 >= 1.0:
        # no gap exceeds 1, so no grid point can beat gamma0
        return AlphaBar(gamma0=gamma0, closed_form=closed, searched=None)
    if grid is None:
        grid = np.logspace(-3.0, 3.0, 64)
    conv = normalize_convention(convention)
    a, d = g.adjacency()[None], g.degrees()[None]
    searched = None
    for rate in grid:
        ts = build_transition(g, float(rate))
        levels = _levels(_eigvalsh(_similarity(a, d, ts.alpha)[0]), conv)
        if not _admissible(levels).all():
            raise ConventionError(NO_ADMISSIBLE)
        if levels.gap[0] > gamma0:
            searched = ts.alpha
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
    eigensolves the caller holds (:meth:`StackedSpectrum.solution`); the other
    rates, alpha = 0 among them where the caller holds none, take one batched
    ``eigh``. At each rate the eigenvector with the
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
    """:func:`track_stack` for one branch of ``g``; grid points of the spectra ``solved`` that hold their eigenvectors
    are not solved again.

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
    held = {s.alpha: s.stack.solution() for s in solved if s.stack.held.all()}
    track = track_stack(g.adjacency()[None], g.degrees()[None], alphas, np.asarray(v_ref, dtype=float)[None], held)
    track.require_kept(alphas)
    return list(zip(alphas, track.eigenvalues[0].tolist(), track.vectors[0]))
