"""First-order behaviour of the selected eigenvalue as the jump rate leaves zero.

For an eigenpair (lambda, v) of P = D^{-1}A the branch lambda(alpha) through
it satisfies

    lambda'(0) = [ (1/n)(1^T v)^2 - lambda v^T v ] / (v^T D v),

and the relaxation time improves for small alpha iff the modulus of the
governing eigenvalue decreases. The denominator is always positive; for
lambda < 0 the numerator is positive too, so those branches always rise
(improvement). For lambda > 0 improvement is equivalent to

    (1/n)(1^T v)^2 < lambda v^T v.

Degenerate levels are handled by the reduced pencil V^T((1/n)11^T - lambda I)V
over a D-orthonormalised eigenbasis V, whose eigenvalues are the per-branch
derivatives; the worst branch governs the modulus and hence the classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .graphs import WeightedGraph
from .spectral import (
    SLEM,
    SpectralSummary,
    StackedSpectrum,
    build_transition,
    normalize_convention,
    spectrum,
    track_branch,
    track_stack,
)

IMPROVES = "IMPROVES"
WORSENS = "WORSENS"

TOL_SIGN = 1e-9        # |lambda_star| below this routes to the zero case
TOL_STATIONARY = 1e-12  # branch derivatives below this count as exactly zero
_TOL_GRAM = 1e-10       # largest |V^T D V - I| entry of a D-orthonormal basis
_TOL_RESIDUAL = 1e-7    # largest |A V - lambda D V| entry of an eigenspace basis
_TOL_FD_START = 1e-8    # largest distance of the tracked alpha=0 eigenvalue from lambda_star


def degenerate_first_order(g: WeightedGraph, lambda_star: float, basis: np.ndarray) -> np.ndarray:
    """Branch derivatives of a (possibly) multiple eigenvalue, ascending.

    ``basis`` columns must span the eigenspace and be D-orthonormal
    (V^T D V = I). Returns the eigenvalues of V^T((1/n)11^T - lambda I)V;
    for a single column this equals the simple-branch formula exactly.
    """
    return np.linalg.eigvalsh(_reduced_pencil(g, lambda_star, basis))


def _reduced_pencil(g: WeightedGraph, lambda_star: float, basis: np.ndarray) -> np.ndarray:
    """V^T((1/n)11^T - lambda I)V, symmetrised, after checking V as :func:`degenerate_first_order` requires."""
    v = np.asarray(basis, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[0] != g.n or v.shape[1] < 1:
        raise ValueError(f"basis must be n x k with n={g.n}, got shape {v.shape}")
    reduced, gram_err, resid = _pencil(g.adjacency(), g.degrees(), lambda_star, v)
    if gram_err > _TOL_GRAM:
        raise ValueError("basis is not D-orthonormal (V^T D V != I within 1e-10)")
    if resid > _TOL_RESIDUAL:
        raise ValueError(f"basis does not span the eigenspace (residual {resid:.2e})")
    return reduced


def _pencil(a: np.ndarray, d: np.ndarray, lambda_star, v: np.ndarray):
    """V^T((1/n)11^T - lambda I)V symmetrised, max|V^T D V - I| and max|A V - lambda D V|.

    Leading axes of ``a``, ``d``, ``lambda_star`` and ``v`` are a stack; each
    stacked product has the layout of the unstacked one, so the numbers agree.
    """
    n = a.shape[-1]
    lam = np.asarray(lambda_star, dtype=float)[..., None, None]
    vt = np.swapaxes(v, -1, -2)
    gram = vt @ (d[..., :, None] * v)
    gram_err = np.abs(gram - np.eye(v.shape[-1])).max(axis=(-2, -1))
    resid = np.abs(a @ v - lam * d[..., :, None] * v).max(axis=(-2, -1))
    ones_proj = vt @ np.ones(n)
    reduced = ones_proj[..., :, None] * ones_proj[..., None, :] / n - lam * (vt @ v)
    return (reduced + np.swapaxes(reduced, -1, -2)) / 2.0, gram_err, resid


def simple_first_order(
    a: np.ndarray, d: np.ndarray, lambda_star: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """lambda'(0) of one simple eigenvalue per graph of a stack, and where it may be used.

    ``a`` is a (k, n, n) adjacency stack with degrees ``d``, and ``basis`` the
    (k, n, 1) D-orthonormal eigenvectors of ``lambda_star``. The derivative is
    the entry of the 1 x 1 reduced pencil of :func:`degenerate_first_order`,
    which is its eigenvalue. A row may be used where both of
    :func:`_reduced_pencil`'s checks pass.
    """
    reduced, gram_err, resid = _pencil(a, d, lambda_star, basis)
    return reduced[:, 0, 0], (gram_err <= _TOL_GRAM) & (resid <= _TOL_RESIDUAL)


def _starts_at(lam0, lambda_star):
    """Whether a branch tracked from alpha = 0 starts at lambda_star (within _TOL_FD_START)."""
    return np.abs(lam0 - lambda_star) <= _TOL_FD_START


def finite_difference_derivative(
    g: WeightedGraph, lambda_star: float, v_star: np.ndarray, h: float = 1e-5
) -> float:
    """One-sided second-order stencil (-3 f(0) + 4 f(h/2) - f(h)) / h along the tracked branch.

    Independent of the analytic formula; alpha >= 0 forbids central differencing.
    """
    if h <= 0.0:
        raise ValueError(f"h must be > 0, got {h}")
    branch = track_branch(g, [0.0, h / 2.0, h], v_star)
    lam0 = branch[0][1]
    if not _starts_at(lam0, lambda_star):
        raise NumericalError(
            f"tracked branch starts at {lam0}, expected lambda_star={lambda_star}"
        )
    return (-3.0 * lam0 + 4.0 * branch[1][1] - branch[2][1]) / h


def finite_difference_guard(
    a: np.ndarray, d: np.ndarray, spec: StackedSpectrum, h: float = 1e-5
) -> np.ndarray:
    """Where :func:`finite_difference_derivative` accepts the branch of lambda_star, for a stack.

    ``spec`` is the :func:`stacked_spectrum` of the (k, n, n) stack ``a``;
    its alpha = 0 eigenpairs start the tracking, and alpha = h/2 and h take one
    more batched ``eigh``. A row passes where track_branch keeps the branch
    at every step and it starts at lambda_star. The estimate itself is not
    formed. ``h`` is the step :func:`classify_small_alpha` takes by default.
    """
    start = (spec.eigenvalues, spec.eigenvectors, spec.root)
    lam, kept = track_stack(a, d, [h / 2.0, h], spec.basis[..., 0], start)
    return kept & _starts_at(lam[:, 0], spec.lambda_star)


class NandS(NamedTuple):
    """Improvement condition for a positive simple lambda_star, in both forms."""

    holds: bool
    lhs: float             # (1/n)(1^T v)^2
    rhs: float             # lambda_star v^T v
    laplacian_lhs: float   # 1 - lambda_star (= gap)
    laplacian_rhs: float   # v^T L_K v / (n v^T v) = (n v^T v - (1^T v)^2) / (n v^T v), L_K = nI - 11^T


def nand_s_sides(lambda_star, v_star: np.ndarray, n: int):
    """(1/n)(1^T v)^2 and lambda v^T v, the two sides of the improvement condition.

    Leading axes of ``lambda_star`` and ``v_star`` are a stack.
    """
    lhs = v_star.sum(axis=-1) ** 2 / n
    rhs = lambda_star * (v_star[..., None, :] @ v_star[..., :, None])[..., 0, 0]
    return lhs, rhs


def nand_s_check(lambda_star: float, v_star: np.ndarray, n: int) -> NandS:
    """Evaluate (1/n)(1^T v)^2 < lambda v^T v and its complete-graph-Laplacian twin.

    Only defined for lambda_star > 0; the two boolean forms must agree
    (covered by tests). The Laplacian quadratic form equals the unordered
    pair sum over (v_i - v_j)^2.
    """
    if lambda_star <= 0.0:
        raise ValueError(f"condition requires lambda_star > 0, got {lambda_star}")
    v = np.asarray(v_star, dtype=float)
    lhs, rhs = nand_s_sides(lambda_star, v, n)
    vtv = float(v @ v)
    laplacian_rhs = (n * vtv - float(v.sum()) ** 2) / (n * vtv)
    return NandS(
        holds=bool(lhs < rhs),
        lhs=float(lhs),
        rhs=float(rhs),
        laplacian_lhs=1.0 - lambda_star,
        laplacian_rhs=laplacian_rhs,
    )


@dataclass(frozen=True, eq=False)
class Branch:
    """One eigenvalue branch at the governing modulus level."""

    level_value: float       # exact eigenvalue the branch starts from
    derivative: float        # lambda'(0) along the branch
    rate: float              # d|lambda|/dalpha contribution of the branch
    vector: np.ndarray       # adapted eigenvector (limit of the true branch)


@dataclass(frozen=True, eq=False)
class SmallAlphaVerdict:
    """The small-alpha verdict of one graph, as a scan row records it.

    ``lambda_first`` is the derivative of the governing branch.
    ``gap_derivative`` is d(gap)/dalpha at 0+ (positive means the relaxation
    time improves) and is the scan margin. ``branches`` holds every branch at
    the governing modulus level, both signs when tied; :func:`sweep_confirms`
    tracks their vectors.
    """

    convention: str
    lambda_star: float
    lambda_first: float
    classification: str
    gap_derivative: float
    degenerate: bool
    tied_sign: bool
    stationary: bool
    branches: tuple[Branch, ...]


@dataclass(frozen=True, eq=False)
class PerturbationReport(SmallAlphaVerdict):
    """Small-alpha verdict for one graph with its finite-difference cross-check."""

    fd_estimate: float
    fd_agreement: float


def modulus_rate(lambda_star: float, level_value: float, derivative: float) -> float:
    """d|lambda|/dalpha at 0+ of a branch starting at ``level_value`` on the modulus level of lambda_star.

    At |lambda_star| <= TOL_SIGN the modulus is |alpha lambda'(0)| + O(alpha^2),
    so the rate is |lambda'(0)|; otherwise it is lambda'(0) on the positive
    side and -lambda'(0) on the negative side.
    """
    if abs(lambda_star) <= TOL_SIGN:
        return abs(derivative)
    return derivative if level_value > 0.0 else -derivative


def verdict(lambda_star: float, worst_rate: float) -> tuple[str, float, bool]:
    """(classification, gap derivative, stationary) from the worst modulus rate at the governing level.

    A negative worst rate IMPROVES. At |lambda_star| <= TOL_SIGN the rate is
    nonnegative: any rate above TOL_STATIONARY WORSENS, and a smaller one is
    stationary (reported IMPROVES).
    """
    if abs(lambda_star) <= TOL_SIGN:
        stationary = worst_rate <= TOL_STATIONARY
        return (IMPROVES if stationary else WORSENS), -worst_rate, stationary
    return (IMPROVES if worst_rate < 0.0 else WORSENS), -worst_rate, False


def _level_branches(g: WeightedGraph, summary: SpectralSummary) -> list[Branch]:
    """All branches at the modulus level of lambda_star, with their modulus rates."""
    w = summary.eigenvalues
    vecs = summary.eigenvectors
    lam = summary.lambda_star
    level_idx = summary.level
    zero_case = abs(lam) <= TOL_SIGN

    branches: list[Branch] = []
    if zero_case:
        groups = [level_idx]
    else:
        groups = [
            level_idx[w[level_idx] > 0.0],
            level_idx[w[level_idx] <= 0.0],
        ]
    for idx in groups:
        if len(idx) == 0:
            continue
        level_value = float(w[idx[0]])
        basis = vecs[:, idx]
        # eigenvalues of the reduced pencil are the branch derivatives, its
        # eigenvectors give the adapted branch vectors
        derivs, y = np.linalg.eigh(_reduced_pencil(g, level_value, basis))
        for k, deriv in enumerate(derivs.tolist()):
            branches.append(
                Branch(
                    level_value=level_value,
                    derivative=deriv,
                    rate=modulus_rate(lam, level_value, deriv),
                    vector=basis @ y[:, k],
                )
            )
    return branches


def classify_small_alpha(
    g: WeightedGraph,
    convention: str = SLEM,
    h: float = 1e-5,
    summary: SpectralSummary | None = None,
) -> PerturbationReport:
    """Classify whether small jump rates improve or worsen the relaxation time.

    Rules at the governing modulus level (:func:`modulus_rate` and :func:`verdict`):

    * lambda_star < 0: the branch derivative is provably positive, so the
      modulus shrinks (IMPROVES);
    * lambda_star > 0: IMPROVES iff the worst branch derivative is negative,
      else WORSENS;
    * |lambda_star| <= 1e-9: |lambda(alpha)| = |alpha lambda'(0)| + O(alpha^2),
      so any nonzero branch derivative WORSENS, all-zero is stationary
      (reported IMPROVES with the stationary flag).

    Degenerate levels classify from the worst branch; sign-tied levels
    evaluate both signs and take the worst case. Every report carries a
    finite-difference cross-check along the governing branch.
    """
    conv = normalize_convention(convention)
    if summary is None:
        summary = spectrum(build_transition(g, 0.0), conv)
    lam = summary.lambda_star
    branches = _level_branches(g, summary)
    if not branches:
        raise NumericalError("no branches found at the governing level")

    worst = max(branches, key=lambda b: b.rate)
    classification, gap_derivative, stationary = verdict(lam, worst.rate)

    if lam < -TOL_SIGN and any(b.derivative <= 0.0 for b in branches):
        raise NumericalError(
            "negative-lambda branch with nonpositive derivative; "
            "this contradicts the positivity of the first-order term"
        )

    fd = finite_difference_derivative(g, worst.level_value, worst.vector, h)
    fd_agreement = abs(worst.derivative - fd) / max(1.0, abs(worst.derivative))

    return PerturbationReport(
        convention=conv,
        lambda_star=lam,
        lambda_first=worst.derivative,
        classification=classification,
        gap_derivative=float(gap_derivative),
        degenerate=summary.degenerate_multiplicity > 1,
        tied_sign=summary.tied_sign,
        stationary=stationary,
        branches=tuple(branches),
        fd_estimate=float(fd),
        fd_agreement=float(fd_agreement),
    )


def sweep_confirms(
    g: WeightedGraph,
    summary: SpectralSummary,
    verdict: SmallAlphaVerdict,
    alphas: tuple[float, ...] = (1e-3, 1e-2),
) -> bool:
    """Direct check of a verdict against branch-tracked gaps.

    Tracks each of the verdict's branches from its alpha=0 vector along one
    ascending grid of the test alphas and their midpoints, and compares
    1 - max|lambda(alpha)| at each test alpha with the alpha=0 gap of
    ``summary``. A WORSENS verdict needs a strictly smaller gap at every test
    alpha, an IMPROVES verdict a strictly larger one.
    """
    grid = sorted({0.0, *alphas, *(a / 2.0 for a in alphas)})
    paths = [track_branch(g, grid, b.vector) for b in verdict.branches]
    worsens = verdict.classification == WORSENS
    gap0 = summary.gap
    for alpha in alphas:
        k = grid.index(alpha)
        gap_alpha = 1.0 - max(abs(path[k][1]) for path in paths)
        if worsens and not gap_alpha < gap0:
            return False
        if not worsens and not gap_alpha > gap0:
            return False
    return True
