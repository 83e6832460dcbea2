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
:func:`classify_stack` decides a stack of graphs at once into columns, the only form a verdict takes. Every check
steps by s = FD_STEP * d_min of its row's graph, so a verdict depends on the graph alone, the same for A and cA. It
checks every derivative by a stencil on a quadratic form, with no eigensolve (:func:`_hellmann_feynman`, which
``rwj analyze`` prints at its ``--h``), and solves at 0, s/2 and s only the rows whose kept branch the alpha = 0
spectrum cannot prove. :func:`sweep_stack` checks a stack's verdicts against branch-tracked gaps from the vectors
of their branches and a WORSENS mask. :func:`classify_small_alpha`, :func:`sweep_confirms` and
:func:`finite_difference_derivative` are their one-graph cases: each takes a graph and solves its alpha = 0
spectrum as a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericalError
from .graphs import WeightedGraph
from .spectral import (SLEM, TOL_TIE, StackedSpectrum, Track, _unit, build_transition, normalize_convention,
                       require_connected, spectrum, track_stack)

IMPROVES = "IMPROVES"
WORSENS = "WORSENS"

TOL_SIGN = 1e-9        # |lambda_star| below this routes to the zero case
TOL_STATIONARY = 1e-12  # branch derivatives times d_min below this count as exactly zero
_TOL_GRAM = 1e-10       # largest |V^T D V - I| entry of a D-orthonormal basis
_TOL_RESIDUAL = 1e-7    # largest |D^-1/2 (A V - lambda D V)| entry of an eigenspace basis
_TOL_FD_START = 1e-8    # largest distance of the tracked alpha=0 eigenvalue from lambda_star
_TOL_HF = 1e-6          # largest |lambda'(0) - stencil| * d_min of the derivative check
_CERTIFY = 0.3          # e <= _CERTIFY * sep proves a simple branch kept at s/2 and s (_branch_kept)
FD_STEP = 1e-5          # the checks' step s = FD_STEP * d_min, and the default step h of the printed check


def degenerate_first_order(g: WeightedGraph, lambda_star: float, basis: np.ndarray) -> np.ndarray:
    """Branch derivatives of a (possibly) multiple eigenvalue, ascending.

    ``basis`` columns must span the eigenspace and be D-orthonormal
    (V^T D V = I). Returns the eigenvalues of V^T((1/n)11^T - lambda I)V;
    for a single column this equals the simple-branch formula exactly.
    """
    return np.linalg.eigvalsh(_reduced_pencil(g.adjacency(), g.degrees(), lambda_star, basis))


def _reduced_pencil(a: np.ndarray, d: np.ndarray, lambda_star: float, basis: np.ndarray) -> np.ndarray:
    """V^T((1/n)11^T - lambda I)V of one graph, symmetrised, once V passes :func:`degenerate_first_order`'s checks."""
    v = np.asarray(basis, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    n = len(d)
    if v.ndim != 2 or v.shape[0] != n or v.shape[1] < 1:
        raise ValueError(f"basis must be n x k with n={n}, got shape {v.shape}")
    reduced, gram_err, resid = _pencil(a, d, lambda_star, v)
    _require_eigenbasis(gram_err, resid)
    return reduced


def _require_eigenbasis(gram_err, resid) -> None:
    """Raise ValueError where :func:`_pencil`'s errors show a basis that is not D-orthonormal or not an eigenbasis."""
    if np.any(gram_err > _TOL_GRAM):
        raise ValueError("basis is not D-orthonormal (V^T D V != I within 1e-10)")
    if np.any(resid > _TOL_RESIDUAL):
        raise ValueError(f"basis does not span the eigenspace (residual {np.max(resid):.2e})")


def _pencil(a: np.ndarray, d: np.ndarray, lambda_star, v: np.ndarray):
    """V^T((1/n)11^T - lambda I)V symmetrised, max|V^T D V - I| and max|D^-1/2 (A V - lambda D V)|.

    Leading axes of ``a``, ``d``, ``lambda_star`` and ``v`` are a stack; each
    stacked product has the layout of the unstacked one, so the numbers agree.
    The residual is max|(N - lambda) Y|, Y = D^1/2 V: scale-free, and at most 2 TOL_TIE on a level of several.
    """
    n = a.shape[-1]
    lam = np.asarray(lambda_star, dtype=float)[..., None, None]
    vt = np.swapaxes(v, -1, -2)
    gram = vt @ (d[..., :, None] * v)
    gram_err = np.abs(gram - np.eye(v.shape[-1])).max(axis=(-2, -1))
    resid = np.abs((a @ v - lam * d[..., :, None] * v) / np.sqrt(d)[..., :, None]).max(axis=(-2, -1))
    ones_proj = vt @ np.ones(n)
    reduced = ones_proj[..., :, None] * ones_proj[..., None, :] / n - lam * (vt @ v)
    return (reduced + np.swapaxes(reduced, -1, -2)) / 2.0, gram_err, resid


def stacked_finite_difference(
    a: np.ndarray, d: np.ndarray, start: tuple | None, lambda_star, v: np.ndarray, h: float = FD_STEP
) -> tuple[np.ndarray, Track, np.ndarray]:
    """One-sided second-order stencil (-3 f(0) + 4 f(h/2) - f(h)) / h along the branch from ``v``, per stack row.

    ``start`` is the caller's alpha = 0 eigensolve of the (k, n, n) stack ``a``
    (:meth:`~rwj.spectral.StackedSpectrum.solution`), and then only h/2 and h
    are solved; with None, alpha = 0 is solved with them in one batched ``eigh``.
    Returns the estimates, the track, and where it starts at ``lambda_star``.
    Independent of the analytic formula; alpha >= 0 forbids central differencing.
    ``eigh`` tracks the branch; it is the check :func:`classify_stack` runs on the rows :func:`_branch_kept` leaves
    out, and ``rwj analyze`` prints :func:`_hellmann_feynman` at its ``--h`` instead.
    """
    _require_step(h)
    track = track_stack(a, d, [0.0, h / 2.0, h], v, {} if start is None else {0.0: start})
    lam = track.eigenvalues
    estimate = (-3.0 * lam[:, 0] + 4.0 * lam[:, 1] - lam[:, 2]) / h
    return estimate, track, np.abs(lam[:, 0] - lambda_star) <= _TOL_FD_START


def _require_step(h: float) -> None:
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and > 0, got {h}")


def _require_tracked(track: Track, grid: list[float], lambda_star) -> None:
    """Raise where a track lost its branch, then where it does not start within _TOL_FD_START of ``lambda_star``."""
    track.require_kept(grid)
    starts = np.abs(track.eigenvalues[:, 0] - lambda_star) <= _TOL_FD_START
    if not starts.all():
        i = int(np.argmin(starts))
        raise NumericalError(f"tracked branch starts at {track.eigenvalues[i, 0]}, "
                             f"expected lambda_star={lambda_star[i]}")


def finite_difference_derivative(g: WeightedGraph, lambda_star: float, v_star: np.ndarray, h: float = FD_STEP) -> float:
    """:func:`stacked_finite_difference` for one graph as a stack of one, solving 0, h/2 and h in one batched ``eigh``.

    A lost branch raises :class:`~rwj.errors.BranchCrossingError`, a branch that does not start at ``lambda_star``
    :class:`NumericalError`.
    """
    require_connected(g)
    v = np.asarray(v_star, dtype=float)[None]
    estimate, track, _ = stacked_finite_difference(g.adjacency()[None], g.degrees()[None], None, [lambda_star], v, h)
    _require_tracked(track, [0.0, h / 2.0, h], [lambda_star])
    return estimate[0].item()


def _hellmann_feynman(a: np.ndarray, d: np.ndarray, s: np.ndarray, v: np.ndarray, derivative: np.ndarray):
    """The stencil (-3 q(0) + 4 q(s/2) - q(s)) / s of each row and its disagreement |lambda'(0) - stencil| * d_min.

    q(alpha) = y^T N(alpha) y = x^T (A + (alpha/n) 11^T) x, x = y / sqrt(d + alpha), for the unit y along sqrt(d) * v,
    so q'(0) = lambda'(0) of the branch of ``v`` (Hellmann-Feynman) on any level; one batched mat-vec, no eigensolve.
    alpha enters N only as alpha / d_i, so with the (k,) step s = FD_STEP * d_min A -> cA leaves the disagreement. It is
    at most FD_STEP**2 (truncation, |q^(3)| <= 12 / d_min**3) + 8 (n + 2) eps / FD_STEP (rounding of each |q| <= 1)
    + |N(0) y - lambda y| (the residual of y: a few n eps, up to 2 TOL_TIE on a level of several eigenvalues).
    """
    rates = s[:, None] * np.array([0.0, 0.5, 1.0])
    x = _unit(np.sqrt(d) * v)[..., None] / np.sqrt(d[..., None] + rates[:, None, :])  # (k, n, 3)
    q = (x * (a @ x)).sum(axis=-2) + rates / d.shape[-1] * x.sum(axis=-2) ** 2
    estimate = (-3.0 * q[:, 0] + 4.0 * q[:, 1] - q[:, 2]) / s
    return estimate, np.abs(derivative - estimate) * d.min(axis=-1)


def _branch_kept(d: np.ndarray, spec: StackedSpectrum, single: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(k,) rows whose eigh-tracked branch provably keeps an overlap above 0.5 at s/2 and s, with no eigensolve.

    A level of one eigenvalue qualifies when e = s/d_min + (s/n) sum 1/(d_i + s) >= |N(alpha) - N(0)|_2, alpha <= s,
    for the (k,) step ``s`` (e <= 2 FD_STEP at s = FD_STEP * d_min), is at most c = _CERTIFY = 0.3 times
    sep > 3 TOL_TIE, its distance to the nearest other alpha = 0 eigenvalue.
    By Weyl the track then matches the branch alone, and by Davis-Kahan (sin <= e/(sep - e), then (e/2)/(sep - 2e)
    from s/2 to s) with the turn of at most 0.071 rad from sqrt(d + alpha) to sqrt(d + alpha') coordinates, the
    overlaps are at least 0.87 at s/2 and 0.90 at s (README, "Branch tracking").
    """
    e = s / d.min(axis=-1) + s / d.shape[-1] * (1.0 / (d + s[:, None])).sum(axis=-1)
    return single & (e <= _CERTIFY * spec.sep) & (spec.sep > 3.0 * TOL_TIE)


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


def modulus_rate(lambda_star, level_value, derivative) -> np.ndarray:
    """d|lambda|/dalpha at 0+ of branches starting at ``level_value`` on the modulus level of lambda_star.

    The arguments broadcast against each other, so leading axes are a stack.
    At |lambda_star| <= TOL_SIGN the modulus is |alpha lambda'(0)| + O(alpha^2),
    so the rate is |lambda'(0)|; otherwise it is lambda'(0) on the positive
    side and -lambda'(0) on the negative side.
    """
    derivative = np.asarray(derivative, dtype=float)
    return np.where(np.abs(lambda_star) <= TOL_SIGN, np.abs(derivative),
                    np.where(np.asarray(level_value) > 0.0, derivative, -derivative))


def verdict(lambda_star, worst_rate, d_min) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(classification, gap derivative, stationary) arrays from the worst modulus rate at each governing level.

    ``lambda_star``, ``worst_rate`` and each graph's smallest degree ``d_min``
    broadcast, and leading axes are a stack; ``.tolist()`` reads the rows as
    Python ``str``, ``float`` and ``bool``. A negative worst rate IMPROVES and
    any other, NaN included, WORSENS. At |lambda_star| <= TOL_SIGN the rate is
    nonnegative: a rate whose rate * d_min (scale-free) is above TOL_STATIONARY
    WORSENS, and a smaller one is stationary (reported IMPROVES).
    """
    rate = np.asarray(worst_rate, dtype=float)
    zero = np.abs(lambda_star) <= TOL_SIGN
    stationary = zero & (rate * d_min <= TOL_STATIONARY)
    worsens = np.where(zero, ~stationary, ~(rate < 0.0))
    return np.where(worsens, WORSENS, IMPROVES), -rate, stationary


class LevelBranches(NamedTuple):
    """Every branch at the modulus level of one row, both signs when tied, one entry per branch."""

    values: np.ndarray       # (b,) the eigenvalue each branch starts from
    derivatives: np.ndarray  # (b,) lambda'(0) along each branch
    rates: np.ndarray        # (b,) d|lambda|/dalpha of each branch
    vectors: np.ndarray      # (b, n) adapted alpha = 0 vector of each branch (limit of the true branch)


def _level_branches(a: np.ndarray, d: np.ndarray, spec: StackedSpectrum, i: int) -> LevelBranches:
    """All branches at the modulus level of row ``i`` of ``spec``, with their modulus rates.

    One reduced-pencil ``eigh`` per sign of the level (one for a level at 0),
    then one :func:`modulus_rate` call on every branch of the level.
    """
    w = spec.eigenvalues[i]
    lam = float(spec.lambda_star[i])
    level_idx = np.flatnonzero(spec.level[i])
    zero_case = abs(lam) <= TOL_SIGN

    if zero_case:
        groups = [level_idx]
    else:
        groups = [
            level_idx[w[level_idx] > 0.0],
            level_idx[w[level_idx] <= 0.0],
        ]
    values, derivs, vectors = [], [], []
    for idx in groups:
        if len(idx) == 0:
            continue
        level_value = float(w[idx[0]])
        basis = (1.0 / spec.root[i])[:, None] * spec.vectors[i][:, spec.order[i, idx]]  # D-orthonormal
        # eigenvalues of the reduced pencil are the branch derivatives, its
        # eigenvectors give the adapted branch vectors
        level_derivs, y = np.linalg.eigh(_reduced_pencil(a[i], d[i], level_value, basis))
        values.append(np.full(len(level_derivs), level_value))
        derivs.append(level_derivs)
        vectors += [basis @ column for column in y.T]  # one product per branch: basis @ y may round otherwise
    values, derivs = np.concatenate(values), np.concatenate(derivs)
    return LevelBranches(values, derivs, modulus_rate(lam, values, derivs), np.array(vectors))


@dataclass(frozen=True, eq=False)
class StackedVerdicts:
    """The small-alpha verdicts of a stack of graphs as (k,) columns, one entry per row.

    The worst branch of a row is the branch its verdict comes from;
    ``levels`` holds every branch of each row whose level holds more than one.
    """

    convention: str
    lambda_star: np.ndarray
    lambda_first: np.ndarray     # derivative of the worst branch
    classification: np.ndarray
    gap_derivative: np.ndarray   # d(gap)/dalpha at 0+, the scan margin: positive means the relaxation time improves
    stationary: np.ndarray
    degenerate: np.ndarray       # the level holds more than one eigenvalue
    tied_sign: np.ndarray
    level_value: np.ndarray      # the eigenvalue the worst branch starts from
    rate: np.ndarray             # modulus rate of the worst branch
    vector: np.ndarray           # (k, n) adapted vector of the worst branch
    fd_estimate: np.ndarray      # the derivative check's stencil (_hellmann_feynman)
    fd_agreement: np.ndarray     # its disagreement |lambda_first - fd_estimate| * d_min
    levels: dict[int, LevelBranches]  # every branch of each degenerate row

    def branch_vectors(self, rows: Sequence[int]) -> list[np.ndarray]:
        """The alpha = 0 vectors of every branch of each row in ``rows``, one (b, n) array per row."""
        return [self.levels[i].vectors if i in self.levels else self.vector[i:i + 1] for i in rows]


def classify_stack(a: np.ndarray, d: np.ndarray, spec: StackedSpectrum, convention: str) -> StackedVerdicts:
    """The small-alpha verdict of every row of a (k, n, n) adjacency stack ``a`` with degrees ``d``.

    ``spec`` is the stack's alpha = 0 spectrum under ``convention``, every row
    admissible. A level of one eigenvalue takes lambda'(0) from one vectorised
    1 x 1 reduced pencil, whose entry is its eigenvalue; only the rows whose
    level holds more than one eigenvalue solve theirs one row at a time. One
    :func:`modulus_rate` and one :func:`verdict` call then decide every row
    from its worst branch, and one array test makes the negative-lambda check.
    Every check steps by s = FD_STEP * d_min of its row. Only the rows :func:`_branch_kept` leaves out, every
    degenerate one among them, are tracked by ``eigh`` and must keep their branch at s/2 and s: as P(alpha; A) =
    P(alpha / c; A / c), at FD_STEP * {0, 1/2, 1} on A / d_min, in one batched ``eigh``. The worst branch of a row
    that holds its ``eigh`` basis must start at its level; every other row's start is what the residual
    certificate of :func:`~rwj.spectral._solve` proved. Every lambda'(0) must agree with
    :func:`_hellmann_feynman`. A failed check raises as in :func:`classify_small_alpha`.
    """
    lam = spec.lambda_star
    single = spec.level.sum(axis=-1) == 1
    level_value = lam.copy()
    derivative = np.empty(len(lam))
    vector = spec.basis[..., 0].copy()
    if single.any():
        reduced, *errors = _pencil(a[single], d[single], lam[single], spec.basis[single])
        _require_eigenbasis(*errors)
        derivative[single] = reduced[:, 0, 0]
    lowest = derivative.copy()  # the smallest branch derivative of each row
    levels = {}
    for i in np.flatnonzero(~single).tolist():
        branches = levels[i] = _level_branches(a, d, spec, i)
        worst = branches.rates.argmax()  # the first of equal rates
        level_value[i], derivative[i] = branches.values[worst], branches.derivatives[worst]
        vector[i] = branches.vectors[worst]
        lowest[i] = branches.derivatives.min()
    if np.any((lam < -TOL_SIGN) & (lowest <= 0.0)):
        raise NumericalError(
            "negative-lambda branch with nonpositive derivative; "
            "this contradicts the positivity of the first-order term"
        )
    rate = modulus_rate(lam, level_value, derivative)
    d_min = d.min(axis=-1)
    s, grid = FD_STEP * d_min, [0.0, FD_STEP / 2.0, FD_STEP]
    check = np.flatnonzero(~_branch_kept(d, spec, single, s))
    if len(check):
        c = d_min[check, None]
        track_stack(a[check] / c[..., None], d[check] / c, grid, vector[check], {}).require_kept(grid)
    held = np.flatnonzero(spec.held)  # the start of every other row is certified by _solve
    if len(held):
        start = spec.take(held).solution()
        _require_tracked(track_stack(a[held], d[held], [0.0], vector[held], {0.0: start}), [0.0], level_value[held])
    fd, agreement = _hellmann_feynman(a, d, s, vector, derivative)
    beyond = agreement > _TOL_HF + 8.0 * (a.shape[-1] + 2) * np.finfo(float).eps / FD_STEP
    if beyond.any():
        i = int(np.argmax(beyond))
        raise NumericalError(f"derivative check failed: lambda'(0)={derivative[i]}, finite difference {fd[i]}")
    return StackedVerdicts(
        convention, lam, derivative, *verdict(lam, rate, d_min), ~single, spec.tied_sign, level_value, rate, vector,
        fd, agreement, levels,
    )


def classify_small_alpha(g: WeightedGraph, convention: str = SLEM) -> StackedVerdicts:
    """Classify whether small jump rates improve or worsen the relaxation time.

    Rules at the governing modulus level (:func:`modulus_rate` and :func:`verdict`):

    * lambda_star < 0: the branch derivative is provably positive, so the
      modulus shrinks (IMPROVES);
    * lambda_star > 0: IMPROVES iff the worst branch derivative is negative,
      else WORSENS;
    * |lambda_star| <= 1e-9: |lambda(alpha)| = |alpha lambda'(0)| + O(alpha^2),
      so any nonzero branch derivative WORSENS, all-zero (times d_min, within
      TOL_STATIONARY) is stationary (reported IMPROVES with the stationary flag).

    Degenerate levels classify from the worst branch; sign-tied levels
    evaluate both signs and take the worst case. Every verdict carries a
    finite-difference cross-check along the governing branch. This is
    :func:`classify_stack` on the alpha = 0 spectrum of ``g`` as a stack of
    one: every column holds the one entry of ``g``.
    """
    conv = normalize_convention(convention)
    spec = spectrum(build_transition(g, 0.0), conv).stack
    return classify_stack(g.adjacency()[None], g.degrees()[None], spec, conv)


def sweep_stack(
    a: np.ndarray,
    d: np.ndarray,
    spec: StackedSpectrum,
    branches: Sequence[np.ndarray],
    worsens: np.ndarray,
    alphas: tuple[float, ...] = (1e-3, 1e-2),
) -> np.ndarray:
    """(k,) direct check of each row's verdict against branch-tracked gaps.

    ``spec`` is the alpha = 0 spectrum of the (k, n, n) adjacency stack ``a``
    with degrees ``d``. ``branches`` holds one (b, n) array per row, the
    alpha = 0 vectors of the row's b branches, and the (k,) mask ``worsens``
    marks the rows classified WORSENS. Every branch of every row is tracked
    from its vector along one ascending grid of the test alphas and their
    midpoints, all in one :func:`~rwj.spectral.track_stack` call; a lost
    branch raises :class:`~rwj.errors.BranchCrossingError`. A row's gap at a
    test alpha is 1 - max|lambda(alpha)| over its branches, compared with its
    alpha = 0 gap: a WORSENS row needs a strictly smaller gap at every test
    alpha, any other row a strictly larger one. The test alphas must be
    non-empty, finite and > 0, or ValueError.
    """
    if len(alphas) == 0 or not all(math.isfinite(x) and x > 0.0 for x in alphas):
        raise ValueError(f"test alphas must be non-empty, finite and > 0, got {tuple(alphas)}")
    grid = sorted({0.0, *alphas, *(x / 2.0 for x in alphas)})
    counts = [len(v) for v in branches]
    # the stack row of each branch; a stack of one lets track_stack follow all
    # of its branches along one graph's solves
    idx = np.repeat(np.arange(len(counts)), counts) if len(counts) > 1 else np.arange(1)
    track = track_stack(a[idx], d[idx], grid, np.concatenate(branches), {})
    track.require_kept(grid)
    moduli = np.abs(track.eigenvalues[:, [grid.index(x) for x in alphas]])
    gaps = 1.0 - np.maximum.reduceat(moduli, np.cumsum([0] + counts[:-1]), axis=0)
    gap0 = spec.gap[:, None]
    return np.where(worsens[:, None], gaps < gap0, gaps > gap0).all(axis=-1)


def sweep_confirms(g: WeightedGraph, verdicts: StackedVerdicts, alphas: tuple[float, ...] = (1e-3, 1e-2)) -> bool:
    """Direct check of one graph's verdict against branch-tracked gaps: :func:`sweep_stack` on a stack of one.

    ``verdicts`` is the verdict of ``g`` (:func:`classify_small_alpha`).
    Solves the alpha = 0 spectrum of ``g`` under its convention, tracks every
    branch of row 0 together from its alpha=0 vector, and compares
    1 - max|lambda(alpha)| at each test alpha with the alpha=0 gap.
    """
    spec = spectrum(build_transition(g, 0.0), verdicts.convention).stack
    return bool(sweep_stack(g.adjacency()[None], g.degrees()[None], spec, verdicts.branch_vectors([0]),
                            verdicts.classification[:1] == WORSENS, alphas)[0])
