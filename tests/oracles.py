"""Independent constructions that tests compare the library against.

Each builds the same quantity as a library function by a different route,
so agreement checks the library's arithmetic rather than repeating it.
"""

import numpy as np

from rwj import TransitionSystem, WeightedGraph


def lambda_first_order(g: WeightedGraph, lambda_star: float, v_star: np.ndarray) -> float:
    """First-order eigenvalue derivative along a simple branch, from the formula

    lambda'(0) = [(1/n)(1^T v)^2 - lambda v^T v] / (v^T D v).

    Scale-invariant in v_star. The pair must solve A v = lambda D v; a cheap
    residual check guards against mismatched input.
    """
    v = np.asarray(v_star, dtype=float)
    a = g.adjacency()
    d = g.degrees()
    resid = np.linalg.norm(a @ v - lambda_star * d * v)
    if resid > 1e-7 * np.linalg.norm(d * v):
        raise ValueError(f"(lambda, v) is not an eigenpair of D^-1 A (residual {resid:.2e})")
    num = (v.sum() ** 2) / g.n - lambda_star * float(v @ v)
    den = float(v @ (d * v))
    return num / den


def split_form_transition(g: WeightedGraph, alpha: float) -> np.ndarray:
    """P(alpha) assembled the other way:

    (D+aI)^{-1} D P  +  (D+aI)^{-1} a I 1 (1/n) 1^T,   P = D^{-1} A.

    Tests require entrywise agreement with ``build_transition`` to 1e-14.
    """
    alpha = float(alpha)
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    a = g.adjacency()
    d = a.sum(axis=1)
    p_srw = a / d[:, None]
    scale = d / (d + alpha)
    jump = alpha / (d + alpha)
    return scale[:, None] * p_srw + np.outer(jump, np.full(g.n, 1.0 / g.n))


def dobrushin_min_form(ts: TransitionSystem) -> float:
    """Overlap form 1 - min_{i,j} sum_k min(p_ik, p_jk) of the Dobrushin coefficient."""
    p = ts.P
    overlap = np.minimum(p[:, None, :], p[None, :, :]).sum(axis=2)
    return 1.0 - float(overlap.min())


def dobrushin_full_difference(ts: TransitionSystem) -> float:
    """The Dobrushin coefficient from the full n x n x n row-difference array (O(n^3) memory)."""
    p = ts.P
    diff = np.abs(p[:, None, :] - p[None, :, :]).sum(axis=2)
    return float(diff.max()) / 2.0


def scalar_modulus_rate(lambda_star: float, level_value: float, derivative: float) -> float:
    """d|lambda|/dalpha at 0+ of one branch, by Python float branches rather than array selection."""
    if abs(lambda_star) <= 1e-9:
        return abs(derivative)
    return derivative if level_value > 0.0 else -derivative


def scalar_verdict(lambda_star: float, worst_rate: float, d_min: float) -> tuple[str, float, bool]:
    """(classification, gap derivative, stationary) of one graph of smallest degree d_min, by Python float branches."""
    if abs(lambda_star) <= 1e-9:
        stationary = worst_rate * d_min <= 1e-12
        return ("IMPROVES" if stationary else "WORSENS"), -worst_rate, stationary
    return ("IMPROVES" if worst_rate < 0.0 else "WORSENS"), -worst_rate, False


def graph6_body_valid(line: bytes, n: int) -> bool:
    """Whether a graph6 line of an n-vertex graph has a well-formed body, read bit by bit through a string.

    Every body byte lies in [63, 126] and every bit past the n(n-1)/2 pair bits is zero.
    """
    body = line[1 if n <= 62 else 4:]
    if not all(63 <= b <= 126 for b in body):
        return False
    return "1" not in "".join(f"{b - 63:06b}" for b in body)[n * (n - 1) // 2:]
