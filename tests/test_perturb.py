"""First-order perturbation: the derivative formula, its oracle, and the classification."""

import dataclasses
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rwj.perturb
from rwj import (
    IMPROVES,
    WORSENS,
    BranchCrossingError,
    NumericalError,
    WeightedGraph,
    build_transition,
    classify_small_alpha,
    degenerate_first_order,
    finite_difference_derivative,
    generate,
    nand_s_check,
    parse_graph6,
    spectrum,
    sweep_confirms,
)
from rwj.perturb import FD_STEP, classify_stack, modulus_rate, stacked_finite_difference, sweep_stack, verdict
from rwj.search import _decide, scan_catalog
from rwj.spectral import PAPER, SLEM, _solve

from conftest import connected_pairs, connected_weighted, random_connected_weighted, two_node
from oracles import lambda_first_order, scalar_modulus_rate, scalar_verdict


# ---------------------------------------------------------------------------
# the derivative formula on closed-form instances
# ---------------------------------------------------------------------------

def test_first_order_det_zero_instance(det_zero_pair):
    # lambda = 0, v = (1, -2): numerator (1/2)(-1)^2, denominator 6 + 4*3
    v = np.array([1.0, -2.0])
    assert lambda_first_order(det_zero_pair, 0.0, v) == pytest.approx(0.5 / 18.0, rel=1e-12)
    assert lambda_first_order(det_zero_pair, 0.0, v) == pytest.approx(1.0 / 36.0, rel=1e-12)


def test_first_order_regular_two_node():
    g = two_node(3.0, 1.0, 3.0)   # regular, d = 4
    v = np.array([1.0, -1.0])
    assert lambda_first_order(g, 0.5, v) == pytest.approx(-0.125, rel=1e-12)
    # equals -lambda/d, the derivative of the d/(d+alpha) scaling at 0
    assert lambda_first_order(g, 0.5, v) == pytest.approx(-0.5 / 4.0, rel=1e-12)


def test_first_order_case_one_instance():
    g = two_node(1.0, 2.0, 3.0)
    v = np.array([1.0, -0.6])
    val = lambda_first_order(g, -1.0 / 15.0, v)
    assert val == pytest.approx(0.170667 / 4.8, abs=1e-6)
    assert val == pytest.approx((128.0 / 750.0) / 4.8, rel=1e-12)
    assert val > 0  # negative lambda always rises


def test_first_order_rejects_non_eigenpair(k4):
    with pytest.raises(ValueError):
        lambda_first_order(k4, 0.25, np.array([1.0, 2.0, 3.0, 4.0]))


@given(connected_weighted(max_n=7), st.floats(min_value=-6.0, max_value=6.0))
@settings(max_examples=40)
def test_first_order_scale_invariance(g, logc):
    c = math.copysign(math.exp(logc), logc if logc != 0 else 1.0)
    s = spectrum(build_transition(g, 0.0), "slem")
    if s.degenerate_multiplicity != 1 or s.tied_sign or abs(s.lambda_star) >= 1 - 1e-9:
        return
    base = lambda_first_order(g, s.lambda_star, s.v_star)
    scaled = lambda_first_order(g, s.lambda_star, c * s.v_star)
    assert scaled == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# degenerate levels
# ---------------------------------------------------------------------------

def _eigenspace_basis(summary, value):
    idx = np.flatnonzero(np.abs(summary.eigenvalues - value) <= 1e-9)
    return summary.eigenvectors[:, idx]


def test_degenerate_c5_both_branches(c5):
    s = spectrum(build_transition(c5, 0.0), "slem")
    basis = _eigenspace_basis(s, s.lambda_star)
    assert basis.shape[1] == 2
    derivs = degenerate_first_order(c5, s.lambda_star, basis)
    expected = -s.lambda_star / 2.0  # -lambda/d for a 2-regular graph
    assert derivs == pytest.approx([expected, expected], abs=1e-12)
    assert expected == pytest.approx(0.404508, abs=5e-7)


def test_degenerate_k4_three_branches(k4):
    s = spectrum(build_transition(k4, 0.0), "slem")
    basis = _eigenspace_basis(s, s.lambda_star)
    derivs = degenerate_first_order(k4, s.lambda_star, basis)
    assert derivs == pytest.approx([1 / 9] * 3, abs=1e-12)


def test_degenerate_dim_one_reduces_to_simple(det_zero_pair):
    s = spectrum(build_transition(det_zero_pair, 0.0), "slem")
    basis = _eigenspace_basis(s, s.lambda_star)
    assert basis.shape[1] == 1
    derivs = degenerate_first_order(det_zero_pair, s.lambda_star, basis)
    direct = lambda_first_order(det_zero_pair, s.lambda_star, basis[:, 0])
    assert derivs[0] == pytest.approx(direct, rel=1e-13)


def test_degenerate_rejects_bad_basis(k4):
    s = spectrum(build_transition(k4, 0.0), "slem")
    basis = _eigenspace_basis(s, s.lambda_star)
    with pytest.raises(ValueError):
        degenerate_first_order(k4, s.lambda_star, 2.0 * basis)  # not D-orthonormal
    with pytest.raises(ValueError):
        degenerate_first_order(k4, 0.9, basis)  # wrong eigenvalue


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_eigenbasis_check_rejects_another_eigenvector_at_any_scale(scale):
    # the residual is scale-free, so a basis of another eigenvalue is still no
    # eigenbasis of lambda_star, however small or large the weights are
    g = WeightedGraph(5, ((0, 1, 3.0 * scale), (1, 2, scale), (2, 3, 2.0 * scale), (3, 4, scale), (0, 4, scale),
                          (1, 3, 0.5 * scale)))
    s = spectrum(build_transition(g, 0.0), "slem")
    other = int(np.argmax(np.abs(s.eigenvalues - s.lambda_star)))
    assert abs(s.eigenvalues[other] - s.lambda_star) > 0.1
    degenerate_first_order(g, s.lambda_star, _eigenspace_basis(s, s.lambda_star))
    with pytest.raises(ValueError, match="basis does not span the eigenspace"):
        degenerate_first_order(g, s.lambda_star, s.eigenvectors[:, [other]])


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def test_fd_det_zero_pair(det_zero_pair):
    s = spectrum(build_transition(det_zero_pair, 0.0), "slem")
    fd = finite_difference_derivative(det_zero_pair, s.lambda_star, s.v_star, h=1e-5)
    assert fd == pytest.approx(1.0 / 36.0, abs=1e-6)


def test_fd_c5_degenerate_start(c5):
    s = spectrum(build_transition(c5, 0.0), "slem")
    fd = finite_difference_derivative(c5, s.lambda_star, s.v_star, h=1e-5)
    assert fd == pytest.approx(0.4045085, abs=1e-6)


def test_fd_rejects_bad_h(det_zero_pair):
    with pytest.raises(ValueError):
        finite_difference_derivative(det_zero_pair, 0.0, np.array([1.0, -2.0]), h=0.0)


def test_fd_raises_on_a_lost_branch_or_a_wrong_start():
    # an equal mix of the five distinct eigenvectors of P5 overlaps each by
    # 1/sqrt(5) < 0.5; the star vector tracked against a shifted lambda_star
    # starts away from it
    p5 = generate("path", n=5)
    s = spectrum(build_transition(p5, 0.0), "slem")
    with pytest.raises(BranchCrossingError):
        finite_difference_derivative(p5, s.lambda_star, s.eigenvectors.sum(axis=1))
    with pytest.raises(NumericalError, match="tracked branch starts at"):
        finite_difference_derivative(p5, s.lambda_star + 0.1, s.v_star)


def test_fd_convergence_order_det_zero_pair(det_zero_pair):
    # exact branch: lambda(alpha) = (alpha/2) / ((6+alpha)(3+alpha)), derivative 1/36,
    # third derivative 42/1296, so truncation dominates noise at these h
    s = spectrum(build_transition(det_zero_pair, 0.0), "slem")
    hs = np.array([0.02, 0.01, 0.005])
    errs = np.array(
        [abs(finite_difference_derivative(det_zero_pair, s.lambda_star, s.v_star, h=h) - 1.0 / 36.0) for h in hs]
    )
    assert (errs[:-1] > errs[1:]).all()
    design = np.vstack([np.log(hs), np.ones(3)]).T
    slope = np.linalg.lstsq(design, np.log(errs), rcond=None)[0][0]
    assert slope >= 1.5


def test_fd_against_exact_branch_values(det_zero_pair):
    # independent closed form for the tracked branch of the det=0 instance
    def exact(alpha):
        return (alpha / 2.0) / ((6.0 + alpha) * (3.0 + alpha))

    from rwj import track_branch

    s = spectrum(build_transition(det_zero_pair, 0.0), "slem")
    for alpha, lam, _v in track_branch(det_zero_pair, [0.0, 0.05, 0.3, 1.0], s.v_star):
        assert lam == pytest.approx(exact(alpha), abs=1e-13)


# ---------------------------------------------------------------------------
# the improvement condition, both forms
# ---------------------------------------------------------------------------

def test_nand_s_regular_always_holds():
    res = nand_s_check(0.5, np.array([1.0, -1.0]), 2)
    assert res.holds
    assert res.lhs == pytest.approx(0.0, abs=1e-15)
    assert res.rhs == pytest.approx(1.0)
    assert res.laplacian_lhs == pytest.approx(0.5)
    assert res.laplacian_rhs == pytest.approx(1.0)


def test_nand_s_near_singular_fails():
    # weights (4, 2, 1.05): still worsens, lambda slightly positive
    d1, d2 = 6.0, 3.05
    det = 4.0 * 1.05 - 4.0
    lam = det / (d1 * d2)
    v = np.array([1.0, -d1 / d2])
    res = nand_s_check(lam, v, 2)
    assert not res.holds
    assert res.lhs == pytest.approx(0.46773, abs=5e-5)
    assert res.rhs == pytest.approx(0.053224, abs=5e-6)
    # alpha sweep agrees: the gap shrinks
    g = two_node(4.0, 2.0, 1.05)
    gap0 = spectrum(build_transition(g, 0.0), "slem").gap
    gap1 = spectrum(build_transition(g, 1e-3), "slem").gap
    assert gap1 < gap0


def test_nand_s_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        nand_s_check(0.0, np.array([1.0, -1.0]), 2)
    with pytest.raises(ValueError):
        nand_s_check(-0.3, np.array([1.0, -1.0]), 2)


@given(connected_weighted(max_n=8))
@settings(max_examples=50)
def test_nand_s_form_equivalence(g):
    s = spectrum(build_transition(g, 0.0), "slem")
    if s.lambda_star <= 1e-9:
        return
    res = nand_s_check(s.lambda_star, s.v_star, g.n)
    assert res.holds == (res.laplacian_lhs < res.laplacian_rhs)
    # unordered pair sum oracle equals the Laplacian quadratic form
    v = s.v_star
    pair_sum = sum(
        (v[i] - v[j]) ** 2 for i in range(g.n) for j in range(i + 1, g.n)
    )
    quad = res.laplacian_rhs * (g.n * float(v @ v))
    assert pair_sum == pytest.approx(quad, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_det_zero_pair_worsens(det_zero_pair):
    for conv in ("slem", "paper"):
        s = spectrum(build_transition(det_zero_pair, 0.0), conv)
        r = classify_small_alpha(det_zero_pair, conv)
        assert r.classification[0] == WORSENS
        assert abs(r.lambda_star[0]) <= 1e-9
        assert r.lambda_first[0] == pytest.approx(1.0 / 36.0, rel=1e-9)
        assert r.lambda_first[0] == pytest.approx(
            lambda_first_order(det_zero_pair, r.lambda_star[0], s.v_star), rel=1e-9
        )
        assert r.fd_agreement[0] <= 1e-3
        assert not r.stationary[0]


def test_classify_k4_case_one(k4):
    r = classify_small_alpha(k4, "slem")
    assert r.classification[0] == IMPROVES
    assert r.lambda_star[0] < 0
    assert r.lambda_first[0] > 0
    assert r.degenerate[0]


# ---------------------------------------------------------------------------
# the verdict rule with stack axes
# ---------------------------------------------------------------------------

def _rule_cases():
    """(lambda_star, level value, rate, d_min) at every edge of the rule, as a flat list."""
    tol, still = rwj.perturb.TOL_SIGN, rwj.perturb.TOL_STATIONARY
    lams = [0.0, -0.0, tol, -tol, np.nextafter(tol, 0.0), -np.nextafter(tol, 0.0),
            np.nextafter(tol, 1.0), -np.nextafter(tol, 1.0), 0.3, -0.3]
    rates = [0.0, -0.0, still, -still, np.nextafter(still, 0.0), np.nextafter(still, 1.0),
             1e-3, -1e-3, 5e-324, -5e-324, math.nan, math.inf, -math.inf]
    return [(lam, level, rate, d_min) for lam in lams for level in (lam, -lam, 0.0) for d_min in (1e-4, 1.0, 1e4)
            for rate in rates]


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


def test_rule_on_arrays_matches_the_scalar_rule():
    cases = _rule_cases()
    lam, level, rate, d_min = (np.array(column).reshape(-1, 13) for column in zip(*cases))  # a (k, m) stack
    rates = modulus_rate(lam, level, rate)
    assert rates.shape == lam.shape
    assert np.array_equal(_bits(rates).ravel(), _bits([scalar_modulus_rate(*case[:3]) for case in cases]))
    classification, gap, stationary = verdict(lam, rate, d_min)
    assert classification.shape == gap.shape == stationary.shape == lam.shape
    expected = [scalar_verdict(lam_i, rate_i, d_min_i) for lam_i, _, rate_i, d_min_i in cases]
    assert classification.ravel().tolist() == [e[0] for e in expected]
    assert np.array_equal(_bits(gap).ravel(), _bits([e[1] for e in expected]))
    assert stationary.ravel().tolist() == [e[2] for e in expected]
    # rows read back as the Python types the scan rows carry
    assert {type(x) for x in classification.ravel().tolist()} == {str}
    assert {type(x) for x in gap.ravel().tolist()} == {float}
    assert {type(x) for x in stationary.ravel().tolist()} == {bool}


def test_rule_edges():
    tol, still = rwj.perturb.TOL_SIGN, rwj.perturb.TOL_STATIONARY
    # a zero or negative-zero rate off the zero level WORSENS, as does NaN anywhere
    assert verdict(np.array([0.3, 0.3, -0.3]), np.array([0.0, -0.0, math.nan]), 1.0)[0].tolist() == [WORSENS] * 3
    assert verdict(np.array([0.0]), np.array([math.nan]), np.array([1.0]))[0].tolist() == [WORSENS]
    # on the zero level, a rate of exactly TOL_STATIONARY / d_min is stationary and the next one up is not
    classification, gap, stationary = verdict(np.array([tol, tol]), np.array([still, np.nextafter(still, 1.0)]),
                                              np.array([1.0, 1.0]))
    assert classification.tolist() == [IMPROVES, WORSENS]
    assert stationary.tolist() == [True, False]
    assert gap.tolist() == [-still, -np.nextafter(still, 1.0)]
    # the rate of cA is the rate of A over c, and its verdict is the same
    assert verdict(np.array([tol, tol]), np.array([still, still]) / 1e4, np.array([1e4, 1e5]))[2].tolist() == [
        True, False]
    # just outside TOL_SIGN the same rate is no longer stationary, and the rate keeps its sign
    outside = np.nextafter(tol, 1.0)
    assert verdict(np.array([outside]), np.array([still]), np.array([1.0]))[0].tolist() == [WORSENS]
    assert modulus_rate(np.array([outside, -outside]), np.array([outside, -outside]), -1.0).tolist() == [-1.0, 1.0]
    assert modulus_rate(np.array([tol, -tol]), np.array([tol, -tol]), -1.0).tolist() == [1.0, 1.0]


def test_classify_regular_two_node_improves():
    r = classify_small_alpha(two_node(3.0, 1.0, 3.0), "slem")
    assert r.classification[0] == IMPROVES
    assert r.lambda_star[0] == pytest.approx(0.5, abs=1e-12)
    assert r.lambda_first[0] == pytest.approx(-0.125, rel=1e-9)


def test_classify_star_stationary_under_paper(star4):
    r = classify_small_alpha(star4, "paper")
    assert r.classification[0] == IMPROVES
    assert r.stationary[0]
    assert r.levels[0].derivatives.tolist() == pytest.approx([0.0, 0.0], abs=1e-12)


def test_classify_star_slem_case_one(star4):
    r = classify_small_alpha(star4, "slem")
    assert r.classification[0] == IMPROVES
    assert r.lambda_star[0] == pytest.approx(-1.0)
    assert r.lambda_first[0] == pytest.approx(5.0 / 6.0, rel=1e-9)


def test_classify_p4_tied_under_paper():
    p4 = generate("path", n=4)
    r = classify_small_alpha(p4, "paper")
    assert r.tied_sign[0]
    assert r.classification[0] == IMPROVES
    # branches: -5/12 from +1/2, +1/2 from -1/2; the +side branch governs
    assert sorted(r.levels[0].derivatives.tolist()) == pytest.approx([-5.0 / 12.0, 0.5], rel=1e-9)
    assert r.lambda_first[0] == pytest.approx(-5.0 / 12.0, rel=1e-9)
    assert r.gap_derivative[0] == pytest.approx(5.0 / 12.0, rel=1e-9)


def test_classification_sweep_consistency_named_cases(det_zero_pair, k4, c5, star4):
    # path(n=4) under paper is sign-tied: the sweep tracks both of its branches
    for g, conv in ((det_zero_pair, "slem"), (k4, "slem"), (c5, "slem"), (star4, "slem"),
                    (two_node(4.0, 2.0, 1.05), "slem"), (two_node(3.0, 1.0, 3.0), "slem"),
                    (generate("path", n=4), "paper")):
        r = classify_small_alpha(g, conv)
        assert sweep_confirms(g, r)


def test_sweep_needs_test_alphas_inside_the_model():
    # no test alpha confirms nothing, and a rate <= 0 or not finite is outside
    # the model: each is an error, never a confirmation of the WORSENS pair
    g = two_node(4.0, 2.0, 1.0)
    r = classify_small_alpha(g, "slem")
    for alphas in ((), (-1e-3,), (0.0,), (1e-3, math.nan), (math.inf,)):
        with pytest.raises(ValueError, match="test alphas must be non-empty, finite and > 0"):
            sweep_confirms(g, r, alphas)
    assert sweep_confirms(g, r, (1e-3,))


def test_sweep_stack_equals_sweep_confirms_row_by_row(catalog_lines):
    # a mixed n = 5 stack: every connected unweighted graph (degenerate and
    # tied levels, several branches per row) and weighted graphs with
    # self-loops; every third verdict is flipped to WORSENS so both
    # comparisons run, and both outcomes occur
    rng = np.random.default_rng(5)
    graphs = [parse_graph6(line) for line in catalog_lines[5]]
    graphs += [random_connected_weighted(rng, 5, self_loops=True) for _ in range(20)]
    for conv in (SLEM, PAPER):
        a = np.array([g.adjacency() for g in graphs])
        d = a.sum(axis=-1)
        spec = _solve(a, d, 0.0, conv)
        keep = spec.admissible()
        a, d, spec = a[keep], d[keep], spec.take(keep)
        kept = [g for g, k in zip(graphs, keep.tolist()) if k]
        stacked = classify_stack(a, d, spec, conv)
        verdicts = [
            dataclasses.replace(v, classification=np.array([WORSENS])) if i % 3 == 0 else v
            for i, v in enumerate(classify_small_alpha(g, conv) for g in kept)
        ]
        # the stack's branch vectors are the vectors of each graph's branches, classified alone
        vectors = stacked.branch_vectors(range(len(kept)))
        assert all(np.array_equal(x, v.branch_vectors([0])[0]) for x, v in zip(vectors, verdicts))
        worsens = np.array([v.classification[0] == WORSENS for v in verdicts])
        swept = sweep_stack(a, d, spec, vectors, worsens)
        expected = [sweep_confirms(g, v) for g, v in zip(kept, verdicts)]
        assert swept.tolist() == expected
        assert set(expected) == {True, False}
        assert max(len(x) for x in vectors) > 1

        # a branch whose vector spreads over every eigenvector is lost at alpha = 0
        i = next(i for i in range(len(kept)) if (np.diff(spec.eigenvalues[i]) < -1e-3).all())
        spread = spec.summary(i, 0.0, conv).eigenvectors.sum(axis=1)[None]
        lost = dataclasses.replace(verdicts[i], vector=spread, levels={})  # one branch, along the spread vector
        with pytest.raises(BranchCrossingError):
            sweep_stack(a, d, spec, vectors[:i] + [spread] + vectors[i + 1:], worsens)
        with pytest.raises(BranchCrossingError):
            sweep_confirms(kept[i], lost)


def test_classify_skips_the_empty_simple_level_pencil(monkeypatch):
    # C5's level is degenerate: one reduced pencil for it, and no vectorised
    # 1 x 1 pencil over an empty selection of simple levels
    shapes = []
    real = rwj.perturb._pencil

    def counting(a, *args):
        shapes.append(a.shape)
        return real(a, *args)

    monkeypatch.setattr(rwj.perturb, "_pencil", counting)
    r = classify_small_alpha(parse_graph6(b"Dhc"), "slem")
    assert r.degenerate[0]
    assert shapes == [(5, 5)]


def test_sweep_consistency_all_catalogs(catalog_lines):
    # first-order classification must match the branch-tracked gap at alpha = 1e-3
    from rwj import parse_graph6

    for n, lines in catalog_lines.items():
        for line in lines:
            g = parse_graph6(line)
            r = classify_small_alpha(g, "slem")
            assert sweep_confirms(g, r, alphas=(1e-3,)), (
                f"{line!r}: {r.classification[0]} not confirmed at alpha=1e-3"
            )


def test_case_one_property_random_graphs():
    rng = np.random.default_rng(23)
    checked = 0
    for i in range(60):
        g = random_connected_weighted(rng, int(rng.integers(3, 12)), self_loops=True)
        s = spectrum(build_transition(g, 0.0), "slem")
        if s.lambda_star < -1e-9 and s.degenerate_multiplicity == 1 and not s.tied_sign \
                and s.lambda_star > -1 + 1e-9:
            assert lambda_first_order(g, s.lambda_star, s.v_star) > 0
            checked += 1
    assert checked >= 10


def test_formula_vs_oracle_random_sample():
    rng = np.random.default_rng(31)
    for i in range(25):
        g = generate("er", n=int(rng.integers(5, 20)), p=0.4, seed=500 + i)
        s = spectrum(build_transition(g, 0.0), "slem")
        if s.degenerate_multiplicity != 1 or s.tied_sign:
            continue
        lf = lambda_first_order(g, s.lambda_star, s.v_star)
        fd = finite_difference_derivative(g, s.lambda_star, s.v_star)
        assert abs(lf - fd) <= 1e-3 * max(1.0, abs(lf))


# ---------------------------------------------------------------------------
# the derivative check and the kept-branch certificate of the verdict core
# ---------------------------------------------------------------------------

@st.composite
def wide_weighted(draw):
    """A connected graph with n = 3..10, loops, and log-uniform weights in [1e-8, 1e8]."""
    n, pairs = draw(connected_pairs(max_n=10, min_n=3))
    pairs += [(u, u) for u in draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True, max_size=n))]
    powers = draw(st.lists(st.floats(min_value=-8.0, max_value=8.0), min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(n, tuple((u, v, 10.0 ** x) for (u, v), x in zip(pairs, powers)))


def _classify_or_error(a, d, spec, convention, branch_kept=rwj.perturb._branch_kept):
    """classify_stack's columns, or the error it raises, with ``branch_kept`` as its certificate."""
    with patch.object(rwj.perturb, "_branch_kept", branch_kept):
        try:
            return classify_stack(a, d, spec, convention)
        except (ValueError, NumericalError) as exc:
            return exc


def _proves_nothing(d, spec, single, s):
    return np.zeros(len(single), dtype=bool)


def _certified(a, d, spec):
    """The rows of an admissible stack whose kept branch the certificate proves, at the step FD_STEP * d_min."""
    return rwj.perturb._branch_kept(d, spec, spec.level.sum(axis=-1) == 1, FD_STEP * d.min(axis=-1))


def _recording(masks, real=rwj.perturb._branch_kept):
    """The certificate, keeping each mask it gives in ``masks``."""
    def branch_kept(*args):
        masks.append(real(*args))
        return masks[-1]
    return branch_kept


@settings(max_examples=150, deadline=None)
@given(wide_weighted(), st.sampled_from([1e-8, 1.0, 1e8]), st.sampled_from([SLEM, PAPER]))
def test_derivative_check_and_certificate_on_wide_weights(g, scale, convention):
    # A and cA with weight ratios up to 1e16: the derivative check never raises
    # and stays within its stated bound; a row the certificate covers keeps its
    # eigh-tracked branch; and every row raises or passes as it does when every
    # row takes the eigh-tracked check
    a = g.adjacency()[None] * scale
    d = a.sum(axis=-1)
    spec = _solve(a, d, 0.0, convention)
    try:
        assume(spec.admissible().all())
    except NumericalError:  # a second eigenvalue within TOL_UNIT of 1
        assume(False)
    masks = []
    got = _classify_or_error(a, d, spec, convention, _recording(masks))
    tracked = _classify_or_error(a, d, spec, convention, _proves_nothing)
    if isinstance(tracked, Exception):
        assert type(got) is type(tracked) and str(got) == str(tracked)
        assert not str(got).startswith("derivative check")
        return
    assert not isinstance(got, Exception), got
    for name in ("lambda_first", "classification", "level_value", "vector", "fd_estimate", "fd_agreement"):
        assert np.array_equal(getattr(got, name), getattr(tracked, name))
    certified = _certified(a, d, spec)
    assert [m.tolist() for m in masks] == [certified.tolist()]
    # the eigh-tracked branch at s/2 and s, s = FD_STEP * d_min of the stack of one
    _, track, starts = stacked_finite_difference(a, d, None, got.level_value, got.vector, FD_STEP * d.min())
    assert (track.kept & starts)[certified].all()
    # the stated bound: truncation, rounding and the residual of the branch vector
    y = np.sqrt(d) * got.vector
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    n0 = a / np.sqrt(d[..., :, None] * d[..., None, :])
    residual = np.linalg.norm((n0 @ y[..., None])[..., 0] - got.level_value[:, None] * y, axis=-1)
    bound = FD_STEP ** 2 + 8 * (g.n + 2) * np.finfo(float).eps / FD_STEP + residual
    assert (got.fd_agreement <= bound).all(), (got.fd_agreement, bound)


@settings(max_examples=200, deadline=None)
@given(wide_weighted(), st.sampled_from([1e-8, 1e8]), st.sampled_from([SLEM, PAPER]))
def test_verdict_does_not_depend_on_the_weight_unit(g, scale, convention):
    # P(alpha) of A is P(c alpha) of cA: through _decide, A and cA get the same
    # verdict columns, the certificate leaves out the same rows, and both raise
    # the same error or neither does
    def decided(a):
        masks = []
        with patch.object(rwj.perturb, "_branch_kept", _recording(masks)):
            try:
                kept, rows = _decide(a, convention)
            except (ValueError, NumericalError) as exc:
                return type(exc), [m.tolist() for m in masks]
        v = rows.verdicts
        columns = (v.classification, v.stationary, v.degenerate, v.tied_sign)
        return kept.tolist(), [c.tolist() for c in columns], [m.tolist() for m in masks]

    a = g.adjacency()[None]
    assert decided(scale * a) == decided(a)


def _c5(eps: float) -> WeightedGraph:
    """C5 with the edge 0-1 weighted 1 + eps: the twin eigenvalues -0.809 split by O(eps)."""
    return WeightedGraph(5, ((0, 1, 1.0 + eps), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0)))


@pytest.mark.parametrize("convention", [SLEM, PAPER])
@pytest.mark.parametrize("eps, tracked", [(1e-7, True), (1e-5, True), (1e-3, False)])
def test_near_degenerate_c5_takes_the_tracked_check_where_unproven(monkeypatch, convention, eps, tracked):
    # e / sep at s = FD_STEP * d_min = 2e-5 is 1448, 14.4 and 0.144: only the last
    # is within the certificate's 0.3, so only it solves no matrix at s/2 and s;
    # the level is simple, so alpha = 0 takes eigvalsh and inverse iteration, and
    # the tracked check solves it with s/2 and s in one batched eigh
    solved = []
    real = np.linalg.eigh

    def counting(m, *args, **kwargs):
        solved.append(math.prod(np.shape(m)[:-2]))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    r = classify_small_alpha(_c5(eps), convention)
    assert not r.degenerate[0] and r.classification[0] == IMPROVES
    assert sum(solved) == (3 if tracked else 0)
    a = _c5(eps).adjacency()[None]
    assert _certified(a, a.sum(axis=-1), _solve(a, a.sum(axis=-1), 0.0, convention))[0] != tracked
    assert r.fd_agreement[0] <= 1e-9


def test_derivative_check_acts_on_its_answer(data_dir, monkeypatch):
    # a derivative without the 1/n of the jump term disagrees with the stencil,
    # and the scan raises instead of reporting it
    pencil = rwj.perturb._pencil

    def without_one_over_n(a, d, lambda_star, v):
        reduced, *errors = pencil(a, d, lambda_star, v)
        ones = np.swapaxes(v, -1, -2) @ np.ones(a.shape[-1])
        return reduced + (a.shape[-1] - 1) * ones[..., :, None] * ones[..., None, :] / a.shape[-1], *errors

    monkeypatch.setattr(rwj.perturb, "_pencil", without_one_over_n)
    with pytest.raises(NumericalError, match="derivative check failed"):
        scan_catalog(data_dir / "graph7c.g6", SLEM)
