"""Transition systems, spectra, conventions, Dobrushin machinery, branch tracking."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from rwj import (
    BranchCrossingError,
    ConventionError,
    DisconnectedGraphError,
    NumericalError,
    WeightedGraph,
    alpha_bar,
    build_transition,
    dobrushin,
    dobrushin_bound,
    finite_difference_derivative,
    generate,
    mixing_time_bounds,
    parse_edgelist,
    spectrum,
    track_branch,
)
from rwj.cli import main
from rwj.perturb import finite_difference_guard
from rwj.spectral import TOL_UNIT, alpha_bar_closed_form, stacked_spectrum, track_stack

from conftest import connected_weighted, random_connected_weighted, same_order_stacks
from oracles import dobrushin_full_difference, dobrushin_min_form, split_form_transition


# ---------------------------------------------------------------------------
# transition construction
# ---------------------------------------------------------------------------

def test_transition_path3_rows(p3):
    ts = build_transition(p3, 1.0)
    # endpoint has degree 1: jump part (1/3)/2, neighbour part (1 + 1/3)/2
    assert ts.P[0] == pytest.approx([1 / 6, 2 / 3, 1 / 6], rel=1e-14)
    assert ts.pi == pytest.approx([2 / 7, 3 / 7, 2 / 7], rel=1e-14)


def test_transition_alpha_zero_is_srw(k4):
    ts = build_transition(k4, 0.0)
    a = k4.adjacency()
    expected = a / a.sum(axis=1)[:, None]
    assert np.array_equal(ts.P, expected)


def test_transition_rejects_bad_input(k4):
    with pytest.raises(ValueError):
        build_transition(k4, -0.5)
    with pytest.raises(DisconnectedGraphError):
        build_transition(WeightedGraph.from_pairs(4, [(0, 1), (2, 3)]), 0.0)


def _check_transition_invariants(g, alpha):
    ts = build_transition(g, alpha)
    n = g.n
    assert np.abs(ts.P.sum(axis=1) - 1.0).max() <= 1e-12
    assert ts.P.min() >= 0.0
    if alpha > 0:
        assert ts.P.min() > 0.0
    # detailed balance
    balance = ts.pi[:, None] * ts.P - (ts.pi[:, None] * ts.P).T
    assert np.abs(balance).max() <= 1e-12
    # stationary law
    d = g.degrees()
    assert np.abs(ts.pi - (d + alpha) / (d.sum() + alpha * n)).max() <= 1e-14
    assert abs(ts.pi.sum() - 1.0) <= 1e-12
    assert np.abs(ts.pi @ ts.P - ts.pi).max() <= 1e-12
    # split-form identity
    assert np.abs(ts.P - split_form_transition(g, alpha)).max() <= 1e-14


@given(connected_weighted(max_n=8))
@settings(max_examples=40)
def test_transition_invariants_property(g):
    for alpha in (0.0, 0.37, 2.0):
        _check_transition_invariants(g, alpha)


def test_transition_invariants_on_random_unweighted():
    rng = np.random.default_rng(5)
    for i in range(20):
        g = generate("er", n=int(rng.integers(5, 25)), p=0.3, seed=100 + i)
        for alpha in (0.0, 1.0, 10.0):
            _check_transition_invariants(g, alpha)


# ---------------------------------------------------------------------------
# spectrum and conventions
# ---------------------------------------------------------------------------

def test_spectrum_k4(k4):
    for conv in ("slem", "paper"):
        s = spectrum(build_transition(k4, 0.0), conv)
        assert s.eigenvalues == pytest.approx([1.0, -1 / 3, -1 / 3, -1 / 3], abs=1e-12)
        assert s.lambda_star == pytest.approx(-1 / 3, abs=1e-12)
        assert s.gap == pytest.approx(2 / 3, abs=1e-12)
        assert s.degenerate_multiplicity == 3
        assert not s.tied_sign


def test_spectrum_c5(c5):
    expected = sorted((math.cos(2 * math.pi * k / 5) for k in range(5)), reverse=True)
    s = spectrum(build_transition(c5, 0.0), "slem")
    assert s.eigenvalues == pytest.approx(expected, abs=1e-12)
    assert s.lambda_star == pytest.approx(math.cos(4 * math.pi / 5), abs=1e-12)
    assert s.gap == pytest.approx(1 - abs(math.cos(4 * math.pi / 5)), abs=1e-12)
    assert s.degenerate_multiplicity == 2


def test_spectrum_star_conventions(star4):
    slem = spectrum(build_transition(star4, 0.0), "slem")
    assert slem.lambda_star == pytest.approx(-1.0, abs=1e-12)
    assert slem.gap == 0.0 and math.isinf(slem.t_rel)
    assert slem.near_unit
    paper = spectrum(build_transition(star4, 0.0), "paper")
    assert paper.lambda_star == pytest.approx(0.0, abs=1e-12)
    assert paper.gap == pytest.approx(1.0) and paper.t_rel == pytest.approx(1.0)


def test_spectrum_k2_paper_literal_has_no_candidates():
    k2 = generate("complete", n=2)
    with pytest.raises(ConventionError):
        spectrum(build_transition(k2, 0.0), "paper")
    s = spectrum(build_transition(k2, 0.0), "slem")
    assert s.lambda_star == pytest.approx(-1.0)


def test_v_star_normalisation_and_orthogonality():
    rng = np.random.default_rng(11)
    for i in range(10):
        g = random_connected_weighted(rng, int(rng.integers(3, 12)), self_loops=True)
        for alpha in (0.0, 0.8):
            s = spectrum(build_transition(g, alpha), "slem")
            assert np.linalg.norm(s.v_star) == pytest.approx(1.0, abs=1e-12)
            assert s.v_star[int(np.argmax(np.abs(s.v_star)))] > 0
            d_alpha = g.degrees() + alpha
            assert abs(float(d_alpha @ s.v_star)) <= 1e-9
            assert s.eigenvalues.max() <= 1.0 + 1e-10
            assert s.eigenvalues.min() >= -1.0 - 1e-10
            assert np.sum(np.abs(s.eigenvalues - 1.0) <= 1e-9) == 1


def test_aperiodicity_for_positive_alpha():
    rng = np.random.default_rng(13)
    for i in range(10):
        g = random_connected_weighted(rng, int(rng.integers(3, 12)))
        s = spectrum(build_transition(g, 0.5), "slem")
        non_perron = np.delete(s.eigenvalues, 0)
        assert np.abs(non_perron).max() < 1.0


def test_regular_pagerank_equivalence():
    # on a d-regular graph the non-unit spectrum scales by d/(d+alpha)
    for g in (generate("cycle", n=5), generate("complete", n=4), generate("cycle", n=6),
              generate("complete", n=5)):
        d = float(g.degrees()[0])
        base = np.sort(spectrum(build_transition(g, 0.0), "slem").eigenvalues[1:])
        for alpha in (0.5, 1.0, 2.0):
            shifted = np.sort(spectrum(build_transition(g, alpha), "slem").eigenvalues[1:])
            assert np.abs(shifted - d / (d + alpha) * base).max() <= 1e-9


# ---------------------------------------------------------------------------
# relaxation and mixing bounds
# ---------------------------------------------------------------------------

def test_relaxation_examples(star4):
    # the star's non-Perron eigenvalues are -1 and 0 (twice): paper excludes -1
    paper = spectrum(build_transition(star4, 0.0), "paper")
    assert paper.lambda_star == pytest.approx(0.0, abs=1e-12)
    assert (paper.gap, paper.t_rel) == (pytest.approx(1.0), pytest.approx(1.0))
    slem = spectrum(build_transition(star4, 0.0), "slem")
    assert slem.lambda_star == pytest.approx(-1.0, abs=1e-12)
    assert slem.gap == 0.0 and math.isinf(slem.t_rel)


def test_relaxation_accepts_summary(k4):
    s = spectrum(build_transition(k4, 0.0), "slem")
    assert s.lambda_star == pytest.approx(-1 / 3, abs=1e-12)
    assert (s.gap, s.t_rel) == (pytest.approx(2 / 3), pytest.approx(1.5))


def test_mixing_time_bounds_example():
    lower, upper = mixing_time_bounds(10.0, 0.01, 0.01)
    assert lower == pytest.approx((math.log(100) + math.log(0.5)) * 9, rel=1e-12)
    assert lower == pytest.approx(35.2082, abs=5e-4)
    assert upper == pytest.approx((math.log(100) + math.log(100)) * 10, rel=1e-12)
    assert upper == pytest.approx(92.1034, abs=5e-4)
    assert lower <= upper


def test_mixing_time_bounds_edges():
    lower, _ = mixing_time_bounds(1.0, 0.3, 0.1)
    assert lower == 0.0
    with pytest.raises(ValueError):
        mixing_time_bounds(10.0, 0.01, 0.5)
    with pytest.raises(ValueError):
        mixing_time_bounds(10.0, 1.5, 0.1)
    with pytest.raises(ValueError):
        mixing_time_bounds(math.inf, 0.01, 0.1)


# ---------------------------------------------------------------------------
# Dobrushin
# ---------------------------------------------------------------------------

def test_dobrushin_k2_closed_form():
    k2 = generate("complete", n=2)
    assert dobrushin(build_transition(k2, 0.0)) == pytest.approx(1.0, abs=1e-15)
    for alpha in (0.1, 0.5, 1.0, 4.0, 10.0):
        ts = build_transition(k2, alpha)
        assert dobrushin(ts) == pytest.approx(1.0 / (1.0 + alpha), rel=1e-14)


@given(connected_weighted(max_n=8))
@settings(max_examples=30)
def test_dobrushin_forms_agree_and_chain(g):
    base_gap = None
    d_max = float(g.degrees().max())
    for alpha in (0.0, 0.1, 1.0, 10.0):
        ts = build_transition(g, alpha)
        delta = dobrushin(ts)
        assert delta == dobrushin_full_difference(ts)
        assert abs(delta - dobrushin_min_form(ts)) <= 1e-12
        gap = spectrum(ts, "slem").gap
        bound = dobrushin_bound(alpha, d_max)
        assert gap - (1.0 - delta) >= -1e-12
        assert (1.0 - delta) - bound >= -1e-12


def test_dobrushin_row_wise_equals_full_difference_er120():
    g = generate("er", n=120, p=0.1, seed=4)
    for alpha in (0.0, 0.5, 7.0):
        ts = build_transition(g, alpha)
        assert dobrushin(ts) == dobrushin_full_difference(ts)


def test_dobrushin_memory_is_quadratic():
    # the n x n x n difference array alone would take 512 MB at n = 400
    ts = build_transition(generate("er", n=400, p=0.05, seed=0), 0.0)
    tracemalloc.start()
    try:
        dobrushin(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_dobrushin_bound_values():
    assert dobrushin_bound(2.0, 6.0) == pytest.approx(0.25)
    assert dobrushin_bound(0.0, 6.0) == 0.0
    grid = [dobrushin_bound(a, 5.0) for a in np.logspace(-2, 4, 20)]
    assert all(b2 > b1 for b1, b2 in zip(grid, grid[1:]))
    assert grid[-1] > 0.99


# ---------------------------------------------------------------------------
# alpha_bar
# ---------------------------------------------------------------------------

def test_alpha_bar_closed_form_values():
    assert alpha_bar_closed_form(0.2, 5.0) == pytest.approx(1.25)
    assert alpha_bar_closed_form(0.0, 5.0) == 0.0
    assert math.isinf(alpha_bar_closed_form(1.0, 5.0))


def test_alpha_bar_regular_search_below_closed_form(c5):
    bar = alpha_bar(c5, spectrum(build_transition(c5, 0.0), "slem"))
    assert bar.searched is not None
    assert bar.searched <= bar.closed_form
    # for a regular graph any alpha > 0 improves, so the search hits the first grid point
    assert bar.searched == pytest.approx(1e-3)


def test_alpha_bar_k4_searched(k4):
    bar = alpha_bar(k4, spectrum(build_transition(k4, 0.0), "slem"))
    assert bar.searched is not None
    assert bar.searched <= bar.closed_form


def test_alpha_bar_bipartite_slem(star4):
    bar = alpha_bar(star4, spectrum(build_transition(star4, 0.0), "slem"))
    assert bar.gamma0 == 0.0
    assert bar.closed_form == 0.0
    assert bar.searched == pytest.approx(1e-3)


def test_alpha_bar_guarantee_beyond_closed_form():
    rng = np.random.default_rng(3)
    for i in range(8):
        g = random_connected_weighted(rng, int(rng.integers(3, 10)))
        bar = alpha_bar(g, spectrum(build_transition(g, 0.0), "slem"), grid=[])
        if math.isinf(bar.closed_form):
            continue
        alpha = bar.closed_form * 1.01 + 1e-6
        gap = spectrum(build_transition(g, alpha), "slem").gap
        assert gap > bar.gamma0


def test_alpha_bar_skips_the_grid_at_unit_gap(data_dir, monkeypatch, capsys):
    # lambda_star = 5.6e-17 rounds the gap to 1, which no gap can exceed
    g = parse_edgelist((data_dir / "two_node.el").read_text())
    base = spectrum(build_transition(g, 0.0), "paper")
    assert base.gap == 1.0
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
    bar = alpha_bar(g, base)
    assert calls == []
    assert (bar.gamma0, bar.closed_form, bar.searched) == (1.0, math.inf, None)
    monkeypatch.undo()
    # rwj analyze prints what it printed when the grid was searched
    assert main(["analyze", "--input", str(data_dir / "two_node.el"), "--format", "edgelist"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1a9c174b5922175dbb0355c312d975cef9eae89e582f895b406ed11ca4b6f98e"
    )


def test_alpha_bar_rejects_a_nonzero_alpha_base(c5):
    with pytest.raises(ValueError):
        alpha_bar(c5, spectrum(build_transition(c5, 0.5), "slem"))


# ---------------------------------------------------------------------------
# branch tracking
# ---------------------------------------------------------------------------

def test_track_branch_regular_scaling(c5):
    s = spectrum(build_transition(c5, 0.0), "slem")
    lam0 = s.lambda_star
    branch = track_branch(c5, [0.0, 1.0, 2.0], s.v_star)
    for alpha, lam, _v in branch:
        assert lam == pytest.approx(2.0 / (2.0 + alpha) * lam0, abs=1e-12)
    assert branch[1][1] == pytest.approx(-0.539345, abs=5e-7)


def test_track_branch_single_point(k4):
    s = spectrum(build_transition(k4, 0.0), "slem")
    (alpha, lam, v), = track_branch(k4, [0.0], s.v_star)
    assert alpha == 0.0
    assert lam == pytest.approx(s.lambda_star, abs=1e-12)


def test_track_branch_validation(k4):
    s = spectrum(build_transition(k4, 0.0), "slem")
    with pytest.raises(ValueError):
        track_branch(k4, [], s.v_star)
    with pytest.raises(ValueError):
        track_branch(k4, [0.5, 0.1], s.v_star)
    with pytest.raises(ValueError):
        track_branch(k4, [-0.1, 0.5], s.v_star)


def test_track_branch_crossing_error():
    # an equal mix of five distinct eigenvectors overlaps each by 1/sqrt(5) < 0.5
    p5 = generate("path", n=5)
    s = spectrum(build_transition(p5, 0.0), "slem")
    assert len(np.unique(np.round(s.eigenvalues, 6))) == 5
    mixed = s.eigenvectors.sum(axis=1)
    with pytest.raises(BranchCrossingError):
        track_branch(p5, [0.0], mixed)


# ---------------------------------------------------------------------------
# the stacked core against the per-graph functions
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(same_order_stacks())
def test_stacked_spectrum_simple_rows_are_the_simple_spectrum_rows(stack):
    a, d, graphs = stack
    spec = stacked_spectrum(a, d)
    for i, g in enumerate(graphs):
        summaries = []
        for conv in ("slem", "paper"):
            try:
                summaries.append(spectrum(build_transition(g, 0.0), conv))
            except (NumericalError, ConventionError):
                pass
        simple = len(summaries) == 2 and all(
            not s.near_unit and s.degenerate_multiplicity == 1 and abs(s.lambda_star) < 1.0 - TOL_UNIT
            for s in summaries
        )
        assert spec.simple[i] == simple
        if simple:
            for s in summaries:
                assert spec.lambda_star[i] == s.lambda_star
                assert spec.gap[i] == s.gap
                assert np.array_equal(spec.v_star[i], s.v_star)


@settings(max_examples=40)
@given(same_order_stacks())
def test_stacked_tracking_equals_track_branch_on_simple_rows(stack):
    a, d, graphs = stack
    h = 1e-5
    spec = stacked_spectrum(a, d)
    start = (spec.eigenvalues, spec.eigenvectors, spec.root)
    lam, kept = track_stack(a, d, [h / 2.0, h], spec.basis[..., 0], start)
    guard = finite_difference_guard(a, d, spec, h)
    for i in np.flatnonzero(spec.simple):
        try:
            branch = track_branch(graphs[i], [0.0, h / 2.0, h], spec.basis[i, :, 0])
        except BranchCrossingError:
            assert not kept[i] and not guard[i]
            continue
        assert kept[i]
        assert lam[i].tolist() == [point[1] for point in branch]
        try:
            finite_difference_derivative(graphs[i], spec.lambda_star[i], spec.basis[i, :, 0], h)
        except NumericalError:
            assert not guard[i]
        else:
            assert guard[i]
