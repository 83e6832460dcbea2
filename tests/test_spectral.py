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
    classify_small_alpha,
    dobrushin,
    dobrushin_bound,
    finite_difference_derivative,
    generate,
    mixing_time_bounds,
    parse_edgelist,
    spectrum,
    track_branch,
    write_edgelist,
)
from rwj.cli import main
from rwj.conditions import corollary2
from rwj.graphs import decode_graph6_stack
from rwj.perturb import FD_STEP, _branch_kept, _hellmann_feynman, stacked_finite_difference
from rwj.search import analyze_graph
import rwj.spectral
from rwj.spectral import (PAPER, SLEM, _certify, _similarity, _solve, alpha_bar_closed_form, normalize_convention,
                         track_stack)

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


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_non_finite_alpha_rejected(k4, alpha):
    with pytest.raises(ValueError, match="finite"):
        build_transition(k4, alpha)
    with pytest.raises(ValueError, match="finite"):
        dobrushin_bound(alpha, 3.0)


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


def test_stacked_solve_takes_only_normalised_conventions():
    # "paper" is a spelling for users: the stacked solve refuses it rather than
    # select under slem (gap 0 on a star), and analyze_graph normalises first
    star = generate("star", n=5)
    a, d = star.adjacency()[None], star.degrees()[None]
    for spelling in ("paper", "SLEM", "lazy"):
        with pytest.raises(ValueError):
            _solve(a, d, 0.0, spelling)
    assert _solve(a, d, 0.0, PAPER).gap == pytest.approx([1.0])
    row = analyze_graph(star, "paper")
    assert row.convention == PAPER
    assert row.lambda_star == pytest.approx(0.0, abs=1e-12)


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
    # the overlap form bit for bit, except where the rows of A = cJ sum past 1
    # by an ulp and the oracle's 1 - overlap goes below 0, and the full row
    # difference within 1e-12
    base_gap = None
    d_max = float(g.degrees().max())
    for alpha in (0.0, 0.1, 1.0, 10.0):
        ts = build_transition(g, alpha)
        delta = dobrushin(ts)
        assert 0.0 <= delta <= 1.0
        assert delta == max(0.0, dobrushin_min_form(ts))
        assert abs(delta - dobrushin_full_difference(ts)) <= 1e-12
        gap = spectrum(ts, "slem").gap
        bound = dobrushin_bound(alpha, d_max)
        assert gap - (1.0 - delta) >= -1e-12
        assert (1.0 - delta) - bound >= -1e-12


def test_dobrushin_row_wise_equals_full_difference_er120():
    g = generate("er", n=120, p=0.1, seed=4)
    for alpha in (0.0, 0.5, 7.0):
        ts = build_transition(g, alpha)
        delta = dobrushin(ts)
        assert delta == dobrushin_min_form(ts)
        assert abs(delta - dobrushin_full_difference(ts)) <= 1e-12


def test_dobrushin_is_one_at_alpha_zero_from_the_pattern_alone(monkeypatch):
    # ER(400, 0.05) has two rows that share no column: delta = 1.0 exactly, from
    # S S^T with no blocked pass (the full difference gave 1 + 2.2e-16)
    ts = build_transition(generate("er", n=400, p=0.05, seed=0), 0.0)
    monkeypatch.setattr(np, "minimum", lambda *args, **kwargs: pytest.fail("blocked pass at alpha = 0"))
    assert dobrushin(ts) == 1.0
    monkeypatch.undo()
    assert dobrushin_min_form(ts) == 1.0


@pytest.mark.parametrize("n", [6, 7])
def test_dobrushin_of_identical_rows_stays_in_range(n):
    # A = cJ: every row of P(alpha) is 1/n, so delta is 0 in exact arithmetic;
    # where the rows' overlap sums to 1 + 2.2e-16 the oracle's 1 - overlap goes
    # below 0, and the overlap form, which starts from 1, gives 0
    g = WeightedGraph(n, tuple((u, v, 0.1) for u in range(n) for v in range(u, n)))
    below = 0
    for alpha in (0.0, 0.1, 1.0, 10.0):
        ts = build_transition(g, alpha)
        delta, oracle = dobrushin(ts), dobrushin_min_form(ts)
        assert delta == max(0.0, oracle) and 0.0 <= delta <= 4.0 * np.finfo(float).eps
        below += oracle < 0.0
    assert below


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
    bar = alpha_bar(c5, spectrum(build_transition(c5, 0.0), "slem").gap, "slem")
    assert bar.searched is not None
    assert bar.searched <= bar.closed_form
    # for a regular graph any alpha > 0 improves, so the search hits the first grid point
    assert bar.searched == pytest.approx(1e-3)


def test_alpha_bar_k4_searched(k4):
    bar = alpha_bar(k4, spectrum(build_transition(k4, 0.0), "slem").gap, "slem")
    assert bar.searched is not None
    assert bar.searched <= bar.closed_form


def test_alpha_bar_bipartite_slem(star4):
    bar = alpha_bar(star4, spectrum(build_transition(star4, 0.0), "slem").gap, "slem")
    assert bar.gamma0 == 0.0
    assert bar.closed_form == 0.0
    assert bar.searched == pytest.approx(1e-3)


@pytest.mark.parametrize("convention", ["slem", "paper"])
def test_alpha_bar_reads_the_gaps_from_eigenvalues_alone(monkeypatch, convention):
    # one eigvalsh per grid point up to the first hit, no eigh and no solve for
    # a vector, and the first grid point whose spectrum has a larger gap
    rng = np.random.default_rng(11)
    graphs = [random_connected_weighted(rng, int(rng.integers(3, 10)), self_loops=True) for _ in range(6)]
    graphs.append(generate("path", n=6))
    grid = np.logspace(-3.0, 3.0, 64)
    for g in graphs:
        gamma0 = spectrum(build_transition(g, 0.0), convention).gap
        hit = next((float(x) for x in grid if spectrum(build_transition(g, float(x)), convention).gap > gamma0), None)
        with monkeypatch.context() as m:
            for name in ("eigh", "solve"):
                m.setattr(np.linalg, name, lambda *args, _name=name: pytest.fail(f"alpha_bar called {_name}"))
            values = _counting(m, "eigvalsh")
            bar = alpha_bar(g, gamma0, convention)
        assert bar.searched == hit
        assert len(values) == (list(grid).index(hit) + 1 if hit is not None else len(grid))


def test_alpha_bar_guarantee_beyond_closed_form():
    rng = np.random.default_rng(3)
    for i in range(8):
        g = random_connected_weighted(rng, int(rng.integers(3, 10)))
        bar = alpha_bar(g, spectrum(build_transition(g, 0.0), "slem").gap, "slem", grid=[])
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
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda a, _real=getattr(np.linalg, name): calls.append(a) or _real(a))
    bar = alpha_bar(g, base.gap, "paper")
    assert calls == []
    assert (bar.gamma0, bar.closed_form, bar.searched) == (1.0, math.inf, None)
    monkeypatch.undo()
    # rwj analyze prints what it printed when the grid was searched, with its
    # fd= and fd_agreement from the Hellmann-Feynman stencil at --h
    assert main(["analyze", "--input", str(data_dir / "two_node.el"), "--format", "edgelist"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f59ce78cad596d4d4a0eb6c5261150d3215b748fbcd40a37ba7ba14de28d85f2"
    )


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
    # every row of a stack solved under one convention is the spectrum of its
    # graph under that convention: the same admissibility, level and
    # selection, so the simple (single-eigenvalue) rows are the simple spectra
    a, d, graphs = stack
    for conv in ("slem", "paper"):
        spec = _solve(a, d, 0.0, normalize_convention(conv))
        admissible = spec.admissible()
        for i, g in enumerate(graphs):
            try:
                s = spectrum(build_transition(g, 0.0), conv)
            except ConventionError:
                assert not admissible[i]
                continue
            assert admissible[i]
            assert (spec.level[i].sum() == 1) == (s.degenerate_multiplicity == 1)
            assert np.flatnonzero(spec.level[i]).tolist() == s.level.tolist()
            assert spec.lambda_star[i] == s.lambda_star
            assert spec.gap[i] == s.gap
            assert np.array_equal(spec.v_star[i], s.v_star)
            assert (spec.tied_sign[i], spec.near_unit[i]) == (s.tied_sign, s.near_unit)
            assert spec.held[i] == s.stack.held[0]
            assert spec.summary(i, 0.0, s.convention).eigenvectors.tobytes() == s.eigenvectors.tobytes()


@settings(max_examples=40)
@given(same_order_stacks())
def test_stacked_tracking_equals_track_branch_on_simple_rows(stack):
    # the stack tracks from alpha = 0, solved with the other rates; track_branch,
    # its one-graph case, gives the same eigenvalues whether it is handed the
    # alpha = 0 spectrum or not
    a, d, graphs = stack
    h = 1e-5
    grid = [0.0, h / 2.0, h]
    spec = _solve(a, d, 0.0, "slem")
    simple = (spec.level.sum(axis=-1) == 1) & (spec.gap > 0.0)
    track = track_stack(a, d, grid, spec.basis[..., 0], {})
    estimate, fd_track, starts = stacked_finite_difference(a, d, None, spec.lambda_star, spec.basis[..., 0], h)
    guard = fd_track.kept & starts
    assert np.array_equal(fd_track.eigenvalues, track.eigenvalues)
    for i in np.flatnonzero(simple):
        s = spectrum(build_transition(graphs[i], 0.0), "slem")
        for solved in ((), (s,)):
            try:
                branch = track_branch(graphs[i], grid, spec.basis[i, :, 0], solved)
            except BranchCrossingError:
                assert not track.kept[i] and not guard[i]
                continue
            assert track.kept[i]
            assert track.eigenvalues[i].tolist() == [point[1] for point in branch]
        try:
            fd = finite_difference_derivative(graphs[i], spec.lambda_star[i], spec.basis[i, :, 0], h)
        except NumericalError:
            assert not guard[i]
        else:
            assert guard[i]
            assert fd == estimate[i]


# ---------------------------------------------------------------------------
# eigenvalues first: v* by inverse iteration, accepted by a residual certificate
# ---------------------------------------------------------------------------

def _stack_bits(spec):
    """Every field of a stack as bytes, a held row's eigenvectors included, so that equality is bit for bit."""
    return [[None if x is None else x.tobytes() for x in f] if f.dtype == object
            else (f.dtype.str, f.shape, f.tobytes()) for f in spec]


def _wide_stack(n=7, k=40, seed=3):
    rng = np.random.default_rng(seed)
    graphs = [random_connected_weighted(rng, n, self_loops=True) for _ in range(k)]
    return np.stack([g.adjacency() for g in graphs])


@pytest.mark.parametrize("convention", [SLEM, PAPER])
def test_certificate_accepts_the_eigenvector_of_lambda_star_alone(convention):
    # an eigenvector of any other eigenvalue has a residual of at least sep, twice
    # what the certificate accepts; the one of lambda_star passes
    a = _wide_stack()
    d = a.sum(axis=-1)
    spec = _solve(a, d, 0.0, convention)
    simple = spec.level.sum(axis=-1) == 1
    sym, _ = _similarity(a, d, 0.0)
    w, u = np.linalg.eigh(sym)
    star = spec.order[np.arange(len(a)), spec.level.argmax(axis=-1)]
    assert simple.sum() >= 30
    for j in range(a.shape[-1]):
        got = _certify(sym, spec.lambda_star, u[..., j], spec.sep)
        assert np.array_equal(got[simple], (star == j)[simple]), j
    # the vector inverse iteration gives is the one the certificate accepts
    y = np.sqrt(d) * spec.basis[..., 0]
    assert _certify(sym, spec.lambda_star, y, spec.sep)[simple].all()


@pytest.mark.parametrize("convention", [SLEM, PAPER])
def test_a_vector_the_certificate_rejects_takes_eigh(monkeypatch, convention):
    # hand the certificate the eigenvector of another eigenvalue for every row:
    # each row is then solved by eigh, and the stack is the one a solve of every
    # row by eigh gives, bit for bit
    a = _wide_stack(seed=5)
    d = a.sum(axis=-1)
    real = np.linalg.eigh

    def wrong(matrices, lambda_star):
        w, u = real(matrices)
        far = np.argmax(np.abs(w - lambda_star[:, None]), axis=-1)
        return u[np.arange(len(w)), :, far]

    def nothing(matrices, lambda_star):
        return np.full(matrices.shape[:2], np.nan)

    solved = []
    monkeypatch.setattr(np.linalg, "eigh", lambda m, *args: solved.append(len(m)) or real(m, *args))
    monkeypatch.setattr(rwj.spectral, "_inverse_iteration", wrong)
    handed = _solve(a, d, 0.0, convention)
    assert handed.held.all() and solved == [len(a)]
    monkeypatch.setattr(rwj.spectral, "_inverse_iteration", nothing)
    assert _stack_bits(handed) == _stack_bits(_solve(a, d, 0.0, convention))
    # and every row solved by eigh is the row with_bases gives an unheld stack
    monkeypatch.undo()
    assert _stack_bits(_solve(a, d, 0.0, convention).with_bases(convention)) == _stack_bits(handed)


@pytest.mark.parametrize("convention", [SLEM, PAPER])
def test_v_star_sign_does_not_follow_the_solver(catalog_lines, convention):
    # on a symmetric graph the largest moduli of v* tie, so a sign taken from
    # the largest-modulus entry follows rounding: the first entry of the tie is
    # made positive, and cor2's mu from the v* of inverse iteration equals mu
    # from the v* of eigh on every simple row of graph5c-graph7c
    for n, lines in catalog_lines.items():
        a, valid, connected = decode_graph6_stack(lines, n)
        assert valid.all() and connected.all()
        spec = _solve(a, a.sum(axis=-1), 0.0, convention)
        rows = np.flatnonzero(spec.admissible() & ~spec.held)
        by_eigh = spec.with_bases(convention).take(rows)
        assert len(rows) > len(lines) / 2
        assert np.array_equal(corollary2(spec.gap[rows], spec.v_star[rows]).mu,
                              corollary2(by_eigh.gap, by_eigh.v_star).mu)


# ---------------------------------------------------------------------------
# eigensolve budget: no spectrum the caller holds is solved again
# ---------------------------------------------------------------------------

def _counting(monkeypatch, name):
    """Matrices each call of ``numpy.linalg.<name>`` receives, in call order."""
    counts = []
    real = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        counts.append(int(np.prod(np.shape(a)[:-2])))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return counts


@pytest.fixture
def eigh_matrices(monkeypatch):
    """Matrices each ``numpy.linalg.eigh`` call receives, in call order."""
    return _counting(monkeypatch, "eigh")


@pytest.fixture
def eigvalsh_matrices(monkeypatch):
    """Matrices each ``numpy.linalg.eigvalsh`` call receives, in call order."""
    return _counting(monkeypatch, "eigvalsh")


def test_analyze_graph_eigensolves_on_a_simple_level(eigh_matrices, eigvalsh_matrices):
    # alpha = 0 only, by eigvalsh: the vector of a simple level comes from
    # inverse iteration with a residual certificate, its derivative is the entry
    # of its 1 x 1 reduced pencil, its check a stencil on a quadratic form, and
    # its kept branch is proven from the alpha = 0 spectrum, all with no eigh
    from rwj import analyze_graph, parse_graph6

    record = analyze_graph(parse_graph6(b"D^{"), "slem")
    assert not record.degenerate and record.classification == "IMPROVES"
    assert eigh_matrices == []
    assert eigvalsh_matrices == [1]


def test_sweep_confirms_eigensolves(eigh_matrices, det_zero_pair):
    # one grid of 0 and four positive rates in one eigh, which the branches of a
    # tied level share; the alpha = 0 spectrum solves by eigh only a level of
    # several eigenvalues, here the tied one
    from rwj import classify_small_alpha, sweep_confirms

    for g, conv, branches in ((det_zero_pair, "slem", 1), (generate("path", n=4), "paper", 2)):
        r = classify_small_alpha(g, conv)
        assert len(r.branch_vectors([0])[0]) == branches
        eigh_matrices.clear()
        assert sweep_confirms(g, r)
        assert eigh_matrices == ([5] if branches == 1 else [1, 5])


@pytest.mark.parametrize("steps", [1, 5])
def test_cli_sweep_eigensolves(eigh_matrices, data_dir, capsys, steps):
    # one spectrum per grid point of a linear grid, which includes alpha = 0
    assert main(["sweep", "--input", str(data_dir / "two_node.el"), "--alpha-max", "1",
                 "--steps", str(steps)]) == 0
    capsys.readouterr()
    assert sum(eigh_matrices) == steps


@pytest.mark.parametrize("eps, tracked", [(None, False), (1e-7, True), (1e-3, False)])
def test_cli_analyze_eigensolves(eigh_matrices, eigvalsh_matrices, tmp_path, capsys, eps, tracked):
    # the verdict takes eigvalsh at alpha = 0 and alpha_bar one eigvalsh per grid
    # point; the printed fd= is the Hellmann-Feynman stencil at --h, which
    # solves nothing: the ER n = 400 graph and C5 with one edge weighted
    # 1 + eps = 1 + 1e-3 solve no matrix by eigh, as the verdict core proves
    # their branch kept; at eps = 1e-7 the core tracks it at 0, s/2 and s,
    # s = FD_STEP * d_min, in one eigh of three matrices
    if eps is None:
        g = generate("er", seed=0, n=400, p=0.05)
    else:
        g = WeightedGraph(5, ((0, 1, 1.0 + eps), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0)))
    path = tmp_path / "g.el"
    path.write_text(write_edgelist(g))
    assert main(["analyze", "--input", str(path), "--epsilon", "0.01", "--csv", str(tmp_path / "row.csv")]) == 0
    text = capsys.readouterr().out
    assert eigh_matrices == ([3] if tracked else [])
    assert eigvalsh_matrices == [1, 1]
    a = g.adjacency()[None]
    d = a.sum(axis=-1)
    spec = _solve(a, d, 0.0, PAPER)
    assert _branch_kept(d, spec, spec.level.sum(axis=-1) == 1, FD_STEP * d.min(axis=-1))[0] != tracked
    v = classify_small_alpha(g, "paper")
    (fd,), _ = _hellmann_feynman(a, d, np.array([FD_STEP]), v.vector, v.lambda_first)
    assert f" fd={format(fd, '.12g')} " in text
