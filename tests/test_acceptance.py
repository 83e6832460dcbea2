"""Acceptance gate: one test per criterion, each printing a PASS line on success.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a test reaching its final print has passed every assertion at the
stated tolerance.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from rwj import (
    WORSENS,
    build_transition,
    classify_small_alpha,
    degree_stats,
    dobrushin,
    dobrushin_bound,
    finite_difference_derivative,
    generate,
    nand_s_check,
    parse_edgelist,
    parse_graph6,
    rayleigh_minimum,
    spectrum,
    write_edgelist,
    write_graph6,
)
from rwj.cli import main as cli_main

from conftest import DET_ZERO_PAIR_TEXT, random_connected_weighted
from oracles import lambda_first_order, split_form_transition

DATA = Path(__file__).resolve().parent.parent / "data"
CATALOG_SIZES = {5: 21, 6: 112, 7: 853}


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE criterion {criterion}: PASS - {text}")


# ---------------------------------------------------------------------------
# shared graph sets (session scoped; criterion 8 revisits all of them)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def catalog_graphs():
    out = {}
    for n, expected in CATALOG_SIZES.items():
        lines = [l for l in (DATA / f"graph{n}c.g6").read_bytes().splitlines() if l.strip()]
        assert len(lines) == expected, f"catalog for n={n} has {len(lines)} lines"
        out[n] = [(line, parse_graph6(line)) for line in lines]
    return out


@pytest.fixture(scope="session")
def catalog_spectra(catalog_graphs):
    out = {}
    for n, pairs in catalog_graphs.items():
        out[n] = [(g, spectrum(build_transition(g, 0.0), "slem")) for _line, g in pairs]
    return out


@pytest.fixture(scope="session")
def er200():
    """200 seeded ER graphs, n in [5, 30], p = 0.3, simple lambda_star (slem)."""
    rng = np.random.default_rng(42)
    graphs = []
    i = 0
    while len(graphs) < 200:
        n = int(rng.integers(5, 31))
        g = generate("er", n=n, p=0.3, seed=1000 + i)
        i += 1
        s = spectrum(build_transition(g, 0.0), "slem")
        if s.degenerate_multiplicity == 1 and not s.tied_sign:
            graphs.append((g, s))
    return graphs


@pytest.fixture(scope="session")
def er100():
    rng = np.random.default_rng(606)
    return [
        generate("er", n=int(rng.integers(5, 31)), p=0.3, seed=2000 + i) for i in range(100)
    ]


@pytest.fixture(scope="session")
def er500_positive():
    """500 seeded random graphs with simple, positive lambda_star (slem)."""
    rng = np.random.default_rng(77)
    kept = []
    i = 0
    while len(kept) < 500:
        n = int(rng.integers(5, 31))
        g = generate("er", n=n, p=0.3, seed=3000 + i)
        i += 1
        s = spectrum(build_transition(g, 0.0), "slem")
        if s.lambda_star > 1e-9 and s.degenerate_multiplicity == 1 and not s.tied_sign:
            kept.append((g, s))
    return kept


@pytest.fixture(scope="session")
def det_zero_pair_graph():
    return parse_edgelist(DET_ZERO_PAIR_TEXT)


# ---------------------------------------------------------------------------
# criterion 1: the weighted counterexample reproduces end to end
# ---------------------------------------------------------------------------

def test_criterion_1_weighted_counterexample(det_zero_pair_graph):
    started = time.perf_counter()
    s = spectrum(build_transition(det_zero_pair_graph, 0.0), "paper")
    assert abs(s.lambda_star) <= 1e-12

    r = classify_small_alpha(det_zero_pair_graph, "paper")
    assert r.classification[0] == WORSENS
    assert r.lambda_first[0] == pytest.approx(1.0 / 36.0, rel=1e-12)
    assert abs(r.lambda_first[0] - r.fd_estimate[0]) <= 1e-6

    gap0 = spectrum(build_transition(det_zero_pair_graph, 0.0), "paper").gap
    gap1 = spectrum(build_transition(det_zero_pair_graph, 0.01), "paper").gap
    assert gap1 < gap0

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"lambda_first=1/36, WORSENS, gap(0.01)={gap1:.9f} < {gap0:.1f}, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 2: exhaustive catalogs are counterexample free
# ---------------------------------------------------------------------------

def test_criterion_2_exhaustive_catalogs(capsys):
    started = time.perf_counter()
    totals = {}
    for n, expected in CATALOG_SIZES.items():
        rc = cli_main(["scan", "--catalog", str(DATA / f"graph{n}c.g6"), "--convention", "slem"])
        err = capsys.readouterr().err
        assert rc == 0, f"scan of n={n} catalog exited {rc}"
        assert f"total: {expected}" in err
        assert "counterexamples: 0" in err
        totals[n] = expected
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, f"0 counterexamples over {totals} connected graphs in {elapsed:.2f}s serial")


# ---------------------------------------------------------------------------
# criterion 3: regular graphs reduce to the restart-walk scaling
# ---------------------------------------------------------------------------

def test_criterion_3_regular_scaling():
    for g in (generate("cycle", n=5), generate("complete", n=4)):
        d = float(g.degrees()[0])
        base = np.sort(spectrum(build_transition(g, 0.0), "slem").eigenvalues[1:])
        for alpha in (0.5, 1.0, 2.0):
            shifted = np.sort(spectrum(build_transition(g, alpha), "slem").eigenvalues[1:])
            err = np.abs(shifted - d / (d + alpha) * base).max()
            assert err <= 1e-9, f"{g.name} alpha={alpha}: {err}"
    report(3, "C5 and K4 non-unit spectra scale by d/(d+alpha) at alpha in {0.5, 1, 2} (tol 1e-9)")


# ---------------------------------------------------------------------------
# criterion 4: the derivative formula against the finite-difference oracle
# ---------------------------------------------------------------------------

def test_criterion_4_derivative_vs_oracle(er200):
    rel_errs = []
    for g, s in er200:
        lf = lambda_first_order(g, s.lambda_star, s.v_star)
        fd = finite_difference_derivative(g, s.lambda_star, s.v_star, h=1e-5)
        rel_errs.append(abs(lf - fd) / max(1.0, abs(lf)))
    worst = max(rel_errs)
    assert worst <= 1e-3

    # convergence order: the one-sided stencil is second order; at these h the
    # truncation term is measurable only on graphs with enough branch
    # curvature, so the criterion asks for 10 witnesses among the 200
    hs = np.array([1e-4, 5e-5, 2.5e-5])
    design = np.vstack([np.log(hs), np.ones(3)]).T
    witnesses = 0
    for g, s in er200:
        lf = lambda_first_order(g, s.lambda_star, s.v_star)
        errs = np.array(
            [abs(finite_difference_derivative(g, s.lambda_star, s.v_star, h=h) - lf) for h in hs]
        )
        if (errs == 0).any():
            continue
        slope = np.linalg.lstsq(design, np.log(errs), rcond=None)[0][0]
        if slope >= 1.5:
            witnesses += 1
    assert witnesses >= 10
    report(4, f"max rel err {worst:.2e} <= 1e-3 on 200 graphs; "
              f"{witnesses} graphs show convergence slope >= 1.5")


# ---------------------------------------------------------------------------
# criterion 5: negative lambda_star always rises (negative branches provably rise)
# ---------------------------------------------------------------------------

def test_criterion_5_case_one_everywhere(catalog_spectra, er200):
    checked = 0
    for n, pairs in catalog_spectra.items():
        for g, s in pairs:
            if s.lambda_star < -1e-9 and s.degenerate_multiplicity == 1 and not s.tied_sign:
                assert lambda_first_order(g, s.lambda_star, s.v_star) > 0
                checked += 1
    for g, s in er200:
        if s.lambda_star < -1e-9:
            assert lambda_first_order(g, s.lambda_star, s.v_star) > 0
            checked += 1
    assert checked > 100
    report(5, f"lambda_first > 0 on all {checked} simple negative-lambda graphs, 0 violations")


# ---------------------------------------------------------------------------
# criterion 6: the Dobrushin chain
# ---------------------------------------------------------------------------

def test_criterion_6_dobrushin_chain(er100):
    checks = 0
    for g in er100:
        d_max = float(g.degrees().max())
        for alpha in (0.1, 1.0, 10.0):
            ts = build_transition(g, alpha)
            gap = spectrum(ts, "slem").gap
            delta = dobrushin(ts)
            bound = dobrushin_bound(alpha, d_max)
            assert gap - (1.0 - delta) >= -1e-12
            assert (1.0 - delta) - bound >= -1e-12
            checks += 1
    assert checks == 300

    k2 = generate("complete", n=2)
    for alpha in (0.1, 1.0, 10.0):
        delta = dobrushin(build_transition(k2, alpha))
        assert delta == pytest.approx(1.0 / (1.0 + alpha), rel=1e-14, abs=0)
    report(6, "gap >= 1-delta >= alpha/(d_max+alpha) on 100 ER x 3 alphas; K2 delta exact")


# ---------------------------------------------------------------------------
# criterion 7: the condition ladder is sound with sharp constants
# ---------------------------------------------------------------------------

def _ladder_checks(g, s):
    stats = degree_stats(g)
    gamma = s.gap
    v = s.v_star
    nand = nand_s_check(s.lambda_star, v, g.n)
    band = 1e-12 * float(np.abs(v).max())
    neg, pos = int((v < -band).sum()), int((v > band).sum())
    cor1 = gamma < 1.0 / g.n
    cor2 = gamma < min(neg, pos) / g.n
    thm2 = gamma < stats.snr
    cor4 = gamma < stats.d_mean / stats.d_max
    assert not (cor1 and not nand.holds)
    assert not (cor2 and not nand.holds)
    assert not (thm2 and not nand.holds)
    assert not (cor4 and not thm2)


def _rayleigh_floor(g, s):
    stats = degree_stats(g)
    v = s.v_star
    value = (g.n * float(v @ v) - float(v.sum()) ** 2) / (g.n * float(v @ v))
    assert value >= stats.snr - 1e-10


def test_criterion_7_condition_ladder(catalog_spectra, er500_positive):
    positives = 0
    floors = 0
    for n, pairs in catalog_spectra.items():
        for g, s in pairs:
            _rayleigh_floor(g, s)
            floors += 1
            if s.lambda_star > 1e-9 and s.degenerate_multiplicity == 1 and not s.tied_sign:
                _ladder_checks(g, s)
                positives += 1
    for g, s in er500_positive:
        _rayleigh_floor(g, s)
        floors += 1
        _ladder_checks(g, s)
        positives += 1
    assert positives >= 500

    # the explicit minimiser attains the closed form and beats random sampling
    rng = np.random.default_rng(99)
    sampled = 0
    for g in (generate("path", n=3), er500_positive[0][0], er500_positive[1][0]):
        stats = degree_stats(g)
        value, f = rayleigh_minimum(stats)
        assert abs(float(f @ f) - 1.0) <= 1e-12
        assert abs(float(f @ stats.d)) <= 1e-12 * float(np.linalg.norm(stats.d))
        attained = (g.n * float(f @ f) - float(f.sum()) ** 2) / (g.n * float(f @ f))
        assert abs(attained - value) <= 1e-12
        draws = rng.normal(size=(10_000, g.n))
        draws -= np.outer(draws @ stats.d, stats.d) / float(stats.d @ stats.d)
        norms = np.linalg.norm(draws, axis=1)
        draws = draws[norms > 1e-8] / norms[norms > 1e-8, None]
        values = (g.n - draws.sum(axis=1) ** 2) / g.n
        assert values.min() >= value - 1e-10
        sampled += len(values)
    assert sampled >= 29_000
    report(7, f"0 implication violations on {positives} positive-lambda graphs; "
              f"Rayleigh floor held {floors} times; minimiser beat {sampled} samples")


# ---------------------------------------------------------------------------
# criterion 8: transition-system invariants on every touched graph
# ---------------------------------------------------------------------------

def _transition_invariants(g, alpha):
    ts = build_transition(g, alpha)
    assert np.abs(ts.P.sum(axis=1) - 1.0).max() <= 1e-12
    balance = ts.pi[:, None] * ts.P
    assert np.abs(balance - balance.T).max() <= 1e-12
    d = g.degrees()
    assert np.abs(ts.pi - (d + alpha) / (d.sum() + alpha * g.n)).max() <= 1e-12
    assert np.abs(ts.P - split_form_transition(g, alpha)).max() <= 1e-14


def test_criterion_8_transition_invariants(catalog_graphs, er200, er100, er500_positive,
                                           det_zero_pair_graph):
    touched = [det_zero_pair_graph, generate("cycle", n=5), generate("complete", n=4),
               generate("complete", n=2)]
    touched += [g for pairs in catalog_graphs.values() for _line, g in pairs]
    touched += [g for g, _s in er200]
    touched += list(er100)
    touched += [g for g, _s in er500_positive]
    count = 0
    for g in touched:
        for alpha in (0.0, 0.5, 10.0):
            _transition_invariants(g, alpha)
            count += 1
    for g in er100:
        for alpha in (0.1, 1.0, 10.0):
            _transition_invariants(g, alpha)
            count += 1
    report(8, f"row sums, detailed balance, stationary law, split form held in {count} systems")


# ---------------------------------------------------------------------------
# criterion 9: format fidelity
# ---------------------------------------------------------------------------

def test_criterion_9_format_fidelity(catalog_graphs):
    lines = 0
    for n, pairs in catalog_graphs.items():
        for line, g in pairs:
            assert write_graph6(g) == line
            lines += 1
    assert lines == sum(CATALOG_SIZES.values())

    rng = np.random.default_rng(123)
    for _ in range(100):
        g = random_connected_weighted(rng, int(rng.integers(2, 16)), self_loops=True)
        assert parse_edgelist(write_edgelist(g)) == g
    report(9, f"graph6 byte-identical on {lines} catalog lines; 100 weighted edge-list round trips")
