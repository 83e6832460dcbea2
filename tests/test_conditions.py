"""The sufficient-condition ladder and the Rayleigh minimum behind it."""

import numpy as np
import pytest
from hypothesis import given, settings

from rwj import (
    build_transition,
    corollary1,
    corollary2,
    corollary4,
    degree_stats,
    full_report,
    generate,
    nand_s_check,
    parse_graph6,
    rayleigh_minimum,
    spectrum,
    theorem2,
)
from rwj.conditions import NANDS_TIE, Ladder
from rwj.errors import ConventionError
from rwj.search import _decide_one
from rwj.spectral import normalize_convention

from conftest import connected_weighted, random_connected_weighted, two_node


def test_corollary1_examples():
    assert not corollary1(0.05, 30).holds
    assert corollary1(0.01, 30).holds
    assert not corollary1(1.0 / 30.0, 30).holds  # strict inequality at the boundary
    assert corollary1(0.05, 30).threshold == pytest.approx(1.0 / 30.0)


def test_corollary2_examples():
    r = corollary2(0.3, np.array([1.0, 1.0, -1.0, -1.0]))
    assert r.mu == pytest.approx(0.5) and r.threshold == pytest.approx(0.5) and r.holds
    r = corollary2(0.3, np.array([3.0, -1.0, -1.0, -1.0]))
    assert r.mu == pytest.approx(0.75) and r.threshold == pytest.approx(0.25)
    r = corollary2(0.3, np.array([1.0, 0.0, -1.0]))
    assert r.mu == pytest.approx(1.0 / 3.0) and r.threshold == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        corollary2(0.3, np.zeros(4))


def test_theorem2_thresholds(p3):
    stats = degree_stats(p3)
    assert theorem2(0.5, stats, "sharp").threshold == pytest.approx(8.0 / 9.0)
    assert theorem2(0.5, stats, "paper").threshold == pytest.approx(32.0 / 9.0)
    # divergence between the two constants
    assert not theorem2(0.9, stats, "sharp").holds
    assert theorem2(0.9, stats, "paper").holds
    regular = degree_stats(generate("complete", n=5))
    assert theorem2(0.99, regular, "sharp").threshold == pytest.approx(1.0)
    with pytest.raises(ValueError):
        theorem2(0.5, stats, "loose")


def test_corollary4_thresholds(p3):
    stats = degree_stats(p3)
    assert corollary4(0.5, stats, "sharp").threshold == pytest.approx(2.0 / 3.0)
    assert corollary4(0.5, stats, "paper").threshold == pytest.approx(8.0 / 3.0)
    regular = degree_stats(generate("cycle", n=6))
    assert corollary4(0.5, regular, "sharp").threshold == pytest.approx(1.0)


@given(connected_weighted(max_n=8))
@settings(max_examples=40)
def test_threshold_algebra_and_chain(g):
    stats = degree_stats(g)
    # thresholds are snr*c and (d_mean/d_max)*c exactly
    assert theorem2(0.1, stats, "paper").threshold == pytest.approx(4.0 * stats.snr, rel=1e-14)
    assert corollary4(0.1, stats, "sharp").threshold == pytest.approx(
        stats.d_mean / stats.d_max, rel=1e-14
    )
    # cor4's threshold never exceeds thm2's, so cor4 implies thm2 at equal constants
    assert stats.d_mean / stats.d_max <= stats.snr + 1e-14
    for gamma in (0.01, 0.3, 0.9):
        if corollary4(gamma, stats, "sharp").holds:
            assert theorem2(gamma, stats, "sharp").holds


# ---------------------------------------------------------------------------
# Rayleigh minimum
# ---------------------------------------------------------------------------

def test_rayleigh_minimum_path3(p3):
    stats = degree_stats(p3)
    value, f = rayleigh_minimum(stats)
    assert value == pytest.approx(8.0 / 9.0, rel=1e-14)
    assert np.abs(f) == pytest.approx(np.full(3, 1.0 / np.sqrt(3.0)), rel=1e-12)
    _assert_feasible_and_attains(stats, value, f)


def test_rayleigh_minimum_regular():
    stats = degree_stats(generate("complete", n=4))
    value, f = rayleigh_minimum(stats)
    assert value == pytest.approx(1.0, rel=1e-14)
    _assert_feasible_and_attains(stats, value, f)


def _rayleigh(f, n):
    return (n * float(f @ f) - float(f.sum()) ** 2) / (n * float(f @ f))


def _assert_feasible_and_attains(stats, value, f):
    n = len(stats.d)
    assert abs(float(f @ f) - 1.0) <= 1e-12
    assert abs(float(f @ stats.d)) <= 1e-12 * float(np.linalg.norm(stats.d))
    assert _rayleigh(f, n) == pytest.approx(value, abs=1e-12)


def test_rayleigh_minimum_monte_carlo_floor():
    rng = np.random.default_rng(17)
    for i in range(3):
        g = random_connected_weighted(rng, int(rng.integers(4, 12)), self_loops=True)
        stats = degree_stats(g)
        value, f = rayleigh_minimum(stats)
        _assert_feasible_and_attains(stats, value, f)
        n = g.n
        samples = rng.normal(size=(10_000, n))
        d = stats.d
        samples -= np.outer(samples @ d, d) / float(d @ d)
        norms = np.linalg.norm(samples, axis=1)
        samples = samples[norms > 1e-8] / norms[norms > 1e-8, None]
        values = (n - samples.sum(axis=1) ** 2) / n
        assert values.min() >= value - 1e-10


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def _nand_s(g, convention="slem"):
    """NandS with its Laplacian form, from the alpha = 0 spectrum of ``g``."""
    s = spectrum(build_transition(g, 0.0), convention)
    return nand_s_check(s.lambda_star, s.v_star, g.n)


def test_full_report_k4(k4):
    rep = full_report(k4, "slem")
    assert not rep.positive[0]  # lambda_star < 0
    assert spectrum(build_transition(k4, 0.0), "slem").lambda_star == pytest.approx(-1.0 / 3.0)
    assert rep.thm2_sharp.threshold[0] == pytest.approx(1.0)
    assert rep.cor4_sharp.threshold[0] == pytest.approx(1.0)
    assert rep.thm2_sharp.holds[0] and rep.cor4_sharp.holds[0]  # gamma = 2/3 < 1
    assert not rep.consistency[0]


def test_full_report_regular_two_node_consistent():
    g = two_node(3.0, 1.0, 3.0)
    rep = full_report(g, "slem")
    assert rep.positive[0] and _nand_s(g).holds
    assert rep.thm2_sharp.threshold[0] == pytest.approx(1.0)
    assert rep.thm2_sharp.holds[0]  # gamma = 0.5 < 1
    assert not rep.consistency[0]


def test_full_report_near_singular_all_sharp_false():
    g = two_node(4.0, 2.0, 1.05)
    rep = full_report(g, "slem")
    assert rep.positive[0] and not _nand_s(g).holds
    assert not rep.cor1.holds[0]
    assert not rep.cor2.holds[0]
    assert not rep.thm2_sharp.holds[0]
    assert not rep.cor4_sharp.holds[0]
    assert not rep.consistency[0]


@pytest.mark.parametrize("a11,a22", [(8, 28), (28, 8)])
def test_full_report_nand_s_rounding_tie_is_no_violation(a11, a22):
    # grid points of the 61-point linspace(0, 5): lhs and rhs of NandS are both
    # 0.1 and differ by 2.8e-17, so NandS fails only by rounding; the point is
    # the equality point of the sharp Theorem 2, gap = threshold = 0.9, a tie
    # that does not meet the condition
    grid = np.linspace(0.0, 5.0, 61)
    g = two_node(float(grid[a11]), 1.0, float(grid[a22]))
    rep = full_report(g, "slem")
    nand_s = _nand_s(g)
    gap = spectrum(build_transition(g, 0.0), "slem").gap
    assert rep.simple[0] and rep.thm2_paper.holds[0]
    assert abs(rep.thm2_sharp.threshold[0] - gap) <= NANDS_TIE * gap and not rep.thm2_sharp.holds[0]
    # NandS is a rounding-level tie too: the rounding of v* makes it fail at
    # [28-8] (lhs - rhs = 2.8e-17) and hold at [8-28] (-1.4e-17)
    assert abs(nand_s.lhs - nand_s.rhs) <= 1e-15 * nand_s.rhs
    assert nand_s.holds == ((a11, a22) == (8, 28))
    assert rep.consistency[0] == ()
    assert not rep.paper_constant_witness[0]


@pytest.mark.parametrize("convention", ["slem", "paper"])
def test_ladder_condition_at_a_rounding_tie_does_not_hold(convention):
    # lambda_star = -0.5 exactly, gap 0.5 and a cor2 threshold of 4/8: the tie
    # is decided by the rule, not by the last bit of lambda_star
    for line in (b"Gf~d~k", b"GltjNs", b"GfzMd{"):
        g = parse_graph6(line)
        rep = full_report(g, convention)
        s = spectrum(build_transition(g, 0.0), convention)
        assert abs(s.lambda_star + 0.5) <= 1e-15 and rep.cor2.threshold[0] == 0.5
        assert not rep.cor2.holds[0], line
    # the scalar forms: a tie within NANDS_TIE does not hold, a gap below it by more does
    stats = degree_stats(two_node(2.0 / 3.0, 1.0, 7.0 / 3.0))
    for gap, holds in ((0.9, False), (0.9 * (1 - 2e-12), True), (0.9 * (1 - 5e-13), False)):
        assert theorem2(gap, stats, "sharp").holds is holds
    assert not corollary1(0.25, 4).holds and corollary1(0.25 - 1e-9, 4).holds
    assert not corollary4(stats.d_mean / stats.d_max, stats, "sharp").holds


def _ladder_bits(ladder):
    """Every field of a ladder, each array as (dtype, shape, bytes), so that equality is bit for bit."""
    def bits(x):
        if isinstance(x, list):
            return x
        if isinstance(x, (float, int, np.generic, np.ndarray)):
            x = np.asarray(x)
            return x.dtype.str, x.shape, x.tobytes()
        return {k: bits(v) for k, v in vars(x).items()}
    return {name: bits(x) for name, x in zip(Ladder._fields, ladder)}


@pytest.mark.parametrize("convention", ["slem", "paper"])
def test_full_report_is_the_ladder_of_decide_one(catalog_lines, convention):
    rng = np.random.default_rng(41)
    graphs = [parse_graph6(line) for n in (5, 6) for line in catalog_lines[n]]
    graphs += [random_connected_weighted(rng, int(rng.integers(2, 12)), self_loops=True) for _ in range(60)]
    assert sum(g.has_self_loops() for g in graphs) >= 20
    for g in graphs:
        try:
            expected = _ladder_bits(_decide_one(g, normalize_convention(convention)).ladder)
        except ConventionError:  # K2 under paper: neither has a ladder
            with pytest.raises(ConventionError):
                full_report(g, convention)
            continue
        assert _ladder_bits(full_report(g, convention)) == expected, g


def test_rayleigh_floor_for_v_star():
    rng = np.random.default_rng(29)
    for i in range(15):
        g = random_connected_weighted(rng, int(rng.integers(3, 12)), self_loops=True)
        stats = degree_stats(g)
        s = spectrum(build_transition(g, 0.0), "slem")
        floor, _ = rayleigh_minimum(stats)
        assert _rayleigh(s.v_star, g.n) >= floor - 1e-10


def test_implication_soundness_random():
    rng = np.random.default_rng(37)
    positives = 0
    for i in range(100):
        g = random_connected_weighted(rng, int(rng.integers(3, 14)), extra=0.15, self_loops=True)
        rep = full_report(g, "slem")
        assert not rep.consistency[0]
        if rep.positive[0] and rep.simple[0]:
            positives += 1
    assert positives >= 10
