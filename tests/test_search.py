"""Two-vertex closed forms, catalog scanning, random-model scanning."""

import dataclasses
import hashlib
import math
import re
import tracemalloc
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rwj.perturb
import rwj.search
import rwj.spectral
from rwj import (
    ConventionError,
    DisconnectedGraphError,
    GraphFormatError,
    NumericalError,
    WORSENS,
    TwoNodeParams,
    WeightedGraph,
    analyze_graph,
    build_transition,
    generate,
    parse_graph6,
    scan_catalog,
    scan_random,
    spectrum,
    two_node_closed_form,
    two_node_grid_search,
    write_graph6,
)
from rwj.cli import records_to_csv, summary_text
from rwj.graphs import decode_graph6_stack, read_graph6_lines
from rwj.search import _decide
from rwj.spectral import normalize_convention

from conftest import graph6_lines


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def v_star(forms):
    """v_star = (1, -r) of the one point of the closed-form columns ``forms``: the vector of its one branch."""
    (vector,) = forms.branch_vectors([0])[0]
    return vector


@pytest.mark.parametrize(
    "weights,lam,vec",
    [
        ((4.0, 2.0, 1.0), 0.0, (1.0, -2.0)),
        ((1.0, 2.0, 3.0), -1.0 / 15.0, (1.0, -0.6)),
        ((3.0, 1.0, 3.0), 0.5, (1.0, -1.0)),
    ],
)
def test_two_node_closed_form_examples(weights, lam, vec):
    cf = two_node_closed_form(TwoNodeParams(*weights))
    assert cf.lambda_star[0] == pytest.approx(lam, abs=1e-14)
    assert v_star(cf) == pytest.approx(vec, abs=1e-14)


def test_two_node_numerator_examples():
    cf = two_node_closed_form(TwoNodeParams(4.0, 2.0, 1.0))
    assert cf.numerator[0] == pytest.approx(0.5, rel=1e-14)
    assert cf.lambda_first[0] == pytest.approx(1.0 / 36.0, rel=1e-14)
    cf = two_node_closed_form(TwoNodeParams(1.0, 2.0, 3.0))
    assert cf.numerator[0] == pytest.approx(128.0 / 750.0, rel=1e-14)


def test_two_node_rejects_disconnected():
    with pytest.raises(GraphFormatError):
        TwoNodeParams(1.0, 0.0, 1.0)


def test_two_node_closed_form_vs_spectral_engine():
    rng = np.random.default_rng(101)
    direct_numerators = 0
    for _ in range(10_000):
        a11, a22 = rng.uniform(0.0, 5.0, size=2)
        a12 = rng.uniform(0.05, 5.0)
        p = TwoNodeParams(float(a11), float(a12), float(a22))
        cf = two_node_closed_form(p)
        lam, v = cf.lambda_star[0], v_star(cf)
        summary = spectrum(build_transition(p.graph(), 0.0), "slem")
        assert abs(lam - summary.lambda_star) <= 1e-10 * max(1.0, abs(lam))
        # eigenvector agreement up to scale
        v_cf = v / np.linalg.norm(v)
        cosine = abs(float(v_cf @ summary.v_star))
        assert cosine >= 1.0 - 1e-10
        # the explicit numerator expansion equals the direct quadratic form
        direct = 0.5 * v.sum() ** 2 - lam * float(v @ v)
        assert cf.numerator[0] == pytest.approx(direct, rel=1e-11, abs=1e-12)
        direct_numerators += 1
    assert direct_numerators == 10_000


# ---------------------------------------------------------------------------
# two-node grid search regions
# ---------------------------------------------------------------------------

def test_grid_search_finds_the_singular_region():
    records = two_node_grid_search([4.0], [2.0], [1.0])
    assert len(records) == 1
    assert records[0].classification == WORSENS
    assert records[0].sweep_confirmed
    assert records[0].lambda_first == pytest.approx(1.0 / 36.0, rel=1e-12)


def test_grid_search_worsens_only_near_singular_asymmetric():
    vals = [0.5, 1.0, 2.0, 4.0]
    records = two_node_grid_search(vals, vals, vals)
    assert records  # the singular asymmetric corner exists on this grid
    for r in records:
        a11, a12, a22 = (float(x) for x in r.id.split("(")[1].rstrip(")").split(","))
        det = a11 * a22 - a12 * a12
        lam = det / ((a11 + a12) * (a22 + a12))
        assert a11 != a22
        assert lam >= -1e-12  # never on the strictly negative side
        assert r.sweep_confirmed


def test_grid_search_rows_carry_scan_flags():
    grid = (np.linspace(0, 5, 21), np.linspace(0.5, 3, 6), np.linspace(0, 5, 21))
    records = two_node_grid_search(*grid)
    assert len(records) == 172
    assert sum(r.paper_constant_witness for r in records) == 150
    assert sum(r.sweep_confirmed is True for r in records) == 170
    assert sum(r.sweep_confirmed is False for r in records) == 2
    # every column except flags is the closed-form row, apart from the nand_s
    # of two-node(3.5,1.5,1): a rounding-level NandS tie whose lambda'(0) is 0
    csv = records_to_csv(records)
    stripped = "".join(line.rsplit(",", 1)[0] + "\n" for line in csv.splitlines())
    assert hashlib.sha256(stripped.encode()).hexdigest() == (
        "bce9b0681c8b4432af9f1325ea3e32f952af87bc8c342a35fa1e01467a4d54c6"
    )
    # the flags too, sweep flags included
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "49a5569403ac25be1445cf3bb5b4a775d9048be659d148d88adc8e4f1f5c986a"
    )
    # the bytes with the quotes that the ids, which hold commas, take away
    assert hashlib.sha256(stripped.replace('"', "").encode()).hexdigest() == (
        "a6a45888f912a7b6b2d80a947933e849c1e0d3dd26c2243cd9e4f9f261cf736c"
    )
    assert hashlib.sha256(csv.replace('"', "").encode()).hexdigest() == (
        "5eb1ee11fb983a0ee10447b91ccc018b40cddccf26019dfaba152d89781da9aa"
    )


def test_grid_search_benchmark_grid_pinned():
    # the 61 x 16 x 61 grid of the benchmark's two-node workload, every column
    records = two_node_grid_search(np.linspace(0, 5, 61), np.linspace(0.5, 3, 16), np.linspace(0, 5, 61))
    assert len(records) == 4012
    assert sum(r.sweep_confirmed is True for r in records) == 3992
    assert sum(r.sweep_confirmed is False for r in records) == 20
    csv = records_to_csv(records)
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "9e1901760d81bd6a16d8937ae250ea9896c4a7fa5c6357f51da7ab4a1a00465f"
    )
    # and without the quotes around its ids
    assert hashlib.sha256(csv.replace('"', "").encode()).hexdigest() == (
        "871bdde9c3f3bd39b4f4e5736658a22fd24cb76959da1c00259a202e3bf0ef9a"
    )


@pytest.mark.parametrize("stack_size", [1, 7, rwj.search.STACK_SIZE])
def test_grid_search_eigensolves_per_stack(monkeypatch, stack_size):
    # each stack of WORSENS points makes one eigvalsh at alpha = 0 and one eigh
    # for the sweep, which solves alpha = 0 with its other rates, and its rows
    # are the ones any other stacking gives
    calls = {"eigh": [], "eigvalsh": []}
    for name, real in ((name, getattr(np.linalg, name)) for name in calls):
        def counting(a, *args, _calls=calls[name], _real=real, **kwargs):
            _calls.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    monkeypatch.setattr(rwj.search, "STACK_SIZE", stack_size)
    records = two_node_grid_search(np.linspace(0, 5, 21), np.linspace(0.5, 3, 6), np.linspace(0, 5, 21))
    assert len(records) == 172
    assert len(calls["eigh"]) == len(calls["eigvalsh"]) == math.ceil(len(records) / stack_size)
    assert all(shape[1:] == (5, 2, 2) for shape in calls["eigh"])
    assert hashlib.sha256(records_to_csv(records).encode()).hexdigest() == (
        "49a5569403ac25be1445cf3bb5b4a775d9048be659d148d88adc8e4f1f5c986a"
    )


def test_two_node_closed_form_verdict_matches_analyze_graph():
    checked = 0
    for a11 in np.linspace(0, 5, 11):
        for a12 in np.linspace(0.5, 3, 4):
            for a22 in np.linspace(0, 5, 11):
                p = TwoNodeParams(float(a11), float(a12), float(a22))
                cf = two_node_closed_form(p)
                if abs(cf.lambda_star[0]) > 1e-9 and abs(cf.lambda_first[0]) <= 1e-12:
                    continue  # the sign of a noise-level derivative is not determined
                assert cf.classification[0] == analyze_graph(p.graph(), "slem").classification, p
                checked += 1
    assert checked == 484


def test_grid_slabs_equal_the_closed_form_of_each_point(monkeypatch):
    # every slab the grid evaluates equals two_node_closed_form on each of its
    # points, field for field and bit for bit
    slabs = []
    real = rwj.search._two_node_forms

    def recording(a11, a12, a22):
        forms = real(a11, a12, a22)
        slabs.append((a11, a12, a22, forms))
        return forms

    monkeypatch.setattr(rwj.search, "_two_node_forms", recording)
    grid = (np.linspace(0, 5, 21), np.linspace(0.5, 3, 6), np.linspace(0, 5, 21))
    two_node_grid_search(*grid)
    monkeypatch.undo()
    assert [a11 for a11, *_ in slabs] == grid[0].tolist()
    bits = lambda x: np.float64(x).view(np.uint64)
    checked = 0
    for a11, a12s, a22s, forms in slabs:
        assert a12s.shape == a22s.shape == forms.lambda_star.shape == (6, 21)
        for j, k in np.ndindex(a12s.shape):
            assert (a12s[j, k], a22s[j, k]) == (grid[1][j], grid[2][k])
            cf = two_node_closed_form(TwoNodeParams(a11, float(a12s[j, k]), float(a22s[j, k])))
            for got, want in [
                (forms.lambda_star, cf.lambda_star), (forms.r, cf.r), (forms.numerator, cf.numerator),
                (forms.lambda_first, cf.lambda_first), (forms.rate, cf.rate),
                (forms.gap_derivative, cf.gap_derivative),
            ]:
                assert bits(got[j, k]) == bits(want[0])
            assert (forms.classification[j, k], forms.stationary[j, k]) == (cf.classification[0], cf.stationary[0])
            # the one branch starts along v_star = (1, -r)
            assert bits(v_star(cf)).tolist() == bits([1.0, -forms.r[j, k]]).tolist()
            checked += 1
    assert checked == 21 * 6 * 21


def test_grid_search_makes_no_per_point_call(monkeypatch):
    def per_point(p):
        raise AssertionError(f"per-point closed form for {p}")

    monkeypatch.setattr(rwj.search, "two_node_closed_form", per_point)
    records = two_node_grid_search(np.linspace(0, 5, 21), np.linspace(0.5, 3, 6), np.linspace(0, 5, 21))
    assert hashlib.sha256(records_to_csv(records).encode()).hexdigest() == (
        "49a5569403ac25be1445cf3bb5b4a775d9048be659d148d88adc8e4f1f5c986a"
    )


def test_worsens_at_an_exactly_zero_first_order_term():
    # lambda_star = 0.1 and lambda_first is exactly 0: a rate that is not
    # negative WORSENS, and the grid keeps the point
    cf = two_node_closed_form(TwoNodeParams(1.0, 1.5, 3.5))
    assert cf.lambda_star[0] == pytest.approx(0.1, rel=1e-15)
    assert (cf.numerator[0], cf.lambda_first[0], cf.classification[0]) == (0.0, 0.0, WORSENS)
    (row,) = two_node_grid_search([1.0], [1.5], [3.5])
    assert (row.id, row.classification, row.lambda_first) == ("two-node(1,1.5,3.5)", WORSENS, 0.0)


@pytest.mark.parametrize("grid,message", [
    (([1.0], [1.0, -1.0, math.nan], [1.0]), "a12 must be > 0 for connectivity, got -1.0"),
    (([2.0, 1.0], [1.0, 3.0], [0.5, math.nan, -1.0]), "weights must be finite, got a11=2.0 a12=1.0 a22=nan"),
    (([0.0, 1.0, math.inf], [1.0], [1.0]), "weights must be finite, got a11=inf a12=1.0 a22=1.0"),
    (([1.0, 2.0, -1.0, 0.5], [1.0, -2.0], [1.0]), "a12 must be > 0 for connectivity, got -2.0"),
    (([1.0, 2.0, -1.0, 0.5], [1.0, 2.0], [1.0]), "self-loop weights must be nonnegative"),
    (([1.0, 2.0], [1.0, 2.0], [1.0, -0.5]), "self-loop weights must be nonnegative"),
])
def test_grid_search_reports_its_first_invalid_point(grid, message):
    # the first invalid point in a11, a12, a22 order raises its TwoNodeParams error
    with pytest.raises(GraphFormatError) as err:
        two_node_grid_search(*grid)
    assert str(err.value) == message


@pytest.mark.parametrize("weights", [(1e120, 1.0, 1.0), (0.0, 1e-200, 0.0), (1e200, 1.0, 0.0)])
def test_closed_forms_out_of_floating_point_range_rejected(weights):
    # a cube or square that overflows, or a product that underflows to 0/0,
    # is invalid input, never a NaN verdict or a lost branch
    name = TwoNodeParams(*weights).name
    with pytest.raises(GraphFormatError, match=rf"closed forms of {re.escape(name)} leave"):
        two_node_closed_form(TwoNodeParams(*weights))
    with pytest.raises(GraphFormatError, match=rf"closed forms of {re.escape(name)} leave"):
        two_node_grid_search(*([w] for w in weights))


def test_closed_forms_out_of_floating_point_range_name_the_first_point():
    # the slab a11 = 4 is in range; the first point of the next slab in
    # a11, a12, a22 order is named
    with pytest.raises(GraphFormatError, match=r"closed forms of two-node\(1e\+120,2,1\) leave"):
        two_node_grid_search([4.0, 1e120, 1e130], [2.0, 1.0], [1.0, 3.0])


def test_grid_search_axis_types():
    floats = ([0.0, 1.0, 2.0, 4.0], [1.0, 2.0], [0.0, 1.0, 2.0, 4.0])
    expected = records_to_csv(two_node_grid_search(*floats))
    assert expected.count("\n") > 2  # some WORSENS rows
    for axes in ([[int(x) for x in v] for v in floats], [np.array(v) for v in floats],
                 [np.array(v, dtype=int) for v in floats]):
        assert records_to_csv(two_node_grid_search(*axes)) == expected


def test_grid_search_empty_grid_rejected():
    with pytest.raises(ValueError):
        two_node_grid_search([], [1.0], [1.0])


def test_grid_search_negative_determinant_region_clean():
    # det strongly negative keeps lambda_star < 0: no worsening (Case 1)
    records = two_node_grid_search([0.1, 0.5], [2.0, 3.0], [0.1, 0.5])
    assert records == []


def test_grid_search_diagonal_regular_clean():
    records = []
    for a in (0.5, 1.0, 2.0):
        for a12 in (0.5, 1.0, 2.0):
            records.extend(two_node_grid_search([a], [a12], [a]))
    assert records == []


# ---------------------------------------------------------------------------
# catalog scanning
# ---------------------------------------------------------------------------

def test_scan_small_catalog_counts(tmp_path):
    lines = [
        write_graph6(generate("complete", n=4)),
        write_graph6(generate("cycle", n=5)),
        b"A?",          # disconnected
        b"garbage!!",   # malformed
        write_graph6(generate("path", n=3)),
    ]
    path = tmp_path / "mixed.g6"
    path.write_bytes(b"\n".join(lines) + b"\n")
    summary, records = scan_catalog(path, "slem")
    assert summary.total == 5
    assert summary.classified == 3
    assert summary.skipped == 2
    assert summary.counterexamples == 0
    assert summary.total == summary.classified + summary.skipped
    # no worsening graphs, so the records are the closest improvements
    assert {r.id for r in records} == {"C~", "Dhc", "Bg"}
    margins = [r.margin for r in records]
    assert margins == sorted(margins)


def test_scan_catalog_limit_and_topk(data_dir):
    summary, records = scan_catalog(data_dir / "graph5c.g6", "slem", limit=10, top_k=3)
    assert summary.total == 10
    assert len(summary.min_margin_records) == 3
    margins = [r.margin for r in summary.min_margin_records]
    assert margins == sorted(margins)


def test_analyze_graph_rows_byte_identical_on_bundled_catalogs(data_dir):
    # sha256 of every row of the n = 3..7 catalogs, graph by graph, slem then
    # paper; any change to a verdict, flag or printed digit changes it
    digest = hashlib.sha256()
    for n in range(3, 8):
        for line in (data_dir / f"graph{n}c.g6").read_bytes().splitlines():
            g = parse_graph6(line)
            for convention in ("slem", "paper"):
                digest.update(records_to_csv([analyze_graph(g, convention)]).encode())
    assert digest.hexdigest() == "22ad29e5fca27b97f3aff25aabb77df83727f08d9180ef4cca029261bad125df"


def test_scan_catalog_rows_byte_identical_on_bundled_catalogs(data_dir):
    # sha256 of every scan row of the n = 3..7 catalogs, slem then paper per
    # catalog, as the per-graph path alone wrote them
    digest = hashlib.sha256()
    for n in range(3, 8):
        for convention in ("slem", "paper"):
            _, records = scan_catalog(data_dir / f"graph{n}c.g6", convention, top_k=10**9)
            digest.update(records_to_csv(records).encode())
    assert digest.hexdigest() == "c21f0903a3240170dafbfa392c6207f03ffa6f38ec27ba8805aad3326bd229a8"


def _counters(s):
    return (s.total, s.classified, s.skipped, s.counterexamples, s.worsens_unconfirmed, s.degenerate,
            s.tied, s.stationary, s.paper_constant_witnesses, s.consistency_violations)


def test_scan_catalog_rows_byte_identical_on_n8_catalog(data_dir):
    # every row of the 11,117 connected 8-vertex graphs, slem then paper, and
    # the counters of both scans; degenerate, tied and stationary rows included
    digest = hashlib.sha256()
    counters = {}
    for convention in ("slem", "paper"):
        summary, records = scan_catalog(data_dir.parent / "perfbench" / "data" / "graph8c.g6", convention,
                                        top_k=10**9)
        digest.update(records_to_csv(records).encode())
        counters[convention] = _counters(summary)
    assert digest.hexdigest() == "6004c373a7f7c4359991a9afa40c946125605d5eefb8355af394890d5e34b73f"
    assert counters == {
        "slem": (11117, 11117, 0, 0, 0, 79, 29, 0, 0, 0),
        "paper": (11117, 11117, 0, 0, 0, 261, 207, 4, 0, 0),
    }


@pytest.mark.parametrize("convention", ["slem", "paper"])
def test_n8_catalog_solves_by_eigh_only_the_rows_that_read_a_basis(data_dir, monkeypatch, convention):
    # 8 x 8 matrices solved by eigh over the 11,117 connected 8-vertex graphs
    # (11,383 and 12,107 when every row took eigh at alpha = 0): at alpha = 0
    # only the degenerate rows and the rows whose vector the certificate does
    # not accept (none here), and each row the kept-branch certificate leaves
    # out (the degenerate ones) once more at 0, s/2 and s
    sizes, certified, kept = [], [], []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: sizes.append(np.shape(a)) or real(a, *args))
    for owner, name, masks in ((rwj.spectral, "_certify", certified), (rwj.perturb, "_branch_kept", kept)):
        def recording(*args, _real=getattr(owner, name), _masks=masks):
            _masks.append(_real(*args))
            return _masks[-1]

        monkeypatch.setattr(owner, name, recording)
    summary, _ = scan_catalog(data_dir.parent / "perfbench" / "data" / "graph8c.g6", convention)
    uncertified = sum(int((~m).sum()) for m in certified)
    left_out = sum(int((~m).sum()) for m in kept)
    at_zero = sum(math.prod(shape[:-2]) for shape in sizes if len(shape) == 3 and shape[-2:] == (8, 8))
    tracked = sum(math.prod(shape[:-2]) for shape in sizes if len(shape) == 4 and shape[-2:] == (8, 8))
    assert (uncertified, left_out) == (0, summary.degenerate)
    assert at_zero == summary.degenerate + uncertified == {"slem": 79, "paper": 261}[convention]
    assert tracked == 3 * left_out


@pytest.mark.parametrize("convention", ["slem", "paper"])
def test_n8_rows_do_not_depend_on_the_stacking(data_dir, convention):
    # every column of every graph8c row, decided in stacks of STACK_SIZE = 256
    # and one at a time, bit for bit (repr keeps every bit of a float)
    _, lines = read_graph6_lines(data_dir.parent / "perfbench" / "data" / "graph8c.g6")
    a, valid, connected = decode_graph6_stack(lines, 8)
    assert valid.all() and connected.all()

    def columns(stack):
        kept, rows = _decide(stack, normalize_convention(convention))
        assert len(kept) == len(stack)
        return [repr(sorted(f.items())) for f in rows.fields(range(len(stack)), [""] * len(stack), [()] * len(stack))]

    size = rwj.search.STACK_SIZE
    stacked = [row for start in range(0, len(a), size) for row in columns(a[start:start + size])]
    assert stacked == [row for i in range(len(a)) for row in columns(a[i:i + 1])]


@pytest.mark.parametrize("convention", ["slem", "paper"])
def test_scan_catalog_solves_no_row_on_its_own(data_dir, monkeypatch, convention):
    # 853 graphs in 4 stacks: each stack makes one eigvalsh at alpha = 0; eigh
    # solves at alpha = 0 only the rows whose level holds more than one
    # eigenvalue (every simple row's vector is certified), and each of them once
    # more at alpha in {0, h/2, h} for the tracked check, as their kept branch
    # is not proven; reduced pencils of degenerate levels are smaller
    sizes = {"eigh": [], "eigvalsh": []}
    for name in sizes:
        def counting(a, *args, _sizes=sizes[name], _real=getattr(np.linalg, name), **kwargs):
            _sizes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    summary, _ = scan_catalog(data_dir / "graph7c.g6", convention)
    assert summary.classified == 853
    values = [math.prod(shape[:-2]) for shape in sizes["eigvalsh"] if shape[-2:] == (7, 7)]
    assert len(values) == 4 and sum(values) == 853
    solved = [math.prod(shape[:-2]) for shape in sizes["eigh"] if shape[-2:] == (7, 7)]
    assert sum(solved) == 4 * summary.degenerate == {"slem": 100, "paper": 276}[convention]


def test_scan_catalog_stacks_four_byte_header_lines(monkeypatch):
    # 20 connected 64-vertex lines (4-byte headers) in units of 16 lines, so no
    # more than ENTRY_BUDGET = 2**16 adjacency entries: 1 eigvalsh per unit,
    # not 1 per line, and no eigh at all, as every level is one eigenvalue
    # whose vector is certified and whose kept branch is proven
    lines = [write_graph6(generate("er", seed=seed, n=64, p=0.1)) for seed in range(20)]
    sizes = {"eigh": [], "eigvalsh": []}
    for name in sizes:
        def counting(a, *args, _sizes=sizes[name], _real=getattr(np.linalg, name), **kwargs):
            _sizes.append(np.shape(a)[-2:])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    summary, _ = scan_catalog(lines, "slem")
    assert summary.classified == 20
    assert sizes["eigvalsh"].count((64, 64)) == math.ceil(20 / 16)
    assert sizes["eigh"].count((64, 64)) == 0


def test_scan_catalog_decides_every_line_in_stacks(monkeypatch):
    # 1-byte and 4-byte headers, a line that keeps its newline, disconnected
    # and malformed lines: no line is parsed or analysed on its own
    lines = ["Bw\r\n", write_graph6(generate("cycle", n=5)), write_graph6(generate("cycle", n=70)),
             write_graph6(generate("er", seed=1, n=64, p=0.1)),
             write_graph6(WeightedGraph.from_pairs(63, [(0, 1)])), b"A?", b"~??~", b"~??}", b"garbage!!"]

    def refuse(*args, **kwargs):
        raise AssertionError("scan_catalog decides every line in a stack")

    for module in (rwj.graphs, rwj.search):
        monkeypatch.setattr(module, "parse_graph6", refuse, raising=False)
    monkeypatch.setattr(rwj.search, "analyze_graph", refuse)
    summary, _ = scan_catalog(lines, "slem")
    assert (summary.total, summary.classified, summary.skipped) == (9, 4, 5)


@given(
    lines=graph6_lines(),
    convention=st.sampled_from(["slem", "paper"]),
    stack_size=st.sampled_from([1, 2, 3, rwj.search.STACK_SIZE]),
)
@settings(max_examples=40)
def test_scan_catalog_equals_per_line_analyze_graph(lines, convention, stack_size):
    reference = []
    for line in lines:
        try:
            reference.append(analyze_graph(parse_graph6(line), convention))
        except (DisconnectedGraphError, GraphFormatError, ConventionError):
            reference.append(None)
    with patch.object(rwj.search, "STACK_SIZE", stack_size):
        summary, records = scan_catalog(lines, convention, top_k=10**9)
    rows = [r for r in reference if r is not None]
    expected = [r for r in rows if r.classification == WORSENS]
    expected += sorted((r for r in rows if r.classification != WORSENS), key=lambda r: r.margin)
    assert [dataclasses.astuple(r) for r in records] == [dataclasses.astuple(r) for r in expected]
    assert _counters(summary) == (
        len(lines), len(rows), len(lines) - len(rows),
        sum(r.classification == WORSENS and r.sweep_confirmed is True for r in rows),
        sum(r.classification == WORSENS and not r.sweep_confirmed for r in rows),
        sum(r.degenerate for r in rows), sum(r.tied_sign for r in rows), sum(r.stationary for r in rows),
        sum(r.paper_constant_witness for r in rows), sum(bool(r.consistency_violations) for r in rows),
    )


def test_scan_catalog_sweeps_worsens_rows_in_their_stack(data_dir, monkeypatch):
    # no unweighted graph here worsens, so every verdict is forced to WORSENS:
    # each stacked row must carry the sweep result analyze_graph gives it
    real = rwj.perturb.verdict

    def worsens(lambda_star, worst_rate, d_min):
        return (np.full(np.shape(lambda_star), WORSENS),) + real(lambda_star, worst_rate, d_min)[1:]

    monkeypatch.setattr(rwj.perturb, "verdict", worsens)
    lines = (data_dir / "graph5c.g6").read_bytes().splitlines()
    for convention in ("slem", "paper"):
        expected = [analyze_graph(parse_graph6(line), convention) for line in lines]
        summary, records = scan_catalog(lines, convention)
        assert [dataclasses.astuple(r) for r in records] == [dataclasses.astuple(r) for r in expected]
        assert summary.worsens_unconfirmed + summary.counterexamples == len(lines)
        assert {r.sweep_confirmed for r in records} == {False}  # swept, and every gap really grows


def test_scan_catalog_reads_verdict_columns_only(data_dir, monkeypatch):
    # every verdict forced to WORSENS, so every row is swept and reported; a
    # verdict has no row form to read back, for one graph either
    real = rwj.perturb.verdict

    def worsens(lambda_star, worst_rate, d_min):
        return (np.full(np.shape(lambda_star), WORSENS),) + real(lambda_star, worst_rate, d_min)[1:]

    monkeypatch.setattr(rwj.perturb, "verdict", worsens)
    for convention in ("slem", "paper"):
        summary, records = scan_catalog(data_dir / "graph5c.g6", convention)
        assert summary.counterexamples + summary.worsens_unconfirmed == len(records) == 21
    assert not hasattr(rwj.perturb.StackedVerdicts, "__getitem__")
    one = rwj.perturb.classify_small_alpha(parse_graph6(b"Dhc"))
    assert one.lambda_star.shape == one.classification.shape == (1,)


@pytest.mark.parametrize("convention", ["slem", "paper"])
def test_scan_catalog_builds_only_the_records_it_reports(data_dir, monkeypatch, convention):
    # no n = 7 graph worsens, so a default scan reports its 10 closest calls
    # and builds no row object for the other 843 graphs
    built = []
    real = rwj.search.ScanRecord.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs["id"])
        real(self, *args, **kwargs)

    monkeypatch.setattr(rwj.search.ScanRecord, "__init__", counting)
    summary, records = scan_catalog(data_dir / "graph7c.g6", convention)
    assert (summary.classified, summary.counterexamples + summary.worsens_unconfirmed) == (853, 0)
    assert len(records) == len(built) == 10
    assert sorted(built) == sorted(r.id for r in records)


@pytest.mark.parametrize("stack_size", [1, rwj.search.STACK_SIZE])
def test_scan_catalog_ranks_equal_margins_by_input_position(monkeypatch, stack_size):
    # two graphs (n = 6 and n = 7) with one margin, both degenerate, so eigh
    # solves them, in lines that put them in different units whose order is not
    # the input order
    lines = [b"EznW", b"FtTnw", b"EznW", b"FtTnw", b"EznW", b"FtTnw"]
    monkeypatch.setattr(rwj.search, "STACK_SIZE", stack_size)
    for convention in ("slem", "paper"):
        rows = [analyze_graph(parse_graph6(line), convention) for line in lines]
        assert len({r.margin for r in rows}) == 1
        for top_k in (1, 3, 4, 10):
            summary, records = scan_catalog(lines, convention, top_k=top_k)
            assert [r.id for r in records] == [line.decode() for line in lines[:top_k]]
            assert [dataclasses.astuple(r) for r in summary.min_margin_records] == [
                dataclasses.astuple(r) for r in rows[:top_k]]


def test_scan_catalog_records_depend_on_neither_stack_size_nor_top_k(data_dir, monkeypatch):
    # units merge their closest calls into a heap of top_k rows, sorted once at
    # the end: graph7c in units of 1 and of 256 lines gives the same records,
    # and top_k = 10 gives the first 10 closest calls of top_k = 10**9
    got = {}
    for stack_size in (1, rwj.search.STACK_SIZE):
        monkeypatch.setattr(rwj.search, "STACK_SIZE", stack_size)
        for top_k in (10, 10**9):
            summary, records = scan_catalog(data_dir / "graph7c.g6", "slem", top_k=top_k)
            assert summary.classified == 853 and not summary.counterexamples + summary.worsens_unconfirmed
            got[stack_size, top_k] = [dataclasses.astuple(r) for r in records]
            assert got[stack_size, top_k] == [dataclasses.astuple(r) for r in summary.min_margin_records]
    for top_k in (10, 10**9):
        assert got[1, top_k] == got[rwj.search.STACK_SIZE, top_k]
    assert len(got[1, 10**9]) == 853 and got[1, 10] == got[1, 10**9][:10]
    assert [r[6] for r in got[1, 10**9]] == sorted(r[6] for r in got[1, 10**9])


def test_scan_catalog_runs_the_finite_difference_check(data_dir, monkeypatch):
    # scans never read fd_estimate, yet a row whose tracked branch does not
    # start at lambda_star still ends the scan
    monkeypatch.setattr(rwj.perturb, "_TOL_FD_START", -1.0)
    with pytest.raises(NumericalError, match="tracked branch starts at"):
        scan_catalog(data_dir / "graph7c.g6", "slem")


def test_scan_skips_graphs_without_admissible_eigenvalue():
    # K2 has no eigenvalue away from -1 and 1 under paper; it no longer aborts the scan
    summary, _ = scan_catalog([b"A_", b"Bw"], "paper")
    assert (summary.total, summary.classified, summary.skipped) == (2, 1, 1)
    summary, _ = scan_catalog([b"A_", b"Bw"], "slem")
    assert (summary.total, summary.classified, summary.skipped) == (2, 2, 0)
    for model in ("path", "star", "complete"):
        summary, _ = scan_random(model, {"n": 2}, count=1, convention="paper")
        assert (summary.total, summary.classified, summary.skipped) == (1, 0, 1)


def test_scan_catalog_deterministic_csv(data_dir):
    s1, r1 = scan_catalog(data_dir / "graph5c.g6", "slem")
    s2, r2 = scan_catalog(data_dir / "graph5c.g6", "slem")
    assert records_to_csv(r1) == records_to_csv(r2)


def test_scan_catalog_parallel_equals_serial(data_dir):
    # mixed n, with skipped lines, shuffled so that every stack of one n is spread out
    lines = [line for n in (4, 5, 6) for line in (data_dir / f"graph{n}c.g6").read_bytes().splitlines()]
    lines += [b"A?", b"A_", b"garbage!!", b"~??"]
    lines = [lines[i] for i in np.random.default_rng(7).permutation(len(lines))]
    for convention in ("slem", "paper"):
        s1, r1 = scan_catalog(lines, convention, top_k=10**9, parallelism=1)
        s2, r2 = scan_catalog(lines, convention, top_k=10**9, parallelism=3)
        assert records_to_csv(r1) == records_to_csv(r2)
        assert _counters(s1) == _counters(s2)
        assert s1.total == 143 and s1.skipped == (3 if convention == "slem" else 4)
        # at the default top_k each worker sends only its units' own closest calls
        s3, r3 = scan_catalog(lines, convention)
        s4, r4 = scan_catalog(lines, convention, parallelism=2)
        assert len(r3) == 10 and records_to_csv(r3) == records_to_csv(r4)
        assert _counters(s3) == _counters(s4) == _counters(s1)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and chunk size, maps in this process, starts nothing."""

    made: list[tuple[int, int]] = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.made.append((self.max_workers, chunksize))
        return map(fn, items)


def test_parallel_starts_no_more_workers_than_work_units(data_dir, monkeypatch):
    # a pool starts every worker it is given at once, so --parallel 64 on the
    # one unit of graph4c runs here, and 600 draws of the 5-vertex path, three
    # units of at most STACK_SIZE draws, get 3 workers
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    serial = scan_catalog(data_dir / "graph4c.g6", "slem")
    pooled = scan_catalog(data_dir / "graph4c.g6", "slem", parallelism=64)
    assert _RecordingPool.made == []
    assert records_to_csv(pooled[1]) == records_to_csv(serial[1]) and _counters(pooled[0]) == _counters(serial[0])
    serial = scan_random("path", {"n": 5}, 600, convention="slem")
    pooled = scan_random("path", {"n": 5}, 600, convention="slem", parallelism=64)
    assert records_to_csv(pooled[1]) == records_to_csv(serial[1]) and _counters(pooled[0]) == _counters(serial[0])
    assert serial[0].classified == 600
    assert list(rwj.search._run(abs, range(-100, 0), 3)) == list(range(100, 0, -1))
    assert _RecordingPool.made == [(3, 1), (3, 8)]


def test_scan_accepts_streams_and_lines(data_dir):
    text_lines = (data_dir / "graph4c.g6").read_text().splitlines()
    s1, _ = scan_catalog(text_lines, "slem")
    with open(data_dir / "graph4c.g6", "rb") as fh:
        s2, _ = scan_catalog(fh, "slem")
    assert s1.total == s2.total == 6


def test_scan_catalog_strips_the_graph6_prefix(tmp_path):
    # networkx's write_graph6 starts a line with >>graph6<<; the row id is the stripped line
    path = tmp_path / "prefixed.g6"
    path.write_bytes(b">>graph6<<C~\nDhc\n")
    summary, records = scan_catalog(path, "slem")
    assert (summary.total, summary.classified, summary.skipped) == (2, 2, 0)
    assert {r.id for r in records} == {"C~", "Dhc"}


# ---------------------------------------------------------------------------
# random scanning
# ---------------------------------------------------------------------------

def test_scan_random_reproducible():
    s1, r1 = scan_random("er", {"n": 15, "p": 0.3}, count=25, seed=42)
    s2, r2 = scan_random("er", {"n": 15, "p": 0.3}, count=25, seed=42)
    assert records_to_csv(r1) == records_to_csv(r2)
    assert s1.total == 25 and s1.counterexamples == 0


def test_scan_random_count_one_matches_analyze():
    _, records = scan_random("er", {"n": 12, "p": 0.4}, count=1, seed=9, top_k=5)
    g = generate("er", n=12, p=0.4, seed=9)
    direct = analyze_graph(g, "slem")
    assert len(records) == 1
    assert records_to_csv(records) == records_to_csv([direct])


def test_scan_random_sbm_balanced_clusters():
    summary, records = scan_random(
        "sbm", {"sizes": (8, 8), "b": [[0.7, 0.05], [0.05, 0.7]]}, count=10, seed=5, top_k=10
    )
    assert summary.counterexamples == 0
    # two balanced clusters put mu near 1/2 for most instances
    mus = []
    for i in range(10):
        g = generate("sbm", sizes=(8, 8), b=[[0.7, 0.05], [0.05, 0.7]], seed=5 + i)
        s = spectrum(build_transition(g, 0.0), "slem")
        v = s.v_star
        mus.append(min((v < 0).sum(), (v > 0).sum()) / g.n)
    assert np.median(mus) >= 0.375


ER_40 = ("er", {"n": 40, "p": 0.15}, 200, 0)
SBM_8_8 = ("sbm", {"sizes": (8, 8), "b": [[0.7, 0.05], [0.05, 0.7]]}, 60, 5)


@pytest.mark.parametrize("model, convention, top_k, unquoted_csv_sha256, summary_sha256, csv_sha256", [
    (ER_40, "slem", 10, "5e8248429d309baa6b36fad4cff570f56e4c161d6789668bc9b972b806e64ac4",
     "4ac6b36fd4a979d0fcc4baac39a350ec381adf17074a90a41f93f21970d457e4",
     "d86fef5d154b207875ddd778e8ae1bae5a8b28b265e2ea8e3d80f51f6bef8112"),
    (ER_40, "slem", 10**9, "fdc4ebdc6dc595200cc2318722a374594427eb4d55e6a63830817d538042acde",
     "0b1a2e38140bbd368c5765a32d10e5a1d52dc79b1448c4fbcd63bbb12589218f",
     "1c22d029c52259dfb3efd4173aaead3eb44a3aaf0c3143a2719e9d27eefcce84"),
    (ER_40, "paper", 10, "8b2f48191af7b1ac8ea6a85f62c861ba7b8cbe9e40e8368c1a4aa6c8f730ad39",
     "dfb8b45e21d9c7407f73f424b3dd39d260059384730ca1db13e83c4f834836ae",
     "0a071ec81b075c05246ee74bc1262b115c8b6be9120a9eb7dfde5e810678e2ee"),
    (ER_40, "paper", 10**9, "8f6a854374eac1b2b5811ebf84aa30cd86f195920b7fc34d67e87126f73e7162",
     "617b56e7bfad2c93ed0964e7d4520050999e767a8f11714a0ec952c0b8ccbc83",
     "2aef66d3cda76304a00897ddb44db59b16ad64352637dbc6d37fb1abd23a74f0"),
    (SBM_8_8, "slem", 10, "0e5e3633693b3f7582774f9e539d9c7d1d1aaf58fd410510aede3ab7040efdac",
     "d126cfd99180ac69d4015824b702e7e2965bce06ec6eefb71323e45675bfdad1",
     "6217b4d64ada1e1cf49ce58282cd3ff0d3f50ef3337c934f855f5dd30bd74f32"),
    (SBM_8_8, "slem", 10**9, "1a6fcf0ddb459101305fe9101c50a50e3f4cffa5ec832324149beb8160bc6719",
     "77e601f087e05691f799a16bb33d32ed13c5be2ebd91b8fee18b7531b9970139",
     "3467b41fdfed7db56a9e4c5c753019a3e7191d27ca98f6cd124792f8782eb570"),
    (SBM_8_8, "paper", 10, "70d1a8a86ab05ce8a12942be2ec43259ac87554078e2e3f652978f310be9231a",
     "394d9ef7c914d4891c2a405edc0a6f08f8f83209a826490bb476df692fa5ab40",
     "7a18fb4d824d28f86636ad11281dae641f67448fc5454f2f48bcaba6094b1bf8"),
    (SBM_8_8, "paper", 10**9, "11894331c2c78439400f2c156d1e0f43c8fa65ed55a90e743d5aaa603f9a54d4",
     "df3deb8a34ff5f562bf8857dbb6958ad76730f62bd32cc5f5c1bd9efe79a182d",
     "6a18e7699647a42f7de7ff9906b056cc143f267907a1a564f0f3e1fefea6db7a"),
])
def test_scan_random_bytes_pinned(model, convention, top_k, unquoted_csv_sha256, summary_sha256, csv_sha256):
    # sha256 of the CSV, of the CSV without the quotes around its ids (the
    # bytes written before ids holding commas were quoted) and of the summary
    # text without its elapsed line
    name, params, count, seed = model
    summary, records = scan_random(name, params, count, seed, convention, top_k)
    text = "".join(line for line in summary_text(summary).splitlines(True) if not line.startswith("elapsed:"))
    csv = records_to_csv(records)
    assert hashlib.sha256(csv.encode()).hexdigest() == csv_sha256
    assert hashlib.sha256(csv.replace('"', "").encode()).hexdigest() == unquoted_csv_sha256
    assert hashlib.sha256(text.encode()).hexdigest() == summary_sha256


def test_scan_random_parallel_equals_serial():
    for name, params, count, seed in (ER_40, SBM_8_8):
        for convention in ("slem", "paper"):
            s1, r1 = scan_random(name, params, count, seed, convention, top_k=10**9)
            s2, r2 = scan_random(name, params, count, seed, convention, top_k=10**9, parallelism=2)
            assert records_to_csv(r1) == records_to_csv(r2)
            assert _counters(s1) == _counters(s2)
            assert s1.total == s1.classified == count


def test_scan_random_skips_only_the_draw_that_exhausts_its_retries(monkeypatch):
    # ER(30, 0.1) seeds 0..8 are one work unit, and of them only seed 1 needs
    # more than 5 attempts: that row is a skip and every other row is its graph's
    assert rwj.search._unit_size(30) >= 9
    monkeypatch.setattr(rwj.search, "sample_stack", partial(rwj.graphs.sample_stack, retry_budget=5))
    summary, records = scan_random("er", {"n": 30, "p": 0.1}, 9, top_k=10**9)
    assert (summary.total, summary.classified, summary.skipped) == (9, 8, 1)
    rows = [analyze_graph(generate("er", seed=seed, n=30, p=0.1)) for seed in range(9) if seed != 1]
    assert records_to_csv(records) == records_to_csv(sorted(rows, key=lambda r: r.margin))


def test_scan_builds_edge_tuples_for_reported_rows_only(monkeypatch):
    # a unit keeps its closest rows' edges packed; only the top_k the scan
    # reports become edge tuples, each its draw's edges
    built = []
    real = rwj.search.unpack_edges
    monkeypatch.setattr(rwj.search, "unpack_edges", lambda n, bits: built.append(n) or real(n, bits))
    summary, records = scan_random("er", {"n": 100, "p": 0.08}, 30, seed=3, top_k=4)
    assert summary.classified == 30 and summary.counterexamples == 0
    assert len(built) == len(records) == 4
    for r in records:
        seed = int(re.search(r"seed=(\d+)", r.id).group(1))
        assert r.edges == generate("er", seed=seed, n=100, p=0.08).edges


def test_scan_random_memory_does_not_grow_with_count():
    # a scan holds one work unit of draws and its running top_k closest calls,
    # not every draw: the peak of 120 draws (20 units) is the peak of 12 (2 units)
    params = {"n": 100, "p": 0.08}
    scan_random("er", params, 12, top_k=1)  # first-call caches
    peaks = []
    for count in (12, 120):
        tracemalloc.start()
        try:
            scan_random("er", params, count, top_k=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_scan_random_rejects_bad_count():
    with pytest.raises(ValueError):
        scan_random("er", {"n": 10, "p": 0.3}, count=0, seed=1)


def test_scan_counterexample_dump(tmp_path):
    records = two_node_grid_search([4.0], [2.0], [1.0])
    from rwj.search import dump_counterexamples

    paths = dump_counterexamples(records, tmp_path / "ledger")
    assert len(paths) == 1
    from rwj import parse_edgelist

    dumped = parse_edgelist(paths[0].read_text())
    assert dumped.edges == records[0].edges
    assert (tmp_path / "ledger" / "counterexamples.txt").exists()
