"""End-to-end command-line behaviour: outputs, exit codes, determinism."""

import dataclasses
import math
from pathlib import Path

import pytest

from rwj import two_node_grid_search
from rwj.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_DISCONNECTED,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    fmt,
    main,
    records_to_csv,
)

from conftest import DET_ZERO_PAIR_TEXT


@pytest.fixture
def det_zero_pair_file(tmp_path):
    path = tmp_path / "two_node.el"
    path.write_text(DET_ZERO_PAIR_TEXT)
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.g6"
    path.write_bytes(b"C~\n")
    return str(path)


def _line_value(text, prefix, key):
    for line in text.splitlines():
        if line.strip().startswith(prefix):
            for token in line.replace(",", " ").split():
                if token.startswith(key + "="):
                    return token.split("=", 1)[1]
    raise AssertionError(f"{prefix}/{key} not found in output:\n{text}")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_det_zero_pair(det_zero_pair_file, capsys):
    rc = main(["analyze", "--input", det_zero_pair_file, "--format", "edgelist"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "classification=WORSENS" in out
    assert _line_value(out, "small-alpha", "lambda_first") == fmt(1.0 / 36.0)


def test_analyze_k4_with_alpha(k4_file, capsys):
    rc = main(["analyze", "--input", k4_file, "--alpha", "1"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    # gamma(P(1)) = 1 - (3/4)(1/3) = 0.75 by the regular scaling law
    assert _line_value(out, "lambda_star", "gap") == fmt(0.75)


def test_analyze_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("2\n0 1 oops\n")
    assert main(["analyze", "--input", str(bad), "--format", "edgelist"]) == EXIT_PARSE

    disc = tmp_path / "disc.el"
    disc.write_text("4\n0 1 1\n2 3 1\n")
    assert main(["analyze", "--input", str(disc), "--format", "edgelist"]) == EXIT_DISCONNECTED

    missing = tmp_path / "nope.el"
    assert main(["analyze", "--input", str(missing), "--format", "edgelist"]) == EXIT_PARSE

    k2 = tmp_path / "k2.g6"
    k2.write_bytes(b"A_\n")
    # paper-literal selection has no candidates on K2
    assert main(["analyze", "--input", str(k2), "--convention", "paper"]) == EXIT_NUMERICAL
    assert main(["analyze", "--input", str(k2), "--convention", "slem"]) == EXIT_OK
    capsys.readouterr()


def test_analyze_epsilon_prints_mixing_bounds(k4_file, capsys):
    rc = main(["analyze", "--input", k4_file, "--epsilon", "0.01"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "mixing bounds" in out


def test_conditions_command(det_zero_pair_file, capsys):
    rc = main(["conditions", "--input", det_zero_pair_file, "--format", "edgelist"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "nand_s: n/a" in out
    assert "eigenvalues" not in out  # conditions-only skips the spectrum block
    lines = out.splitlines()
    rayleigh = next(i for i, line in enumerate(lines) if line.startswith("  rayleigh minimum:"))
    assert lines[rayleigh + 1] == "  alpha_bar: closed_form=inf searched=none"
    rc = main(["analyze", "--input", det_zero_pair_file, "--format", "edgelist", "--conditions-only"])
    alias_out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert alias_out == out


def test_analyze_csv_row(det_zero_pair_file, tmp_path, capsys):
    csv_path = tmp_path / "row.csv"
    rc = main(["analyze", "--input", det_zero_pair_file, "--format", "edgelist", "--csv", str(csv_path)])
    capsys.readouterr()
    assert rc == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("id,n,convention")
    assert ",WORSENS," in lines[1]


def test_analyze_csv_reuses_the_text_pipeline(det_zero_pair_file, tmp_path, capsys, monkeypatch):
    import rwj.perturb as perturb_mod
    import rwj.search as search_mod
    from rwj import analyze_graph, parse_edgelist

    real = perturb_mod.classify_small_alpha
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (perturb_mod, search_mod):
        monkeypatch.setattr(module, "classify_small_alpha", counting)
    csv_path = tmp_path / "row.csv"
    rc = main(["analyze", "--input", det_zero_pair_file, "--format", "edgelist", "--csv", str(csv_path)])
    capsys.readouterr()
    assert rc == EXIT_OK
    assert len(calls) == 1
    g = parse_edgelist(Path(det_zero_pair_file).read_text())
    g = dataclasses.replace(g, name=Path(det_zero_pair_file).stem)
    assert csv_path.read_text() == records_to_csv([analyze_graph(g, "paper")])


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_c5_gap_column(tmp_path, capsys):
    c5 = tmp_path / "c5.g6"
    c5.write_bytes(b"Dhc\n")
    rc = main(["sweep", "--input", str(c5), "--alpha-max", "2", "--steps", "3"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    rows = out.strip().splitlines()
    assert rows[0] == "alpha,lambda_star,gap,t_rel,dobrushin_lower_bound,lambda_star_tracked"
    lam = abs(math.cos(4 * math.pi / 5))
    gaps = [float(r.split(",")[2]) for r in rows[1:]]
    expect = [1 - lam, 1 - (2 / 3) * lam, 1 - 0.5 * lam]
    assert gaps == pytest.approx(expect, abs=1e-9)
    tracked = [float(r.split(",")[5]) for r in rows[1:]]
    assert tracked == pytest.approx([-lam, -(2 / 3) * lam, -0.5 * lam], abs=1e-9)


def test_sweep_single_point_matches_analyze(det_zero_pair_file, capsys):
    rc = main(["sweep", "--input", det_zero_pair_file, "--format", "edgelist", "--alpha-max", "0",
               "--steps", "1"])
    sweep_out = capsys.readouterr().out
    assert rc == EXIT_OK
    row = sweep_out.strip().splitlines()[1].split(",")
    main(["analyze", "--input", det_zero_pair_file, "--format", "edgelist"])
    analyze_out = capsys.readouterr().out
    assert row[1] == _line_value(analyze_out, "lambda_star", "lambda_star")
    assert row[2] == _line_value(analyze_out, "lambda_star", "gap")
    assert row[3] == _line_value(analyze_out, "lambda_star", "t_rel")


def test_sweep_det_zero_pair_gap_decreases(det_zero_pair_file, capsys):
    rc = main(["sweep", "--input", det_zero_pair_file, "--format", "edgelist", "--alpha-max", "0.05",
               "--steps", "6"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    gaps = [float(r.split(",")[2]) for r in out.strip().splitlines()[1:]]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_catalog_exit_zero(data_dir, tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    rc = main(["scan", "--catalog", str(data_dir / "graph5c.g6"), "--out", str(out_csv)])
    err = capsys.readouterr().err
    assert rc == EXIT_OK
    assert "total: 21" in err
    assert "scalar-path rows: 8" in err
    assert out_csv.read_text().startswith("id,n,convention,lambda_star")


def test_scan_deterministic_bytes(tmp_path, capsys):
    args = ["scan", "--model", "er", "--n", "20", "--p", "0.3", "--count", "20", "--seed", "42"]
    rc1 = main(args)
    out1 = capsys.readouterr().out
    rc2 = main(args)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2


def test_scan_skips_disconnected(tmp_path, capsys):
    cat = tmp_path / "mixed.g6"
    cat.write_bytes(b"C~\nA?\nA?\nBw\n")
    rc = main(["scan", "--catalog", str(cat)])
    err = capsys.readouterr().err
    assert rc == EXIT_OK
    assert "skipped: 2" in err


def test_scan_counterexample_exit_code(monkeypatch, tmp_path, capsys):
    # force one WORSENS verdict to exercise the exit-10 contract
    import rwj.search as search_mod

    real = search_mod.analyze_graph

    def fake(g, convention="slem", graph_id=None):
        record = real(g, convention, graph_id)
        import dataclasses

        return dataclasses.replace(record, classification="WORSENS", sweep_confirmed=True)

    monkeypatch.setattr(search_mod, "analyze_graph", fake)
    cat = tmp_path / "one.g6"
    cat.write_bytes(b"C~\n")
    rc = main(["scan", "--catalog", str(cat)])
    capsys.readouterr()
    assert rc == EXIT_COUNTEREXAMPLE


def test_two_node_grid_exit_code(capsys):
    rc = main(["two-node", "--grid-a11", "4:4:1", "--grid-a12", "2:2:1", "--grid-a22", "1:1:1"])
    assert capsys.readouterr().err == "worsening grid points: 1  sweep-confirmed: 1\n"
    assert rc == EXIT_COUNTEREXAMPLE
    rc = main(["two-node", "--grid-a11", "1:1:1", "--grid-a12", "2:2:1", "--grid-a22", "1:1:1"])
    capsys.readouterr()
    assert rc == EXIT_OK
    # lambda_first is exactly 0 at lambda_star = 0.1: WORSENS, but the sweep does not confirm it
    rc = main(["two-node", "--grid-a11", "1:1:1", "--grid-a12", "1.5:1.5:1", "--grid-a22", "3.5:3.5:1"])
    assert capsys.readouterr().err == "worsening grid points: 1  sweep-confirmed: 0\n"
    assert rc == EXIT_OK


def test_two_node_point_report(capsys):
    rc = main(["two-node", "--a11", "4", "--a12", "2", "--a22", "1"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "classification=WORSENS" in out
    assert fmt(1.0 / 36.0) in out
    # the point report prints the closed-form verdict, the one the grid records
    for a11, a12, a22 in ((4.0, 2.0, 1.0), (1.0, 1.5, 3.5)):
        rc = main(["two-node", "--a11", str(a11), "--a12", str(a12), "--a22", str(a22)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        (row,) = two_node_grid_search([a11], [a12], [a22])
        assert f"\nclassification={row.classification} margin={fmt(row.margin)}\n" in out


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_star_round_trip(tmp_path, capsys):
    out = tmp_path / "s.g6"
    rc = main(["gen", "--model", "star", "--n", "4", "--out", str(out)])
    capsys.readouterr()
    assert rc == EXIT_OK
    from rwj import parse_graph6

    g = parse_graph6(out.read_bytes())
    assert {(u, v) for u, v, _ in g.edges} == {(0, 1), (0, 2), (0, 3)}


def test_gen_complete3_graph6(capsys):
    rc = main(["gen", "--model", "complete", "--n", "3"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert out.strip() == "Bw"


def test_gen_er_edgelist_records_seed(tmp_path, capsys):
    out = tmp_path / "g.el"
    rc = main(["gen", "--model", "er", "--n", "10", "--p", "0.5", "--seed", "1",
               "--out", str(out)])
    capsys.readouterr()
    assert rc == EXIT_OK
    text = out.read_text()
    assert text.startswith("#")
    assert "seed=1" in text
    from rwj import is_connected, parse_edgelist

    assert is_connected(parse_edgelist(text))


def test_gen_er_n100_graph6(tmp_path, capsys):
    out = tmp_path / "er.g6"
    rc = main(["gen", "--model", "er", "--n", "100", "--p", "0.1", "--out", str(out)])
    capsys.readouterr()
    assert rc == EXIT_OK
    from rwj import generate, parse_graph6

    assert parse_graph6(out.read_bytes()) == generate("er", n=100, p=0.1, seed=0)


def test_gen_invalid_params(capsys):
    rc = main(["gen", "--model", "er", "--n", "10"])
    capsys.readouterr()
    assert rc == EXIT_PARSE


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def test_fmt_twelve_significant_digits():
    assert fmt(0.75) == "0.75"
    assert fmt(1 / 3) == "0.333333333333"
    assert fmt(math.inf) == "inf"
    assert fmt(-2 / 30000.0) == "-6.66666666667e-05"


def test_scan_parallel_below_one_rejected(data_dir, capsys):
    catalog = str(data_dir / "graph4c.g6")
    for workers in ("0", "-1"):
        assert main(["scan", "--catalog", catalog, "--parallel", workers]) == EXIT_PARSE
        assert "parallelism must be >= 1" in capsys.readouterr().err


def test_scan_negative_limit_and_top_k_rejected(data_dir, capsys):
    catalog = str(data_dir / "graph4c.g6")
    for flags, message in (
        (["--catalog", catalog, "--limit", "-1"], "limit and top_k must be >= 0, got -1 and 10"),
        (["--catalog", catalog, "--top-k", "-2"], "limit and top_k must be >= 0, got None and -2"),
        (["--model", "cycle", "--n", "5", "--count", "1", "--top-k", "-1"], "count must be >= 1 and top_k >= 0, got 1 and -1"),
    ):
        assert main(["scan", *flags]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
    # zero is a valid bound: no lines scanned, no closest calls listed
    assert main(["scan", "--catalog", catalog, "--limit", "0", "--top-k", "0"]) == EXIT_OK
    assert "total: 0" in capsys.readouterr().err
