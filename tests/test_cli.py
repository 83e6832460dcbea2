"""End-to-end command-line behaviour: outputs, exit codes, determinism."""

import csv
import dataclasses
import hashlib
import io
import math
from pathlib import Path

import pytest

from rwj import WeightedGraph, analyze_graph, generate, scan_catalog, scan_random, two_node_grid_search, write_edgelist
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


def _verdict_and_row(path, tmp_path, capsys, *argv):
    """The classification line of ``rwj analyze`` on ``path`` and its ``--csv`` row, which must exit 0."""
    row = tmp_path / "row.csv"
    assert main(["analyze", "--input", str(path), "--csv", str(row), *argv]) == EXIT_OK
    line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("classification="))
    return line, row.read_text()


def test_analyze_verdict_does_not_depend_on_h(tmp_path, capsys):
    # the verdict core steps by FD_STEP * d_min whatever --h is; --h only sizes
    # the printed fd= and fd_agreement=
    c5_near = WeightedGraph(5, ((0, 1, 1.001), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0)))
    for i, g in enumerate((generate("cycle", n=5), c5_near, generate("er", n=30, p=0.2, seed=3))):
        path = tmp_path / f"g{i}.el"
        path.write_text(write_edgelist(g))
        for convention in ("slem", "paper"):
            base = _verdict_and_row(path, tmp_path, capsys, "--convention", convention)
            for h in ("1e-300", "1e-12", "0.5"):
                assert _verdict_and_row(path, tmp_path, capsys, "--convention", convention, "--h", h) == base


# a weighted graph whose level at 0 holds the eigenvalues +4.27e-10 and -4.23e-10
WIDE_WEIGHTS = ((0, 1, 2.18e-06), (0, 2, 2.02e7), (0, 3, 8.40e7), (1, 3, 1.31e-08), (2, 2, 1.22e-4))


def test_analyze_wide_weights_do_not_fail_the_eigenbasis_check(tmp_path, capsys):
    # the eigenbasis residual is taken in similarity coordinates, so it does not
    # grow with the weights: the graph and its 1e8 copy exit 0 with one verdict
    lines = []
    for scale in (1.0, 1e8):
        path = tmp_path / f"wide{scale:g}.el"
        path.write_text(write_edgelist(WeightedGraph(4, tuple((u, v, w * scale) for u, v, w in WIDE_WEIGHTS))))
        line, _ = _verdict_and_row(path, tmp_path, capsys, "--convention", "paper")
        lines.append(line.split()[0] + " " + " ".join(line.split()[2:]))  # the verdict and flags, not the rate
    assert lines == ["classification=WORSENS [degenerate]"] * 2


def test_analyze_stationary_does_not_depend_on_the_weight_unit(tmp_path, capsys):
    # the star K1,6 is stationary at every weight: lambda'(0) * d_min is compared, not lambda'(0)
    for weight in (1e-4, 1.0, 1e4):
        path = tmp_path / "star.el"
        path.write_text(write_edgelist(WeightedGraph(7, tuple((i, 6, weight) for i in range(6)))))
        line, _ = _verdict_and_row(path, tmp_path, capsys, "--convention", "paper")
        assert line.startswith("classification=IMPROVES ") and "[stationary]" in line, (weight, line)


@pytest.mark.parametrize("convention", ["slem", "paper"])
def test_analyze_names_a_near_decomposable_graph(tmp_path, capsys, convention):
    # the path 0-1-2-3 is connected, but its middle edge of weight 1e-12 puts a
    # second eigenvalue within TOL_UNIT of 1: a numerical failure that says so
    path = tmp_path / "near.el"
    path.write_text("4\n0 1 1\n1 2 1e-12\n2 3 1\n")
    assert main(["analyze", "--input", str(path), "--convention", convention]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "error: expected exactly one unit eigenvalue, found 2: the graph is near-decomposable at TOL_UNIT = 1e-9\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--alpha", "nan"], "alpha must be finite and >= 0, got nan"),
    (["analyze", "--alpha", "inf"], "alpha must be finite and >= 0, got inf"),
    (["analyze", "--h", "nan"], "h must be finite and > 0, got nan"),
    (["analyze", "--h", "inf"], "h must be finite and > 0, got inf"),
    (["sweep", "--alpha-max", "nan"], "--alpha-max must be finite and >= 0, got nan"),
    (["sweep", "--alpha-max", "inf"], "--alpha-max must be finite and >= 0, got inf"),
    (["sweep", "--alpha-max", "nan", "--spacing", "log"], "--alpha-max must be finite and >= 0, got nan"),
    (["sweep", "--alpha-max", "1", "--alpha-min", "inf", "--spacing", "log"],
     "--alpha-min must be finite and > 0 for log spacing, got inf"),
    (["sweep", "--alpha-max", "0", "--spacing", "log"], "--alpha-max must be > 0 for log spacing"),
    (["analyze", "--conditions-only", "--h", "0"], "h must be finite and > 0, got 0.0"),
    (["analyze", "--conditions-only", "--h", "nan"], "h must be finite and > 0, got nan"),
    (["analyze", "--conditions-only", "--alpha", "nan"], "alpha must be finite and >= 0, got nan"),
    (["analyze", "--conditions-only", "--alpha", "-1"], "alpha must be finite and >= 0, got -1.0"),
    (["analyze", "--epsilon", "0.7"], "epsilon must lie in (0, 1/2), got 0.7"),
    (["analyze", "--conditions-only", "--epsilon", "0.7"], "epsilon must lie in (0, 1/2), got 0.7"),
])
def test_non_finite_parameters_rejected(k4_file, capsys, argv, message):
    # invalid input, not a numerical failure: nothing reaches the eigensolver
    assert main(argv + ["--input", k4_file]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("epsilon", ["0.7", "0", "nan"])
def test_invalid_epsilon_rejected_where_t_rel_is_infinite(tmp_path, capsys, epsilon):
    # C4 under slem has lambda_star = -1, so no mixing bound is ever computed
    path = tmp_path / "c4.g6"
    path.write_bytes(b"Cr\n")
    assert main(["analyze", "--input", str(path), "--convention", "slem", "--epsilon", epsilon]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert f"epsilon must lie in (0, 1/2), got {float(epsilon)}" in captured.err and captured.out == ""


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


@pytest.mark.parametrize("graph, convention, analyze_sha256, conditions_sha256", [
    ("two_node", "slem", "df9d5dc9aea78878237017ef6a31307645dd1bea646d9643b4fb22229f657221",
     "fbd851ec3ea9b51609ff76d6e1089ed643da037a48651c6b5b3458d36a51700c"),
    ("two_node", "paper", "37a3fbfb020f721de1296ac918fce49f3449941a39e6edc6e0232693fcac3926",
     "fbd851ec3ea9b51609ff76d6e1089ed643da037a48651c6b5b3458d36a51700c"),
    ("Dhc", "slem", "36f735af8455ab3d90ced454cb7c9bb0a62c5152f80d55cee50da03cd3815288",
     "e3acd7b37e1e4a4e9937dc8b369bbb8bcc1fd3a24a756c0a4664de3c5a9d8806"),
    ("Dhc", "paper", "830b821e837ca79510bc12d61b2275c9a30ec3753bdc73b15d8390c3c731bf91",
     "e3acd7b37e1e4a4e9937dc8b369bbb8bcc1fd3a24a756c0a4664de3c5a9d8806"),
    ("C~", "slem", "cda31f98e0ce3bf6043a0139bfff53fd4f5ff4cc76cbf006161d2dc8c75a8f9c",
     "a5f2f5cff5cb3267505d69cc5cb149de1d67aaef64c0102aa24215517c5173b2"),
    ("C~", "paper", "2aae0b88eee23c148414fe37f1186ad5e32a98cc192011918abc816513bd5f78",
     "a5f2f5cff5cb3267505d69cc5cb149de1d67aaef64c0102aa24215517c5173b2"),
    ("D`{", "slem", "868575e88fd9056098fb8043226cf021bc81ad29d53b1542b828b37d037b12a2",
     "b33ffe37e47a357f14431b853247ac7fa1e917188ec0f1eac4c2f8633da7ed66"),
    ("D`{", "paper", "c71d3f1da89525f41bac60818a1264dae5aeb7ae65751dd58088a182653f9fde",
     "b33ffe37e47a357f14431b853247ac7fa1e917188ec0f1eac4c2f8633da7ed66"),
], ids=[f"{graph}-{convention}" for graph in ("two_node", "Dhc", "C~", "D`{") for convention in ("slem", "paper")])
def test_analyze_and_conditions_bytes_pinned(data_dir, tmp_path, capsys, graph, convention, analyze_sha256,
                                            conditions_sha256):
    # the WORSENS pair, the degenerate C5, K4 and the sign-tied D`{ (tied under
    # both conventions): the analyze text with its CSV row, and the condition
    # report, byte for byte
    if graph == "two_node":
        path = data_dir / "two_node.el"
    else:
        path = tmp_path / "graph.g6"
        path.write_bytes(graph.encode() + b"\n")
    csv_path = tmp_path / "row.csv"
    argv = ["--input", str(path), "--convention", convention]
    assert main(["analyze", "--epsilon", "0.01", "--csv", str(csv_path)] + argv) == EXIT_OK
    text = capsys.readouterr().out + csv_path.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == analyze_sha256
    assert main(["conditions"] + argv) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == conditions_sha256


@pytest.mark.parametrize("convention", ["slem", "paper"])
def test_analyze_condition_verdicts_match_the_csv_row(catalog_lines, tmp_path, capsys, convention):
    # every printed "-> true/false" (or "n/a") of the ladder equals its column of the --csv row
    path, csv_path = tmp_path / "graph.g6", tmp_path / "row.csv"
    for line in catalog_lines[5] + catalog_lines[6]:
        path.write_bytes(line + b"\n")
        argv = ["analyze", "--input", str(path), "--convention", convention, "--csv", str(csv_path)]
        assert main(argv) == EXIT_OK
        printed = {}
        for text in capsys.readouterr().out.splitlines():
            label, _, rest = text.strip().partition(": ")
            if label in ("cor1", "cor2", "thm2 sharp", "cor4 sharp", "nand_s"):
                printed[label.replace(" ", "_")] = rest.split("-> ")[1].split()[0] if "-> " in rest else "n/a"
        row = next(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert printed == {key: row[key] for key in printed} and len(printed) == 5, (line, printed, row)


@pytest.mark.parametrize("convention", ["slem", "paper"])
def test_analyze_prints_the_verdict_cores_stencil_at_unit_d_min(catalog_lines, tmp_path, capsys, convention):
    # at d_min = 1 the default --h is the core's step s = FD_STEP * d_min, so the
    # printed fd= is the core's fd_estimate, bit for bit
    from rwj import parse_graph6
    from rwj.search import _decide_one
    from rwj.spectral import normalize_convention

    path, checked = tmp_path / "graph.g6", 0
    for line in catalog_lines[5]:
        g = parse_graph6(line)
        if g.degrees().min() != 1.0:
            continue
        path.write_bytes(line + b"\n")
        assert main(["analyze", "--input", str(path), "--convention", convention]) == EXIT_OK
        fd = _decide_one(g, normalize_convention(convention)).verdicts.fd_estimate[0]
        assert f" fd={fmt(fd)} " in capsys.readouterr().out, line
        checked += 1
    assert checked == 10


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

    # every verdict goes through the verdict core, so one classify_stack call
    # means one run of the pipeline
    real = perturb_mod.classify_stack
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (perturb_mod, search_mod):
        monkeypatch.setattr(module, "classify_stack", counting)
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


@pytest.mark.parametrize("args, sha256", [
    (["--alpha-max", "1", "--steps", "5"],
     "ded5e0e353a91665409faec0e8e0d8b061c164d365ae9976e705fecf9d55f866"),
    (["--alpha-max", "0.05", "--steps", "6", "--convention", "slem"],
     "bd3e9bbc5abcd5e0aea46b518782f827dca241f2985595a3953390679d9a733f"),
    (["--alpha-max", "10", "--alpha-min", "0.001", "--steps", "7", "--spacing", "log"],
     "be906ca0cfdc5424d6b436b50ec547ea3d26be574ee68553a30ef99580aa6355"),
])
def test_sweep_bytes_pinned(data_dir, capsys, args, sha256):
    # the tracked column comes from the per-point spectra; on this simple level
    # it must match, bit for bit, the output of a separate tracking solve
    assert main(["sweep", "--input", str(data_dir / "two_node.el")] + args) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_catalog_exit_zero(data_dir, tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    rc = main(["scan", "--catalog", str(data_dir / "graph5c.g6"), "--out", str(out_csv)])
    err = capsys.readouterr().err
    assert rc == EXIT_OK
    assert "total: 21" in err
    assert out_csv.read_text().startswith("id,n,convention,lambda_star")


def test_scan_deterministic_bytes(tmp_path, capsys):
    args = ["scan", "--model", "er", "--n", "20", "--p", "0.3", "--count", "20", "--seed", "42"]
    rc1 = main(args)
    out1 = capsys.readouterr().out
    rc2 = main(args)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2


# scan CSVs whose ids hold commas, and the sha256 of the bytes written before
# such ids were quoted
COMMA_ID_CSVS = [
    (["scan", "--model", "er", "--n", "40", "--p", "0.15", "--count", "20"],
     "ed54c33ab862c9574268446bb5d1a4b6eab3bd9587fc7f8813b1a114bd181e04"),
    (["scan", "--model", "sbm", "--sizes", "8,8", "--block-probs", "0.7,0.05,0.05,0.7", "--count", "20",
      "--seed", "5"], "18cda7edc59cf6f6434e3221bc7599e3441504a6aaf53f25ea9bfb42db5c481e"),
    (["two-node", "--grid-a11", "0:5:21", "--grid-a12", "0.25:4:8", "--grid-a22", "0:5:21"],
     "c0856a849f3240d7c2e3f102b08b6330b007a59ea17ea591810bf3d73e7f6322"),
]


def test_csv_quoting_adds_only_quotes(data_dir, tmp_path, capsys):
    # an id holding a comma is quoted and nothing else changes: without the
    # quotes every CSV is the one written before
    for argv, unquoted_sha256 in COMMA_ID_CSVS:
        main(argv)
        out = capsys.readouterr().out
        assert out.count('"') >= 2
        assert hashlib.sha256(out.replace('"', "").encode()).hexdigest() == unquoted_sha256
    path = tmp_path / "two,node.el"
    path.write_bytes((data_dir / "two_node.el").read_bytes())
    assert main(["analyze", "--input", str(path), "--csv", str(tmp_path / "row.csv")]) == EXIT_OK
    capsys.readouterr()
    row = (tmp_path / "row.csv").read_text()
    assert row.splitlines()[1].startswith('"two,node",2,')
    assert hashlib.sha256(row.replace('"', "").encode()).hexdigest() == (
        "60052375a6d108df86a34db83712e2fac4422946ade80bd4a1988b980b4c8af6"
    )


def test_csv_reads_back_field_for_field(data_dir, tmp_path, capsys):
    # every CSV kind: 13 fields per row, and the id of each record
    kinds = [
        scan_catalog(data_dir / "graph5c.g6", "paper", top_k=10**9)[1],
        scan_random("er", {"n": 12, "p": 0.4}, 3)[1],
        scan_random("sbm", {"sizes": (8, 8), "b": [[0.7, 0.05], [0.05, 0.7]]}, 20, 5)[1],
        two_node_grid_search([4.0, 1.0], [2.0, 1.5], [1.0, 3.5]),
        [analyze_graph(dataclasses.replace(generate("cycle", n=5), name='line\nbreak, "quoted"\r'))],
    ]
    for records in kinds:
        rows = list(csv.reader(io.StringIO(records_to_csv(records), newline=""), strict=True))
        assert [len(row) for row in rows] == [13] * (len(records) + 1)
        assert [row[0] for row in rows[1:]] == [r.id for r in records]
    for name in ("two,node", 'say "hi"'):
        path = tmp_path / f"{name}.el"
        path.write_bytes((data_dir / "two_node.el").read_bytes())
        assert main(["analyze", "--input", str(path), "--csv", str(tmp_path / "row.csv")]) == EXIT_OK
        capsys.readouterr()
        with open(tmp_path / "row.csv", newline="") as f:
            rows = list(csv.reader(f, strict=True))
        assert [len(row) for row in rows] == [13, 13]
        assert rows[1][0] == name


def test_analyze_networkx_graph6_file(tmp_path, capsys):
    # networkx writes the optional >>graph6<< prefix by default
    import networkx as nx

    path = tmp_path / "petersen.g6"
    nx.write_graph6(nx.petersen_graph(), str(path))
    assert path.read_bytes().startswith(b">>graph6<<")
    assert main(["analyze", "--input", str(path)]) == EXIT_OK
    assert "graph: IheA@GUAo" in capsys.readouterr().out


def test_scan_skips_disconnected(tmp_path, capsys):
    cat = tmp_path / "mixed.g6"
    cat.write_bytes(b"C~\nA?\nA?\nBw\n")
    rc = main(["scan", "--catalog", str(cat)])
    err = capsys.readouterr().err
    assert rc == EXIT_OK
    assert "skipped: 2" in err


def test_scan_counterexample_exit_code(monkeypatch, tmp_path, capsys):
    # force one sweep-confirmed WORSENS verdict to exercise the exit-10
    # contract; a scan counts its rows from the verdict core's columns and the
    # stacked sweep's answers, so both are forced
    import numpy as np
    import rwj.perturb as perturb_mod
    import rwj.search as search_mod

    real = perturb_mod.verdict

    def worsens(lambda_star, worst_rate, d_min):
        return (np.full(np.shape(lambda_star), "WORSENS"),) + real(lambda_star, worst_rate, d_min)[1:]

    monkeypatch.setattr(perturb_mod, "verdict", worsens)
    monkeypatch.setattr(search_mod, "sweep_stack", lambda a, *args: np.ones(len(a), dtype=bool))
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


@pytest.mark.parametrize("weights", [("nan", "1", "1"), ("1", "nan", "1"), ("1", "1", "nan"), ("inf", "1", "1")])
@pytest.mark.parametrize("mode", ["point", "grid"])
def test_two_node_non_finite_weights_rejected(capsys, mode, weights):
    # invalid input, not a numerical failure: no classification is printed
    if mode == "point":
        argv = [arg for name, w in zip(("a11", "a12", "a22"), weights) for arg in (f"--{name}", w)]
        message = "weights must be finite"
    else:
        argv = [arg for name, w in zip(("a11", "a12", "a22"), weights) for arg in (f"--grid-{name}", f"0.5:{w}:3")]
        message = "grid spec bounds must be finite"
    assert main(["two-node"] + argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("weights", [("1e120", "1", "1"), ("0", "1e-200", "0"), ("1e200", "1", "0")])
@pytest.mark.parametrize("mode", ["point", "grid"])
def test_two_node_weights_out_of_floating_point_range_rejected(capsys, mode, weights):
    # closed forms that overflow or underflow are invalid input (exit 2), not
    # a NaN verdict, a sweep-confirmed counterexample or a lost branch
    if mode == "point":
        argv = [arg for name, w in zip(("a11", "a12", "a22"), weights) for arg in (f"--{name}", w)]
    else:
        argv = [arg for name, w in zip(("a11", "a12", "a22"), weights) for arg in (f"--grid-{name}", f"{w}:{w}:1")]
    assert main(["two-node"] + argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert "leave the floating-point range" in captured.err and captured.out == ""


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
    # the whole report, byte for byte: WORSENS at lambda_star = 0, WORSENS at an
    # exactly zero first-order term, K2 at lambda_star = -1 and a stationary point
    for weights, sha256 in [
        (("4", "2", "1"), "b24bbcaf4a19e1895ee2858de5a67f545be9e2cf249d5c0e5beddf54c7f852e1"),
        (("1", "1.5", "3.5"), "ab56b9f973e4b14aa501a8178f59fe2b64c3a4756e3966de38293f204151f492"),
        (("0", "1", "0"), "14dceb65ac1e6b6d012353f282fd2ff284878e335987fe8db3e04b587d5cf945"),
        (("1", "1", "1"), "3983e7f0930b87cc439a6d8e275b3b7b00896a9f2db31f720c80ba6214bcc8bf"),
    ]:
        argv = [arg for name, w in zip(("a11", "a12", "a22"), weights) for arg in (f"--{name}", w)]
        assert main(["two-node"] + argv) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


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
