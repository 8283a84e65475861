import json

import numpy as np
import pytest

from liberatrix.cli import _build_parser, _jsonable, _parse_pairs, main
from liberatrix.exactla import RatMatrix, read_matrix
from liberatrix.graphs import add_edges, catalog, format_graph_text


@pytest.fixture
def k4k1_matrix(tmp_path):
    p = tmp_path / "a.txt"
    rows = ["5 5"]
    for i in range(4):
        rows.append(" ".join("1" if j < 4 else "0" for j in range(5)))
    rows.append("0 0 0 0 4")
    p.write_text("\n".join(rows) + "\n")
    return str(p)


def test_parse_pairs():
    assert _parse_pairs("3-5,4-5") == ((3, 5), (4, 5))
    assert _parse_pairs("1-1", allow_equal=True) == ((1, 1),)
    with pytest.raises(ValueError):
        _parse_pairs("1-1")
    with pytest.raises(ValueError):
        _parse_pairs("3:5")


def test_verify_exit_codes(k4k1_matrix, tmp_path, capsys):
    # the block-of-ones matrix is the canonical rank-deficient case
    code = main(["verify", "--kind", "ssp", "--graph", "catalog:K4uK1",
                 "--matrix", k4k1_matrix])
    assert code == 1
    assert "answer=False" in capsys.readouterr().out

    # relative to the two-pair supergraph the surviving rows are independent
    h = tmp_path / "h.txt"
    h.write_text(format_graph_text(
        add_edges(catalog("K4uK1"), ((3, 5), (4, 5)))))
    code = main(["verify", "--kind", "ssp", "--graph", "catalog:K4uK1",
                 "--wrt", str(h), "--matrix", k4k1_matrix])
    assert code == 0
    assert "answer=True" in capsys.readouterr().out


def test_libset_check_and_enumerate(k4k1_matrix, capsys):
    code = main(["libset", "--check", "--graph", "catalog:K4uK1",
                 "--matrix", k4k1_matrix, "--beta", "3-5,4-5"])
    assert code == 0
    assert "liberation set: True" in capsys.readouterr().out

    code = main(["libset", "--enumerate", "--graph", "catalog:K4uK1",
                 "--matrix", k4k1_matrix, "--max-size", "2"])
    assert code == 0
    assert "6 minimal" in capsys.readouterr().out


def test_libset_false_exits_one(k4k1_matrix):
    code = main(["libset", "--check", "--graph", "catalog:K4uK1",
                 "--matrix", k4k1_matrix, "--beta", "3-5"])
    assert code == 1


def test_zf_number_and_cover(capsys):
    assert main(["zf", "--number", "--graph", "catalog:P3xP4"]) == 0
    assert "Z = 3" in capsys.readouterr().out

    assert main(["zf", "--cover", "--graph", "catalog:C5",
                 "--filled", "1,3,4,5"]) == 0
    assert main(["zf", "--cover", "--graph", "catalog:C5",
                 "--filled", "1,2"]) == 1


def test_zf_local_cover(capsys):
    code = main(["zf", "--local-cover", "--graph", "catalog:C4",
                 "--graph-h", "catalog:P2", "--pairs", "1-1,2-1,3-2,4-2"])
    assert code == 0
    assert "local cover: True" in capsys.readouterr().out


def test_graph_file_input(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text(format_graph_text(catalog("P4")))
    assert main(["zf", "--number", "--graph", str(p)]) == 0


# input files for the bad-input table, written under tmp_path
BAD_INPUT_FILES = {
    "header.txt": "2\n1 1\n1 0\n",
    "big.txt": "2 2\n1e400 1\n1 0\n",
    "one.txt": "1 1\n1\n",
    "two.txt": "2 2\n1 0\n0 2\n",
    "p3.txt": "3 3\n1 1 0\n1 1 1\n0 1 1\n",
    "k4k1.txt": "5 5\n" + "1 1 1 1 0\n" * 4 + "0 0 0 0 4\n",
}

# (id, argv with {d} for the file directory, LIBERATRIX_SEED or None,
#  a fragment of the error message)
BAD_INPUTS = [
    ("unknown-catalog-name", "zf --number --graph catalog:NOPE", None,
     "unknown catalog name"),
    ("closure-without-filled", "zf --closure --graph catalog:P4", None,
     "need --filled"),
    ("missing-matrix-file", "verify --kind ssp --graph catalog:P4"
     " --matrix {d}/missing.txt", None, "No such file"),
    ("bad-matrix-header", "verify --kind ssp --graph catalog:P2"
     " --matrix {d}/header.txt", None, "rows cols"),
    ("spectrum-overflow", "realize --spectrum 1e400,1,2 --shape path", None,
     "too large for a float"),
    ("liberate-matrix-overflow", "liberate --graph catalog:2K1"
     " --matrix {d}/big.txt --beta 1-2", None, "too large for a float"),
    ("directsum-matrix-overflow", "directsum --matrix-a {d}/big.txt"
     " --matrix-b {d}/one.txt --beta 1-3", None, "too large for a float"),
    ("unwritable-json", "zf --number --graph catalog:P3"
     " --json {d}/no/such/r.json", None, "No such file"),
    ("zero-copy-catalog", "verify --kind ssp --graph catalog:0K2"
     " --matrix {d}/two.txt", None, "copy count 0"),
    ("max-size-zero", "libset --enumerate --graph catalog:2K1"
     " --matrix {d}/two.txt --max-size 0", None, "max_size must lie"),
    ("max-size-negative", "libset --enumerate --graph catalog:2K1"
     " --matrix {d}/two.txt --max-size -2", None, "max_size must lie"),
] + [
    ("tol-%s" % tol, "directsum --matrix-a {d}/one.txt --matrix-b"
     " {d}/one.txt --beta 1-2 --tol %s" % tol, None, "--tol must be")
    for tol in ("-1", "0", "nan", "inf")
] + [
    ("spectrum-without-value", "realize --spectrum --graph catalog:P5", None,
     "expected one argument"),
    ("wrt-not-a-supergraph", "verify --kind ssp --graph catalog:P3"
     " --matrix {d}/p3.txt --wrt catalog:3K1", None, "not a supergraph"),
    ("zf-liberate-pair-outside", "zf-liberate --matrix-a {d}/two.txt"
     " --matrix-b {d}/one.txt --pairs 1-9", None, "second coordinate 9"),
    ("graph-libset-zero-trials", "graph-libset --graph catalog:P3"
     " --beta 1-3 --trials 0", None, "trials must be positive"),
    ("unknown-replay", "reproduce nope", None, "invalid choice"),
    ("seed-not-an-int", "zf --number --graph catalog:P3 --seed x", None,
     "invalid int value"),
    ("seed-env-not-an-int", "zf --number --graph catalog:P3", "x",
     "LIBERATRIX_SEED must be an integer"),
    ("unknown-kind", "verify --kind xyz --graph catalog:P3"
     " --matrix {d}/p3.txt", None, "invalid choice"),
    ("cover-vertex-outside", "zf --cover --graph catalog:P3 --filled 1,9",
     None, "vertex 9 outside"),
    ("closure-vertex-zero", "zf --closure --graph catalog:P3 --filled 0",
     None, "vertex 0 outside"),
    ("libset-check-without-beta", "libset --graph catalog:K4uK1"
     " --matrix {d}/k4k1.txt", None, "needs --beta"),
    ("libset-beta-on-an-edge", "libset --graph catalog:K4uK1"
     " --matrix {d}/k4k1.txt --beta 1-2", None, "edges of the graph"),
    ("realize-spectrum-wrong-size", "realize --graph catalog:P3"
     " --spectrum 1,2", None, "does not fit 3 vertices"),
    ("realize-path-repeated-value", "realize --shape path --spectrum 1,1,2",
     None, "simple eigenvalues"),
    ("directsum-equal-pair", "directsum --matrix-a {d}/two.txt"
     " --matrix-b {d}/one.txt --beta 1-1", None, "bad pair '1-1'"),
]


@pytest.mark.parametrize("argv, seed_env, message",
                         [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_inputs_exit_two(argv, seed_env, message, tmp_path, capsys,
                             monkeypatch):
    # bad input exits 2 with an error line, from argparse or from main
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    if seed_env is None:
        monkeypatch.delenv("LIBERATRIX_SEED", raising=False)
    else:
        monkeypatch.setenv("LIBERATRIX_SEED", seed_env)
    try:
        code = main(argv.format(d=tmp_path).split())
    except SystemExit as ex:
        code = ex.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err


def test_local_cover_names_the_coordinate_outside_both_labelings(capsys):
    # 1 fits the product labeling of P3 x P3; 9 fits neither labeling
    assert main(["zf", "--local-cover", "--graph", "catalog:P3",
                 "--graph-h", "catalog:P3", "--pairs", "1-1,9-9"]) == 2
    err = capsys.readouterr().err
    assert "second coordinate 9" in err and "coordinate 1 " not in err


def test_zero_denominator_entry_exits_two(tmp_path, capsys):
    p = tmp_path / "a.txt"
    p.write_text("2 2\n1/0 1\n1 0\n")
    assert main(["verify", "--kind", "ssp", "--graph", "catalog:P2",
                 "--matrix", str(p)]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_zero_denominator_spectrum_exits_two(capsys):
    assert main(["realize", "--spectrum", "1/0,1,2", "--shape", "path"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_liberate_writes_matrix_and_report(k4k1_matrix, tmp_path, capsys):
    out = tmp_path / "lib.txt"
    rep = tmp_path / "rep.json"
    code = main(["liberate", "--graph", "catalog:K4uK1",
                 "--matrix", k4k1_matrix, "--beta", "3-5,4-5",
                 "--seed", "1", "--out", str(out), "--json", str(rep)])
    assert code == 0
    assert out.exists()
    doc = json.loads(rep.read_text())
    assert doc["command"] == "liberate"
    assert doc["verdicts"]["verified"] is True
    assert doc["verdicts"]["multiplicities"] == [3, 2]
    assert doc["version"]
    assert doc["timings"] == {}


def test_json_byte_identical_for_exact_command(k4k1_matrix, tmp_path):
    paths = []
    for tag in ("one", "two"):
        rp = tmp_path / ("%s.json" % tag)
        code = main(["libset", "--check", "--graph", "catalog:K4uK1",
                     "--matrix", k4k1_matrix, "--beta", "3-5,4-5",
                     "--json", str(rp)])
        assert code == 0
        paths.append(rp.read_bytes())
    assert paths[0] == paths[1]


def test_parser_built_once_leaves_no_state_between_calls(k4k1_matrix,
                                                         tmp_path):
    runs = (["libset", "--enumerate", "--graph", "catalog:K4uK1",
             "--matrix", k4k1_matrix, "--max-size", "2", "--seed", "3"],
            ["libset", "--graph", "catalog:K4uK1", "--matrix", k4k1_matrix,
             "--beta", "3-5,4-5"],
            ["verify", "--kind", "sap", "--graph", "catalog:K4uK1",
             "--matrix", k4k1_matrix, "--tol", "1e-6"],
            ["zf", "--number", "--graph", "catalog:P3xP4"])

    def report(argv, tag):
        rp = tmp_path / ("%s.json" % tag)
        main(argv + ["--json", str(rp)])
        return rp.read_bytes()

    alone = []
    for k, argv in enumerate(runs):
        _build_parser.cache_clear()
        alone.append(report(argv, "alone%d" % k))
    _build_parser.cache_clear()
    for order in ((0, 1, 2, 3), (3, 2, 1, 0)):
        for k in order:
            assert report(runs[k], "seq%d" % k) == alone[k]
    assert _build_parser.cache_info().misses == 1


def test_timed_adds_timings(k4k1_matrix, tmp_path):
    rp = tmp_path / "t.json"
    main(["libset", "--check", "--graph", "catalog:K4uK1",
          "--matrix", k4k1_matrix, "--beta", "3-5,4-5",
          "--timed", "--json", str(rp)])
    doc = json.loads(rp.read_text())
    assert doc["timings"]["total_s"] >= 0


def test_realize_shape(tmp_path, capsys):
    code = main(["realize", "--spectrum", "0,1,1,1,4", "--shape", "star",
                 "--seed", "0"])
    assert code == 0
    assert "deviation=" in capsys.readouterr().out


def test_realize_negative_first_value(tmp_path, capsys):
    out = tmp_path / "m.txt"
    code = main(["realize", "--spectrum", "-2,-1,0,1,2.5", "--graph",
                 "catalog:P5", "--seed", "0", "--out", str(out)])
    assert code == 0
    assert "multiplicities=[1, 1, 1, 1, 1]" in capsys.readouterr().out
    m = read_matrix(str(out)).to_float()
    assert np.allclose(np.linalg.eigvalsh(m), [-2, -1, 0, 1, 2.5])
    assert main(["realize", "--spec", "-1/2, -1e-1,3", "--shape",
                 "path"]) == 0


def test_reproduce_command(tmp_path, capsys):
    rp = tmp_path / "r.json"
    code = main(["reproduce", "k4k1", "--seed", "2", "--json", str(rp)])
    assert code == 0
    out = capsys.readouterr().out
    assert "k4k1: pass" in out
    doc = json.loads(rp.read_text())
    assert doc["verdicts"]["ok"] is True
    assert doc["verdicts"]["failed_stage"] is None


def test_seed_env_default(k4k1_matrix, tmp_path, monkeypatch):
    monkeypatch.setenv("LIBERATRIX_SEED", "7")
    rp = tmp_path / "e.json"
    main(["liberate", "--graph", "catalog:K4uK1", "--matrix", k4k1_matrix,
          "--beta", "3-5,4-5", "--json", str(rp)])
    assert json.loads(rp.read_text())["inputs"]["seed"] == 7

    monkeypatch.setenv("LIBERATRIX_SEED", "zebra")
    assert main(["zf", "--number", "--graph", "catalog:P3"]) == 2


def test_jsonable_covers_the_payload_types():
    from fractions import Fraction

    m = RatMatrix.zeros(1, 2)
    m[0, 1] = Fraction(1, 3)
    doc = _jsonable({"f": Fraction(-2, 7), "m": m,
                     "a": np.array([[1.5, 0.0]]), "g": catalog("P2"),
                     "t": (1, "x"), "s": {3, 1}})
    assert doc["f"] == "-2/7"
    assert doc["m"]["entries"] == [["0", "1/3"]]
    assert doc["a"] == [[1.5, 0.0]]
    assert doc["g"]["edges"] == [[1, 2]]
    assert doc["t"] == [1, "x"]
    assert doc["s"] == [1, 3]
