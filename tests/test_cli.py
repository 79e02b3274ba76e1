"""The command-line interface: output contracts and exit codes."""

import json

import pytest
from click.testing import CliRunner

from blobcell import blob, tables
from blobcell.cli import main


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


def test_wb_enumerate_count():
    res = run("wb", "enumerate", "2", "--count")
    assert res.exit_code == 0
    assert res.output.strip() == "6"


def test_wb_enumerate_lists_windows():
    res = run("wb", "enumerate", "1")
    assert res.exit_code == 0
    assert res.output == "-1\n1\n"


def test_wb_test_ok():
    res = run("wb", "test", "3")
    assert res.exit_code == 0
    assert "-> ok" in res.output


def test_domino_insert_json_roundtrip():
    res = run("domino", "insert", "--format", "json", "--", "2", "3", "-1")
    assert res.exit_code == 0
    pair = json.loads(res.output)
    assert pair["P"]["shape"] == pair["Q"]["shape"]
    res2 = run("domino", "reverse", json.dumps(pair))
    assert res2.exit_code == 0
    assert res2.output.strip() == "2 3 -1"


_NON_ADJACENT = '{"dominoes": [[1, [1, 1], [1, 3]]]}'
# Well-formed dominoes on one shape, but P's labels fall along its first row.
_NOT_STANDARD = ('{"P": {"dominoes": [[1, [1, 1], [2, 1]], [2, [1, 2], [2, 2]], '
                 '[3, [1, 4], [2, 4]], [4, [3, 1], [3, 2]], '
                 '[5, [1, 3], [2, 3]]]}, '
                 '"Q": {"dominoes": [[1, [1, 1], [1, 2]], [2, [1, 3], [1, 4]], '
                 '[3, [2, 1], [2, 2]], [4, [3, 1], [3, 2]], '
                 '[5, [2, 3], [2, 4]]]}}')


@pytest.mark.parametrize("pair", [
    "[]",
    '{"P": [], "Q": []}',
    '{"P": %s, "Q": %s}' % (_NON_ADJACENT, _NON_ADJACENT),
    _NOT_STANDARD,
], ids=["not-an-object", "tableaux-not-objects", "non-adjacent-cells",
        "not-standard"])
def test_domino_reverse_rejects_malformed_pair(pair):
    res = run("domino", "reverse", pair)
    assert res.exit_code == 2, res.output
    assert "invalid tableau pair" in res.output


def test_domino_shape():
    res = run("domino", "shape", "--", "-1")
    assert res.exit_code == 0
    assert res.output.strip() == "1 1"


def test_knuth_class():
    res = run("knuth", "class", "--format", "json", "--", "1", "2")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["size"] >= 1


def test_klbasis_1():
    res = run("klbasis", "1")
    assert res.exit_code == 0
    assert res.output == ("C[1] = (1) T[1]\n"
                          "C[-1] = (1) T[-1] + (-v) T[1]\n")


def test_ideal_check():
    res = run("ideal", "check", "2")
    assert res.exit_code == 0
    assert "-> ok" in res.output


def test_blob_dims_and_verify():
    res = run("blob", "dims", "3", "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["algebra_dim"] == 20
    res = run("blob", "verify", "2")
    assert res.exit_code == 0


def test_blob_standard_2_0():
    res = run("blob", "standard", "2", "0")
    assert res.exit_code == 0
    assert res.output == ("dim Delta_2(0) = 2\n"
                          "U_0:\n"
                          "  [0, 0]\n"
                          "  [1, -v - v^-1]\n"
                          "U_1:\n"
                          "  [-v - v^-1, 1]\n"
                          "  [0, 0]\n")


def test_blob_standard_past_the_diagram_bound_exits_2(monkeypatch):
    # Delta_14(0) would hold 14 dense matrices of 3,432 x 3,432 entries.
    def refuse(*args, **kwargs):
        raise AssertionError("a standard module was built")

    monkeypatch.setattr(blob, "standard_module", refuse)
    res = run("blob", "standard", "14", "0")
    assert res.exit_code == 2
    assert "n=14 exceeds diagram bound 8" in res.output
    assert "Traceback" not in res.output
    # BLOBCELL_MAX_N raises the bound, as for the other commands
    res = run("blob", "standard", "14", "0", env={"BLOBCELL_MAX_N": "14"})
    assert isinstance(res.exception, AssertionError)


def test_blob_dims_past_the_diagram_bound_exits_2(monkeypatch):
    # b_24 has more diagrams than can be listed; refuse before any work
    def refuse(*args, **kwargs):
        raise AssertionError("a half-diagram was built")

    monkeypatch.setattr(blob, "half_diagrams", refuse)
    monkeypatch.setattr(blob, "all_diagrams", refuse)
    res = run("blob", "dims", "24")
    assert res.exit_code == 2
    assert "n=24 exceeds diagram bound 8" in res.output
    assert "Traceback" not in res.output
    # BLOBCELL_MAX_N raises the bound, as for the other commands
    res = run("blob", "dims", "9", env={"BLOBCELL_MAX_N": "9"})
    assert isinstance(res.exception, AssertionError)


def test_tensor_check():
    res = run("tensor", "check", "3")
    assert res.exit_code == 0


def test_fock_crystal_anchor():
    res = run("fock", "crystal", "--",
              "3", "-1", "0", "0", "1", "0", "2", "2", "1", "1", "0",
              "0", "2")
    assert res.exit_code == 0
    assert res.output.strip() == "((6,), (4,))"


def test_fock_f_on_the_empty_bipartition():
    # f_1 f_0 applied to the empty bipartition, e = 3, charge (0, 1).
    res = run("fock", "f", "--", "3", "0", "1", "1", "0")
    assert res.exit_code == 0
    assert res.output == "((1,), (1,)): v\n((2,), ()): 1\n"


def test_kleshchev_pretty_matches_golden():
    res = run("kleshchev", "10", "3", "2", "--format", "pretty")
    assert res.exit_code == 0
    assert res.output.rstrip("\n") == tables.format_table(3, 2)


def test_tables_paper_ok():
    res = run("tables", "--paper")
    assert res.exit_code == 0
    assert "all 44 rows match: True" in res.output


def test_tables_prints_the_four_goldens():
    res = run("tables")
    assert res.exit_code == 0
    assert res.output.startswith("e=3 m=2\n"
                                 "    10  ((10), ())\n"
                                 "     8  ((9), (1))\n"
                                 "     6  ((8,1), (1))\n")
    assert [l for l in res.output.splitlines() if l.startswith("e=")] \
        == ["e=3 m=2", "e=5 m=3", "e=7 m=4", "e=9 m=5"]
    assert res.output == tables.format_tables() + "\n"


def test_usage_errors_exit_2():
    assert run("wb", "enumerate", "0").exit_code == 2
    assert run("domino", "insert").exit_code == 2
    assert run("domino", "insert", "--", "1", "1").exit_code == 2
    assert run("kleshchev", "4", "4", "2").exit_code == 2  # e != 2m-1
    assert run("nonsense").exit_code == 2


def test_max_n_env_cap():
    res = run("wb", "enumerate", "3", "--count",
              env={"BLOBCELL_MAX_N": "2"})
    assert res.exit_code == 2
    res = run("wb", "enumerate", "3", "--count",
              env={"BLOBCELL_MAX_N": "3"})
    assert res.exit_code == 0


def test_max_n_not_an_integer_exits_2():
    res = run("wb", "enumerate", "2", env={"BLOBCELL_MAX_N": "abc"})
    assert res.exit_code == 2
    assert "BLOBCELL_MAX_N" in res.output


def test_cellcompare_4():
    res = run("cellcompare", "4")
    assert res.exit_code == 0, res.output


def test_invalid_specialization_exits_2():
    res = run("cellcompare", "2", "-m", "1")
    assert res.exit_code == 2
    assert "no valid root" in res.output


def test_raised_cap_reaches_fock_bound():
    res = run("fock", "canonical", "--", "13", "3", "-1", "0",
              env={"BLOBCELL_MAX_N": "13"})
    assert res.exit_code == 0
    assert res.output.startswith("G(")
    assert run("fock", "canonical", "--", "13", "3", "-1", "0").exit_code == 2


def test_deterministic_output():
    a = run("cells", "2", "--format", "json").output
    b = run("cells", "2", "--format", "json").output
    assert a == b
    a = run("decomp", "4", "3", "2", "--format", "csv").output
    b = run("decomp", "4", "3", "2", "--format", "csv").output
    assert a == b


def test_decomp_exit_zero():
    res = run("decomp", "5", "5", "3")
    assert res.exit_code == 0
    assert res.output.strip().endswith("ok")
