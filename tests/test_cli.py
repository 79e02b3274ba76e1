"""The command-line interface: output contracts and exit codes."""

import ast
import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import blobcell
from blobcell import blob, cli, kronecker, tables
from blobcell.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


def _setenv(values: dict) -> None:
    for k, v in values.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v


def run(*args, env=None):
    """`blobcell ARGS` in this process, under `env` (a None value unsets a
    variable); any exception but SystemExit is caught with exit code 1."""
    saved = {k: os.environ.get(k) for k in env or {}}
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    try:
        _setenv(env or {})
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(list(args), prog_name="blobcell")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) \
            else int(exc.code is not None)
        exception = exc if code else None
    except Exception as exc:
        code, exception = 1, exc
    finally:
        _setenv(saved)
    return Result(code, out.getvalue(), err.getvalue(), exception)


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
    '{"P": {"dominoes": [[1, [1, 1], [1, 2]], [3, [1, 3], [1, 4]]]}, '
    '"Q": {"dominoes": [[1, [1, 1], [1, 2]], [2, [1, 3], [1, 4]]]}}',
    '{"P": {"dominoes": [[5, [1, 1], [1, 2]]]}, '
    '"Q": {"dominoes": [[7, [1, 1], [1, 2]]]}}',
], ids=["not-an-object", "tableaux-not-objects", "non-adjacent-cells",
        "not-standard", "labels-1-3", "label-5-against-7"])
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


@pytest.mark.parametrize("args", [
    ["blob", "dims", "0"],
    ["blob", "verify", "0"],
    ["blob", "standard", "0", "0"],
], ids=["dims", "verify", "standard"])
def test_blob_rejects_rank_0(args):
    res = run(*args)
    assert res.exit_code == 2
    assert "n must be >= 1, got 0" in res.output


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


def test_blob_m_is_bounded_before_any_library_work(monkeypatch):
    # the cost grows fast with |m|: `blob verify 2 -m 2000` took 16 s on a
    # 2-vCPU Xeon, and `-m 10000` over two minutes
    def refuse(*args, **kwargs):
        raise AssertionError("a standard module was built")

    monkeypatch.setattr(blob, "standard_module", refuse)
    for args in (["verify", "2"], ["standard", "2", "0"]):
        for m in ("65", "-65", "10000"):
            res = run("blob", *args, "-m", m)
            assert res.exit_code == 2, (args, m)
            assert f"m={m} exceeds the blob parameter bound |m| <= 64" \
                in res.output
        for m in ("64", "-64"):  # the bound itself is allowed
            res = run("blob", *args, "-m", m)
            assert isinstance(res.exception, AssertionError), (args, m)


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


_NINE = ("2", "1", "3", "4", "5", "6", "7", "8", "9")


def test_usage_errors_exit_2():
    assert run("wb", "enumerate", "0").exit_code == 2
    assert run("domino", "insert").exit_code == 2
    assert run("domino", "insert", "--", "1", "1").exit_code == 2
    assert run("kleshchev", "4", "4", "2").exit_code == 2  # e != 2m-1
    assert run("nonsense").exit_code == 2
    res = run("knuth", "class", "--", *_NINE)  # longer than BLOBCELL_MAX_N
    assert res.exit_code == 2
    assert "window length 9 exceeds enumeration bound 8" in res.output


def test_knuth_class_length_follows_max_n():
    res = run("knuth", "class", "--format", "json", "--", *_NINE,
              env={"BLOBCELL_MAX_N": "9"})
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["size"] == 9


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


# The insertion pair of the window 2 3 -1, for `domino reverse`.
_PAIR = ('{"P": {"dominoes": [[1, [1, 1], [2, 1]], [2, [1, 2], [2, 2]], '
         '[3, [1, 3], [1, 4]]], "shape": [4, 2]}, '
         '"Q": {"dominoes": [[1, [1, 1], [1, 2]], [2, [1, 3], [1, 4]], '
         '[3, [2, 1], [2, 2]]], "shape": [4, 2]}}')

# SHA-256 of the stdout of every command in each format, recorded when
# every command still built all three renderings (the charge 10^9 rows with
# the tuple-keyed Fock table, `klbasis 4` and the zero vector of `fock f`
# when each output was still held whole); "PAIR" stands for _PAIR.
STDOUT_DIGESTS = {
    ("wb enumerate 3", "json"):
        "885c1d5546dcd56abe98c9be8c7121cabc2978cd30bb84343b8485d6cb8252c1",
    ("wb enumerate 3", "csv"):
        "9d17899d4bdd7facfcf4e12001acc30ceeceeb8ab73e0c9f54ad59b8d4acebc6",
    ("wb enumerate 3", "pretty"):
        "63c89e3f3307c6afa53bd307d0797e72d48aa0478b6b1d33765a3b5a403c54f8",
    ("wb enumerate 4 --count", "json"):
        "44025277f66ca4b9a7fdf6caa1f5da3494732ddb51f3ba639fd00436d557c1b5",
    ("wb enumerate 4 --count", "csv"):
        "942ff73a867af33210254f9084d40cce1aaebfbaa3ce05dc63126c914b81d155",
    ("wb enumerate 4 --count", "pretty"):
        "6442bc26a7c562f5afe6467dab36365c709909f6a81afcecfc0c25cff0f1bab0",
    ("wb test 3", "json"):
        "c6d78d893f34fa618f906de9b8d6cef949363713b1f153871fd436061daf7182",
    ("wb test 3", "csv"):
        "ca204dab080499961ee922a86ba573dd75d7d158d794c7d4b4f63e7dd97da190",
    ("wb test 3", "pretty"):
        "3f0540daa523a712c98917fe2588587b2ca4c041ff6b3b4956bd7f0f50befe33",
    ("domino insert -- 2 3 -1", "json"):
        "3a52564a5303c47b00c6d6fc89ee35d3406ad27143ca5c0d0b7407cf4c00dcae",
    ("domino insert -- 2 3 -1", "csv"):
        "5260d91e0f124f9a9f0c789c6d86a179df1eef70881fe3751d5663d9933d0077",
    ("domino insert -- 2 3 -1", "pretty"):
        "447f3dc60d52014eb347255a30ea3bab2d3587ce1abfdb323b7c3a455dc74af2",
    ("domino reverse PAIR", "json"):
        "1c1b2d1ac714aa03f445ac44378ef41d523530901c665b784cd4e621a5e4df78",
    ("domino reverse PAIR", "csv"):
        "cd83c97b5034ec7931e04227aedc8ffb88223a30ce709fc78b3d95c7542ab65d",
    ("domino reverse PAIR", "pretty"):
        "cfc3f1de8d64c4b46406d663408cd933246d415d2d60ac9aa2086027e04fa1b9",
    ("domino shape -- 2 -3 1", "json"):
        "b5afc0bb9b8b7d43e186d501a5ee4e83eca774cb4ba20cc98088c2d5578ecc5d",
    ("domino shape -- 2 -3 1", "csv"):
        "01d9470f4e44b8d47f1429f33ad39ab2c7f4a527aa72e28db345ffb971529984",
    ("domino shape -- 2 -3 1", "pretty"):
        "96c671dff08033e909e8744500506f9033e60dfcef58d9aa7b9d49e7499f1b35",
    ("knuth class -- 2 -3 1", "json"):
        "5781eb4ad848e0d444bd60773644468d978c399405990f0b9eda1b96205645bb",
    ("knuth class -- 2 -3 1", "csv"):
        "734d68218b9b864eecb248745b75bc0dab8ddae9ce2bb915232ea3e754ce3b69",
    ("knuth class -- 2 -3 1", "pretty"):
        "aef8463bf17ed2b27cf2f0124be7c761f849f6606f80b214bad99c2b67ae609f",
    ("klbasis 2", "json"):
        "69507c1f4998c3cd2e3e12aa14e97b2384e2aafc576e567bf88196053695a7a2",
    ("klbasis 2", "csv"):
        "d326029a876c7d878b0ed3690fbfc5f8f5dc3d3e9e3c142dc128be4717e7613f",
    ("klbasis 2", "pretty"):
        "902292226642082fab19de7964cf7a28d2345a42c23f08e03f25e7c6b4609e02",
    ("klbasis 3", "json"):
        "c63c8837a6874d5fb3f7aa8fec641f4bfcb615b220b4a4894b6f2794aada0786",
    ("klbasis 3", "csv"):
        "93fb909733dcb74bbe611839579226fe896c63537b81a4812a6c6a0d7be75079",
    ("klbasis 3", "pretty"):
        "97a213249e59ca83de1c94d917a4656f571b51a5ba2999ec635c9bcf3971564c",
    ("klbasis 4", "json"):
        "118d990ee7e6012aa690a35a8e0deb5dcd79b2b65bfeb008eee6ee5921fa8131",
    ("klbasis 4", "csv"):
        "c172842c2d1cdc768b7554452254ac4f2fe583702b2e5488a47bd1c8d1b54007",
    ("klbasis 4", "pretty"):
        "a2d0e00f20a478b181154d6fe1170a735f7b223879f875e2dc144e3117900ab2",
    ("cells 3", "json"):
        "ce7ef31a21be37c74b6704ea82147bde367f2a860a9f3071cf6fc59c8d47709e",
    ("cells 3", "csv"):
        "fe324c5bb52f728ffb7a59e1a9f6f45a44b813d6fa20651ad1f6bd7706230f5c",
    ("cells 3", "pretty"):
        "cef2bc82c12a7d8e5ff2460ea551a26735212231781fa4e58973b562f87a7ba4",
    ("ideal check 3", "json"):
        "e272cb2604d66bbe2d7babc7827e90d42cec8818da36c26cfb31b0831b00a970",
    ("ideal check 3", "csv"):
        "b707fca8310079469a09703e6a50f016d9e0d711a607822e0759bbac2b5b0e64",
    ("ideal check 3", "pretty"):
        "85c3b53f17d7a199108b6299ce88b1d347003ca67fe39f37cc14fffc48a2795d",
    ("blob dims 4", "json"):
        "37b5c4bba38e92bb69b6aca7731d6e9e15f0813b494ad659211674569d078337",
    ("blob dims 4", "csv"):
        "685b3ba9a4a97377817da341e264c8b7ec550c6e44ab968c2903d055fd2048c6",
    ("blob dims 4", "pretty"):
        "c091933519fa277d882bd6a3216d622b0c636c223804b22c16d3d2148cbca9ed",
    ("blob standard 3 1", "json"):
        "1eda5ac2ced4cb9a403a4e1cc5646c631eaaeeaff4901a90cadee6a137fc37ac",
    ("blob standard 3 1", "csv"):
        "03c3e9d61b3b2c9f57dafd881b61366cd3ec7d1b2bec5eece34c78e26c9f541c",
    ("blob standard 3 1", "pretty"):
        "6d6f81f639bfc82bcd117a135020b2b7392d3634f2b56a64fb3f413d3c2272a7",
    ("blob verify 3", "json"):
        "a670b6ae97387227a27198e024707d3c4f10cd1361f93fc200f8c096a817c96e",
    ("blob verify 3", "csv"):
        "03ae1f5ecd4009b4018bd56177fdf95386c3a87334dce4cb67578b8ac2cf7276",
    ("blob verify 3", "pretty"):
        "96f05d985aede966a9a0699456e515e2e50fe5423daa43a6cc5be54d07e2b3ae",
    ("cellcompare 2", "json"):
        "7e915fb07a9b51adf38f35c07732c22399d4558af9092aed7afcd3fe0be5dd07",
    ("cellcompare 2", "csv"):
        "3fbe5fdc3f4e9e01f389bc210610cad7d7aadc09f645a4873bb4935932b171e2",
    ("cellcompare 2", "pretty"):
        "6c9f2e3db835e0980eeb54d9bdf5a8527395ebcd21db377f57826b657bd42787",
    ("tensor check 3", "json"):
        "fcfe1bebf1d8f2bb0b103aba7271756dad77a93d2e69144fdfda9ba9b4e2afa7",
    ("tensor check 3", "csv"):
        "c151d14869c238d29916884b295f35ed576efe77bafa99bbda31d3fedf23be72",
    ("tensor check 3", "pretty"):
        "86eaaa4aa8c6665087d40f21fea3f9aa310ba1674536f7f291c987e1c3981776",
    ("fock f -- 3 0 1 1 0 2 1 0", "json"):
        "2fab4038feb1a7ae6d5a807fedcab82825957f233453952bd0b2ba0dbcc3a344",
    ("fock f -- 3 0 1 1 0 2 1 0", "csv"):
        "e12824012b2284269466c8c89e6824894ebd0fd26a8f8a0e59df43eb8afe22da",
    ("fock f -- 3 0 1 1 0 2 1 0", "pretty"):
        "501f6fcf6f04a8d7358fcc29efdb95603e05b8058ffbecded08e62caf28b0f8b",
    ("fock f -- 3 0 0 1", "json"):
        "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
    ("fock f -- 3 0 0 1", "csv"):
        "718ff2b3232d5785828c0ab5e4893409acbb1ea4a7051f1af244054ff37404af",
    ("fock f -- 3 0 0 1", "pretty"):
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    ("fock crystal -- 3 -1 0 0 1 0 2 2 1 1 0 0 2", "json"):
        "34f3e319eb0ac6f64f0492ceabe660242cd6813768e6cfdaa66db28ab4079dcd",
    ("fock crystal -- 3 -1 0 0 1 0 2 2 1 1 0 0 2", "csv"):
        "de829956da314d600510a31b05cc3349469861517f5ffcf340e7f6464cce2dc2",
    ("fock crystal -- 3 -1 0 0 1 0 2 2 1 1 0 0 2", "pretty"):
        "4a7ac637dda0c238ad8234de621e0acd45ab4d91e8b57bf561a03eb0bb813b6e",
    ("fock canonical -- 6 3 -1 0", "json"):
        "2d7347015d239eb1dc3e730c1c02f94733623e0c2e67ea5ee77c98c46a62fefb",
    ("fock canonical -- 6 3 -1 0", "csv"):
        "59eaf6288cb1b281c18e024986a4b79f6a5e7472bc728e26dba7cb76d3ea5249",
    ("fock canonical -- 6 3 -1 0", "pretty"):
        "4ef45bbb19905edd332988e517614878b351c9ea253449cf7ce71922b32566db",
    ("fock canonical -- 8 3 1000000000 0", "json"):
        "ae423b2c8c31a82acd538ab1115dbb803cb936e5e81674d71b2f878ac9618730",
    ("fock canonical -- 8 3 1000000000 0", "csv"):
        "be90709ffb8b4fb2e11dc4d0f0dfa18d344feb140650ee3e08a04112e7543e08",
    ("fock canonical -- 8 3 1000000000 0", "pretty"):
        "4c4b18a16e79d77ef92d21317ac55d73643b6509182f774c05ad91ea93049461",
    ("decomp 4 3 2", "json"):
        "f8adec853e297f5021278dd1d72ec9fb3041701f747f0d4b776aa15994348454",
    ("decomp 4 3 2", "csv"):
        "3a24f15eb33106790adc644f6e950307ced1d6b47b25fff0ac1c407007b2edfb",
    ("decomp 4 3 2", "pretty"):
        "7579852e586603c39155677d8200aeb0c79fa6aa6cf587604a142e3fa7219f59",
    ("kleshchev 6 3 2", "json"):
        "cbd6aaaeb2ffd65a50fec399e3a6dbc7542fc4ecd6027985673645d074924cad",
    ("kleshchev 6 3 2", "csv"):
        "f213a141e178a965bfaaa412aa75ff35a81ebb16c43ce3dcca6ecf77af73f5f4",
    ("kleshchev 6 3 2", "pretty"):
        "1ebd0250bfbb226f9a2be3c33f72136a15ff803fbeca74c74de6948fb977c77f",
    ("tables", "json"):
        "d0e716e43f4075f5be1be850a5ab77be3cc044206f68d0fb3f5ea2d68d77599b",
    ("tables", "csv"):
        "8bb8474653912046b15a5816e5d363394ca160b99a44bb1df19bbeeb2e86532d",
    ("tables", "pretty"):
        "7c4ff5f718a72095df7e8af88874c579924efe70c8b6b1da0e7b414f8f507066",
    ("tables --paper", "json"):
        "92db40b084404ae445896141886a4654e33c98b3bddff62bcf26679bdae61171",
    ("tables --paper", "csv"):
        "82cc29d879aa87d7228b4782fd03698de18fb89ba6ddf17d5cb4605dfdd133b5",
    ("tables --paper", "pretty"):
        "92e6488c88d1ddf2fe524cf4e1265ea645a49c2718956e6c22c788a5a166533f",
}


@pytest.mark.parametrize("cmd, fmt", sorted(STDOUT_DIGESTS))
def test_stdout_digest(cmd, fmt):
    head, sep, tail = cmd.partition(" -- ")
    args = [_PAIR if a == "PAIR" else a for a in head.split()]
    res = run(*args, "--format", fmt, *(["--", *tail.split()] if sep else []))
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() \
        == STDOUT_DIGESTS[cmd, fmt]


class _CountingStdout(io.StringIO):
    """A stdout that counts its writes."""

    writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


def test_klbasis_renders_from_the_packed_rows(monkeypatch):
    # klbasis reads the build's packed rows: with every decoded read of the
    # C-basis refused, it still prints the pinned bytes.
    def refuse(self, key):
        raise AssertionError(f"C_{key} was decoded")

    monkeypatch.setattr(kronecker.Decoded, "__getitem__", refuse)
    for fmt in ("json", "csv", "pretty"):
        res = run("klbasis", "3", "--format", fmt)
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(res.stdout_bytes).hexdigest() \
            == STDOUT_DIGESTS["klbasis 3", fmt]


@pytest.mark.parametrize("n, elements", [(3, 48), (4, 384)])
def test_klbasis_csv_is_streamed_in_few_writes(n, elements):
    # CSV has one row per term (40,633 at n = 4): they reach stdout in
    # chunks, at most one write per element, and more than one write
    # once the output outgrows a chunk.
    out = _CountingStdout()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as end:
        main(["klbasis", str(n), "--format", "csv"], prog_name="blobcell")
    assert end.value.code == 0
    assert 1 <= out.writes <= elements
    assert (out.writes > 1) == (len(out.getvalue()) > cli._CHUNK)
    if n == 3:
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() \
            == STDOUT_DIGESTS["klbasis 3", "csv"]


# A fresh `blobcell` process that reports on stderr, last, which blobcell
# modules it loaded (without the package prefix), and json, argparse,
# click, dataclasses, fractions and decimal if it did.
_FRESH = """
import sys
from blobcell.cli import main
try:
    main(sys.argv[1:], prog_name="blobcell")
finally:
    print(" ".join(m.removeprefix("blobcell.") for m in sys.modules
                   if m.startswith("blobcell.")
                   or m in ("json", "argparse", "click", "dataclasses",
                            "fractions", "decimal")),
          file=sys.stderr)
"""


def run_fresh(*args, env=None):
    """(exit code, stdout, stderr lines, modules loaded) of a new process."""
    src = os.path.dirname(os.path.dirname(blobcell.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FRESH, *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})})
    *lines, loaded = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, lines, set(loaded.split())


_HEAVY = {"hecke", "fock", "blob", "laurent", "kronecker"}


def test_reader_leaving_early_ends_quietly_in_a_fresh_process():
    # `blobcell klbasis 4 | head -1`: 1 MB of output, and the reader closes
    # the pipe after the first line.
    src = os.path.dirname(os.path.dirname(blobcell.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from blobcell.cli import main; main()",
         "klbasis", "4"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path})
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.BROKEN_PIPE == 141
    assert first == b"C[1 2 3 4] = (1) T[1 2 3 4]\n"
    assert err == b""


@pytest.mark.parametrize("args, code, unloaded", [
    (["--help"], 0, _HEAVY | {"argparse"}),
    (["nonsense"], 2, _HEAVY | {"argparse"}),
    (["wb", "enumerate", "4", "--count"], 0, _HEAVY | {"json"}),
    (["wb", "enumerate", "0"], 2, _HEAVY),
    (["klbasis", "2"], 0, {"fock", "blob", "domino", "tensor", "partitions",
                           "fractions", "decimal"}),
    (["kleshchev", "4", "4", "2"], 2, _HEAVY | {"partitions", "tables"}),
    (["decomp", "10", "4", "2"], 2, _HEAVY | {"partitions"}),
    (["fock", "canonical", "--", "10", "1", "0", "0"], 2, _HEAVY),
    (["fock", "crystal", "1", "0", "0", "0"], 2, _HEAVY),
    (["klbasis", "0"], 2, _HEAVY | {"tensor", "partitions"}),
    (["cells", "0"], 2, _HEAVY),
    (["ideal", "check", "0"], 2, _HEAVY),
    (["tensor", "check", "0"], 2, _HEAVY),
    (["cellcompare", "0"], 2, _HEAVY | {"partitions"}),
    (["blob", "standard", "0", "0"], 2, _HEAVY | {"partitions"}),
    (["blob", "verify", "3"], 0,
     {"hecke", "fock", "domino", "kronecker", "tensor", "dataclasses",
      "fractions", "decimal"}),
    (["domino", "insert", "--", "1", "1"], 2, _HEAVY | {"domino", "knuth"}),
    (["domino", "shape", "--", "1", "1"], 2, _HEAVY | {"domino", "knuth"}),
    (["knuth", "class", "--", "1", "1"], 2, _HEAVY | {"domino", "knuth"}),
    (["knuth", "class", "--", *_NINE], 2, _HEAVY | {"domino", "knuth"}),
    (["domino", "insert", "--", "2", "3", "-1"], 0,
     _HEAVY | {"dataclasses", "partitions"}),
], ids=["help", "nonsense", "wb-count", "usage-error", "klbasis",
        "kleshchev-usage-error", "decomp-usage-error",
        "fock-canonical-usage-error", "fock-crystal-usage-error",
        "klbasis-usage-error", "cells-usage-error",
        "ideal-usage-error", "tensor-usage-error", "cellcompare-usage-error",
        "blob-standard-usage-error", "blob-verify",
        "domino-insert-window-error", "domino-shape-window-error",
        "knuth-class-window-error", "knuth-class-too-long", "domino-insert"])
def test_command_loads_only_the_modules_it_uses(args, code, unloaded):
    got, _, lines, loaded = run_fresh(*args)
    assert got == code, lines
    assert not loaded & (unloaded | {"click"})
    # weylb reads BLOBCELL_MAX_N once the walk reaches a group or command
    assert ("weylb" in loaded) == (args[0] not in ("--help", "nonsense"))


@pytest.mark.parametrize("args, env, message", [
    (["cellcompare", "2", "-m", "1"], None, "no valid root"),
    (["klbasis", "4"], {"BLOBCELL_MAX_N": "3"}, "exceeds KL bound 3"),
    (["cellcompare", "2", "-m", "16"], None, "conductor 124 exceeds bound 120"),
    (["blob", "verify", "2", "-m", "100000"], None,
     "m=100000 exceeds the blob parameter bound |m| <= 64"),
    (["blob", "standard", "2", "0", "-m", "-65"], None,
     "m=-65 exceeds the blob parameter bound |m| <= 64"),
    (["fock", "canonical", "--", "9", "3", "10", "0"], None,
     "no canonical basis at charge (10, 0), e=3: no admissible candidate"),
], ids=["specialization-invalid", "bound-exceeded", "conductor-overflow",
        "blob-verify-huge-m", "blob-standard-negative-m",
        "fock-canonical-far-charge"])
def test_library_errors_exit_2_in_a_fresh_process(args, env, message):
    code, _, lines, _ = run_fresh(*args, env=env)
    assert code == 2
    assert not any("Traceback" in l for l in lines)
    assert message in lines[-1]


@pytest.mark.parametrize("args", [
    [],
    ["wb"],
    ["wb", "enumerate"],
    ["wb", "enumerate", "abc"],
    ["wb", "enumerate", "3", "--format", "xml"],
    ["wb", "enumerate", "3", "--bogus"],
    ["domino", "insert", "2", "3", "-1"],
    ["cellcompare", "3", "-m", "x"],
], ids=["no-arguments", "group-without-command", "missing-argument",
        "not-an-integer", "bad-format", "unknown-option",
        "negative-entry-before-sentinel", "option-not-an-integer"])
def test_malformed_invocation_exits_2_in_a_fresh_process(args):
    code, out, lines, _ = run_fresh(*args)
    assert code == 2, lines
    assert out == ""
    assert not any("Traceback" in l for l in lines)


@pytest.mark.parametrize("args, shown", [
    (["--help"], ["wb", "klbasis", "tables"]),
    (["wb", "--help"], ["enumerate", "test"]),
    (["wb", "enumerate", "--help"], ["--count", "--format"]),
], ids=["top-level", "group", "command"])
def test_help_exits_0_in_a_fresh_process(args, shown):
    code, out, lines, _ = run_fresh(*args)
    assert code == 0, lines
    assert all(word in out for word in shown)


# SHA-256 of the stdout of `blobcell ... --help` at every level, at an
# 80-column terminal (argparse wraps the command help to COLUMNS).
HELP_DIGESTS = {
    "--help":
        "329e8b5d291995a450ecd56e6ea558898c5673a018cffafa24a0b6481b90880f",
    "blob --help":
        "363f7f2a2fa11b02d39a13c9ab9052cef1e8caf556267d2319c1224181dceccf",
    "domino --help":
        "fec02ae9ca67ae35e4034232c7d1991d951eb343153863df08cedcd8bc9c4e61",
    "fock --help":
        "fcaa86c5c71dcc0f4299697b7c4cc504e010cd00e8e2b3d79aef0eb98f407578",
    "ideal --help":
        "508d0923af9cd06e30be4505d6cd998bbfcfb1523ec1bbd7407095cf7b5e1b66",
    "knuth --help":
        "c31c083fcc2021bb6036f89a4fee67f5d3472c9452bb2641638da970c02e05dd",
    "tensor --help":
        "b6ebc0cb8cd7ffc91342beac550580a7574a993bda5609ead7ba166f9aeb34d1",
    "wb --help":
        "2ae9dbcfe1fb29cee7d59067c7dd3ab9c5eb100900dcd11e0ca92127bcc2a34c",
    "blob dims --help":
        "1894b72075839a59caf5f6e54091d7469b045e0b1e606b9eb75c068fa1e1320e",
    "blob standard --help":
        "280bb072650ef35490ea4fa2ca3e0b31a6f1232a62630566ca153077a26cd821",
    "blob verify --help":
        "8d203b57239b447cf8e0b56227d24be9b200e690061fdcc4695671495c7d7c6d",
    "cellcompare --help":
        "72ef470b46a0859636dfa5836f0a5b1e0264ed8d8418bcec5077215e325aaa2b",
    "cells --help":
        "a1c64c1637607d81ca8360af8a359d0c6d61a212c3a879d4439c5f569aebe6ce",
    "decomp --help":
        "4b57516b285fccec5970749b8357ede9c683cdb7c9e95d27a735060e63a5bead",
    "domino insert --help":
        "56ce8cd053d01f78102ea2727ca7ce1993f5cbeeff679788d895c5be7632e682",
    "domino reverse --help":
        "cd2e4a64c73a7143329af983ae1e169be2a46c91ddc2e75d553047cfefe4e8f5",
    "domino shape --help":
        "e74e510ce44965fe38a1d43e6b1b5c4a9972e32c65ead6ae02c6977045a06d89",
    "fock canonical --help":
        "07d6009f1559485adf557ad6b0e92c9277f527cfd1b3e91921b598906fc79c36",
    "fock crystal --help":
        "3cdcb1714ee63b5ee02fd7afee10321c67008668969cfdf431bb1c80e96b99eb",
    "fock f --help":
        "aa224a0f297d4e3da4e50693a220eb2b5eaccbf1726b1363b9f9de5d828b11eb",
    "ideal check --help":
        "2ed3a9259f5ac5d0643052c8f78408f008d255767f7672590fd81840d689364d",
    "klbasis --help":
        "3598f5c0fcb9dd2144b1fe63d258d23a3736992ba2efaec55d78d48ea3312084",
    "kleshchev --help":
        "6037fdeed5e62360720d357121cfcb89ac9afedeb930ad3b2a714e6e8d9bb32c",
    "knuth class --help":
        "6762a2c17bddb19896f86bdc01b573c496ebb2578dbcd2608cbd061719d4057e",
    "tables --help":
        "269d7f6cd43e1567e3b1af8adc9f4e83c3ce0702081d2f62614655c083b1e9b3",
    "tensor check --help":
        "2b797a954462d14aad9d08c97f5f6c0d04fa1b87c9fb712f18626fc6e0dee373",
    "wb enumerate --help":
        "0cf62a795515d90438ccae5512dbe74f20f1d372d5a594e38cf4307b05a5f0ee",
    "wb test --help":
        "717ed0a10d690a8b0b21b567916c8e799018bc41470a2452db7f59d21992660a",
}


@pytest.mark.parametrize("argv", list(HELP_DIGESTS))
def test_help_digest(argv):
    res = run(*argv.split(), env={"COLUMNS": "80"})
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == HELP_DIGESTS[argv]


def test_command_paths():
    assert set(cli._COMMANDS) == {
        "wb enumerate", "wb test", "domino insert", "domino reverse",
        "domino shape", "knuth class", "klbasis", "cells", "ideal check",
        "tensor check", "blob dims", "blob standard", "blob verify",
        "cellcompare", "fock f", "fock crystal", "fock canonical", "decomp",
        "kleshchev", "tables"}
    assert set(HELP_DIGESTS) == {f"{p} --help".lstrip()
                                 for p in ["", *cli._GROUPS, *cli._COMMANDS]}


@pytest.mark.parametrize("path", sorted(cli._COMMANDS))
def test_command_table_entry(path):
    module, _, text = cli._COMMANDS[path]
    func = cli._command(path)
    assert func.__module__ == f"blobcell.{module}"
    assert " ".join(func.__doc__.split()) == text
    parser = cli._parser("blobcell", path)
    dests = {action.dest for action in parser._actions} - {"help"}
    assert dests == set(inspect.signature(func).parameters)


@pytest.mark.parametrize("args, code, modules", [
    (["--help"], 0, set()),
    (["nonsense"], 2, set()),
    (["wb", "--help"], 0, set()),
    (["wb", "enumerate", "--help"], 0, set()),
    (["wb", "enumerate", "2", "--count"], 0, {"cli_wb"}),
    (["domino", "shape", "--", "2", "-1"], 0, {"cli_domino"}),
    (["klbasis", "2"], 0, {"cli_hecke"}),
    (["blob", "dims", "2"], 0, {"cli_blob"}),
    (["kleshchev", "4", "3", "2"], 0, {"cli_fock"}),
], ids=["help", "nonsense", "group-help", "command-help", "wb", "domino",
        "hecke", "blob", "fock"])
def test_process_loads_only_its_own_command_module(args, code, modules):
    got, _, lines, loaded = run_fresh(*args)
    assert got == code, lines
    assert {m for m in loaded if m.startswith("cli_")} == modules


def _top_level(tree):
    """The nodes that run when the module is imported."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_command_modules_import_no_library_module_at_top_level():
    paths = sorted(Path(cli.__file__).parent.glob("cli_*.py"))
    assert {p.stem for p in paths} == {m for m, _, _ in cli._COMMANDS.values()}
    found = []
    for path in paths:
        for node in _top_level(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [("." * node.level) + (node.module or "")]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith((".", "blobcell"))
                      and name not in (".cli", "blobcell.cli")]
    assert found == []
