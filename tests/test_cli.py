import contextlib
import hashlib
import io
import json
import random
import shlex
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sweep_contexts

from superkl import canonical, cli
from superkl.qmodule import ModuleVec
from superkl.weights import (
    Interval,
    Matrix01,
    TypeNC,
    enumerate_weights,
    koszul_dual,
    order_leq,
    parse_matrix,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def load_schema(name):
    path = resources.files("superkl") / "schemas" / f"{name}.json"
    return json.loads(path.read_text())


def validate(name, payload):
    jsonschema.validate(payload, load_schema(name))


def test_poset(capsys):
    code, out, _ = run_cli(capsys, "poset", "--interval", "0:0", "--n", "1", "--c", "0")
    assert code == 0
    payload = json.loads(out)
    validate("poset", payload)
    assert payload["count"] == 2
    # determinism
    _, out2, _ = run_cli(capsys, "poset", "--interval", "0:0", "--n", "1", "--c", "0")
    assert out == out2


def test_poset_trivial_type(capsys):
    code, out, _ = run_cli(capsys, "poset", "--interval", "0:0", "--n", "", "--c", "")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1


def test_poset_cover_relations(capsys):
    code, out, _ = run_cli(capsys, "poset", "--interval", "0:0",
                           "--n", "1,1", "--c", "0,0")
    payload = json.loads(out)
    assert {"lower": "@0:10/01", "upper": "@0:01/10"} in payload["covers"]
    # the per-block covers equal the covers of the order on all pairs
    _, out, _ = run_cli(capsys, "poset", "--interval", "0:2",
                        "--n", "2,1,1", "--c", "0,1,0")
    ws = enumerate_weights(Interval.finite(0, 2), TypeNC((2, 1, 1), (0, 1, 0)))
    above = {a: {b for b in ws if a != b and order_leq(a, b)} for a in ws}
    covers = sorted((a.text(), b.text()) for a in ws for b in above[a]
                    if not any(b in above[c] for c in above[a]))
    assert covers
    assert [(e["lower"], e["upper"]) for e in json.loads(out)["covers"]] == covers


def test_klpoly_maximal_weight(capsys):
    code, out, _ = run_cli(capsys, "klpoly", "--interval", "0:0",
                           "--n", "1,1", "--c", "0,0",
                           "--matrix", "10/10", "--mu", "10/10")
    assert code == 0
    payload = json.loads(out)
    validate("klpoly", payload)
    assert payload["d"] == "1"


def test_klpoly_infinite(capsys):
    code, out, _ = run_cli(capsys, "klpoly", "--interval", "z",
                           "--n", "1,1", "--c", "0,0",
                           "--matrix", "@0:10/01", "--mu", "@0:01/10")
    assert code == 0
    payload = json.loads(out)
    validate("klpoly", payload)
    assert payload["d"] == "q"
    assert "window" in payload


def test_canonical_and_formats(capsys):
    code, out, _ = run_cli(capsys, "canonical", "--interval", "0:0",
                           "--n", "1,1", "--c", "0,0")
    assert code == 0
    validate("canonical", json.loads(out))
    code, out, _ = run_cli(capsys, "canonical", "--interval", "0:0",
                           "--n", "1,1", "--c", "0,0", "--format", "tsv")
    assert code == 0 and "\t" in out


def test_crystal_dot(capsys):
    code, out, _ = run_cli(capsys, "crystal", "--interval", "0:0",
                           "--n", "1", "--c", "0", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    code, out, _ = run_cli(capsys, "crystal", "--interval", "0:1",
                           "--n", "1,1", "--c", "0,1")
    validate("crystal", json.loads(out))


def test_dot_rejected_elsewhere(capsys):
    code, _, err = run_cli(capsys, "poset", "--interval", "0:0",
                           "--n", "1", "--c", "0", "--format", "dot")
    assert code == 1
    assert json.loads(err)["error"]


def test_blocks(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--interval", "0:1",
                           "--n", "1,1", "--c", "0,0")
    assert code == 0
    validate("blocks", json.loads(out))


def test_defect(capsys):
    code, out, _ = run_cli(capsys, "defect", "--interval", "0:1",
                           "--n", "1,1", "--c", "0,0", "--matrix", "010/100")
    assert code == 0
    payload = json.loads(out)
    validate("defect", payload)
    assert payload["defect"] == 1
    code, out, _ = run_cli(capsys, "defect", "--interval", "z",
                           "--n", "1,1", "--c", "0,0", "--matrix", "@3:01/10")
    payload = json.loads(out)
    assert payload["defect"] == 1


def test_prinjective_finite(capsys):
    code, out, _ = run_cli(capsys, "prinjective", "--interval", "0:1",
                           "--n", "1,1", "--c", "0,0")
    assert code == 0
    payload = json.loads(out)
    validate("prinjective", payload)
    assert payload["count"] == 6


def test_prinjective_unknown_exit_code(capsys):
    code, out, _ = run_cli(capsys, "prinjective", "--interval", "z",
                           "--n", "1,1", "--c", "0,0",
                           "--matrix", "@40:10/01", "--max-r", "3")
    assert code == 2
    payload = json.loads(out)
    assert payload["prinjective"] == "unknown"


def test_undecided_result_is_json_whatever_the_format(capsys):
    argv = ("prinjective", "--interval", "z", "--n", "1,1", "--c", "0,0",
            "--matrix", "@40:10/01", "--max-r", "3")
    _, json_out, _ = run_cli(capsys, *argv)
    for fmt in ("tsv", "text"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (2, "")
        assert json.loads(out)["prinjective"] == "unknown"
        assert out == json_out


def test_undecided_result_honours_out(tmp_path, capsys):
    argv = ("prinjective", "--interval", "z", "--n", "1,1", "--c", "0,0",
            "--matrix", "@40:10/01", "--max-r", "3")
    _, stdout, _ = run_cli(capsys, *argv)
    target = tmp_path / "out.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out, err) == (2, "", "")
    assert target.read_text() == stdout


@pytest.mark.parametrize("interval", ["z", "geq:0", "leq:1"])
def test_prinjective_search_over_many_windows_is_quick(capsys, interval):
    # each window is decided by raising the weight to its top, not by
    # building the window's component, which grows about fourfold per window
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "prinjective", "--interval", interval, "--n", "1,3,3",
                             "--c", "1,0,1", "--matrix", "@0:101/111/000", "--max-r", "16")
    elapsed = time.perf_counter() - start
    assert code == 2 and err == ""
    payload = json.loads(out)
    assert payload["prinjective"] == "unknown" and len(payload["windows"]) == 16
    assert elapsed < 2, elapsed


def test_superweight_and_bruhat(capsys):
    code, out, _ = run_cli(capsys, "superweight", "--interval", "z",
                           "--n", "1,1", "--c", "0,1", "--coords", "0,0")
    assert code == 0
    payload = json.loads(out)
    validate("superweight", payload)
    assert payload["roundtrip"] is True
    code, out, _ = run_cli(capsys, "bruhat", "--interval", "z",
                           "--n", "1,1", "--c", "0,1",
                           "--coords", "0,0", "--mu-coords", "1,-1")
    assert code == 0
    payload = json.loads(out)
    validate("bruhat", payload)
    assert payload["leq"] is True


def test_linkage(capsys):
    code, out, _ = run_cli(capsys, "linkage", "--interval", "z",
                           "--n", "1,1", "--c", "0,1", "--coords", "1,-1")
    payload = json.loads(out)
    validate("linkage", payload)
    assert payload["up"] == [[0, 0]]


@pytest.mark.parametrize("argv", [
    ("superweight", "--n", "0", "--c", "0", "--coords", ""),
    ("linkage", "--n", "0,0", "--c", "0,1", "--coords", ""),
    ("bruhat", "--n", "0", "--c", "1", "--coords", "", "--mu-coords", ""),
], ids=["superweight", "linkage", "bruhat"])
def test_empty_coords_are_the_weight_of_no_coordinates(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    validate(argv[0], payload)
    weights = [payload[k] for k in ("weight", "lhs", "rhs") if k in payload]
    assert weights and all(w["coords"] == [] for w in weights)


def test_youngdim(capsys):
    code, out, _ = run_cli(capsys, "youngdim", "--interval", "0:0",
                           "--n", "1,1", "--c", "0,0",
                           "--matrix", "10/01", "--word", "0")
    assert code == 0
    payload = json.loads(out)
    validate("youngdim", payload)
    assert payload["bar_symmetric"] is True
    assert payload["value"] == "q^2 + 1"


def test_klr_verify(capsys):
    code, out, _ = run_cli(capsys, "klr-verify", "--interval", "0:1", "--d", "2")
    assert code == 0
    payload = json.loads(out)
    validate("klr_verify", payload)
    assert payload["ok"] is True


def test_nilhecke_rank(capsys):
    code, out, _ = run_cli(capsys, "nilhecke-rank", "--m", "2", "--cap", "8")
    assert code == 0
    payload = json.loads(out)
    validate("nilhecke_rank", payload)
    assert payload["ok"] is True


def test_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "nilhecke-rank", "--m", "9", "--cap", "4")
    assert code == 2
    assert json.loads(err)["error"] == "budget"


def over_budget(capsys, monkeypatch, argv, weight, budget):
    """Run argv with --max-block budget - 1 and budget: refused, then answered.

    The refused run registers no block.  Returns the weights whose blocks it
    counted.
    """
    canonical.clear_caches()
    counted, size = [], canonical.block_size
    monkeypatch.setattr(canonical, "block_size",
                        lambda lam, cap: counted.append(lam) or size(lam, cap))
    code, out, err = run_cli(capsys, *argv, "--max-block", str(budget - 1))
    assert code == 2 and out == ""
    assert err == ('{"error": "budget", "message": "block of '
                   f'{weight} exceeds --max-block {budget - 1}"}}\n')
    assert not canonical._single_block_cache
    built = counted.copy()
    canonical.clear_caches()
    unlimited = run_cli(capsys, *argv)
    canonical.clear_caches()
    assert run_cli(capsys, *argv, "--max-block", str(budget)) == unlimited
    assert unlimited[0] == 0
    return built


def test_max_block_refuses_a_block_before_building_it(capsys):
    # lam's block has 14,860 members: they are counted on the two pruned
    # halves of the direct builder, and neither built nor registered
    canonical.clear_caches()
    code, out, err = run_cli(capsys, "canonical", "--interval", "0:3", "--n", "2,2,2,2,2,2",
                             "--c", "0,1,0,1,0,1", "--matrix",
                             "11000/00111/01100/10011/00110/11001", "--max-block", "1")
    assert code == 2 and out == "" and json.loads(err)["error"] == "budget"
    assert not canonical._single_block_cache


CTX3 = ("--interval", "0:1", "--n", "1,1,1", "--c", "0,1,0")


def test_dualbasis_budget_reads_the_dual_block(capsys, monkeypatch):
    lam = parse_matrix("001/011/100", Interval.finite(0, 1), TypeNC((1, 1, 1), (0, 1, 0)))
    counted = over_budget(capsys, monkeypatch, ["dualbasis", *CTX3, "--matrix", "001/011/100"],
                          lam.text(), 5)
    assert counted == [koszul_dual(lam)]


def test_twisted_budget_reads_the_row_reversed_block(capsys, monkeypatch):
    lam = parse_matrix("001/011/100", Interval.finite(0, 1), TypeNC((1, 1, 1), (0, 1, 0)))
    counted = over_budget(capsys, monkeypatch, ["twisted", *CTX3, "--matrix", "001/011/100"],
                          lam.text(), 5)
    assert counted == [canonical._reverse_rows(lam)]


def test_klpoly_budget_bounds_every_window_of_an_infinite_interval(capsys, monkeypatch):
    # the block has 2 members in the base window 0:0 and 4 in -1:1
    argv = ["klpoly", "--interval", "z", "--n", "1,1", "--c", "0,1",
            "--matrix", "@0:100/011", "--mu", "@0:010/101"]
    lam = parse_matrix("@0:100/011", Interval.all_z(), TypeNC((1, 1), (0, 1)))
    over_budget(capsys, monkeypatch, argv, lam.text(), 4)
    canonical.clear_caches()
    code, _, err = run_cli(capsys, *argv, "--max-block", "2")
    assert code == 2 and json.loads(err)["error"] == "budget"


def test_vacuous_klr_inputs_are_refused(capsys):
    for argv, flag in ((("klr-verify", "--d", "-1"), "--d"),
                       (("klr-verify", "--d", "0"), "--d"),
                       (("nilhecke-rank", "--m", "0"), "--m"),
                       (("nilhecke-rank", "--m", "-2", "--cap", "8"), "--m"),
                       (("nilhecke-rank", "--m", "3", "--cap", "-5"), "--cap"),
                       (("nilhecke-rank", "--m", "3", "--cap", "5"), "--cap")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        payload = json.loads(err)
        assert payload["error"] == "SuperklError"
        assert payload["message"].startswith(flag + " must be at least"), argv
    # the smallest accepted inputs each check something
    for argv in (("klr-verify", "--d", "1"), ("nilhecke-rank", "--m", "3", "--cap", "6"),
                 ("nilhecke-rank", "--m", "1", "--cap", "0")):
        code, out, err = run_cli(capsys, *argv)
        payload = json.loads(out)
        assert code == 0 and err == "" and payload["ok"] is True
        assert payload.get("checked", 0) > 0 or payload["degrees"]


def test_prinjective_max_r_below_one_is_refused(capsys):
    argv = ("prinjective", "--interval", "z", "--n", "1,1", "--c", "0,0",
            "--matrix", "@0:10/01", "--max-r")
    for r in ("0", "-3"):
        code, out, err = run_cli(capsys, *argv, r)
        assert code == 1 and out == "", r
        payload = json.loads(err)
        assert payload["error"] == "SuperklError"
        assert payload["message"] == f"--max-r must be at least 1, got {r}"
    code, out, err = run_cli(capsys, *argv, "1")
    assert code == 0 and err == "" and json.loads(out)["windows"]


def test_negative_max_block_is_refused(capsys):
    argv = ("klpoly", "--interval", "0:1", "--n", "1,1", "--c", "0,1",
            "--matrix", "100/011", "--mu", "010/101", "--max-block")
    for budget in ("-1", "-40"):
        canonical.clear_caches()
        code, out, err = run_cli(capsys, *argv, budget)
        assert code == 1 and out == "", budget
        assert json.loads(err) == {"error": "SuperklError",
                                   "message": f"--max-block must be at least 0, got {budget}"}
        assert not canonical._single_block_cache
    # 0 stays unlimited
    code, out, err = run_cli(capsys, *argv, "0")
    assert code == 0 and err == "" and json.loads(out)["d"]


def test_error_payload_on_stderr(capsys):
    for argv, error in (
            (("poset", "--interval", "z", "--n", "1", "--c", "0"), "IntervalInfinite"),
            (("klpoly", "--interval", "0:1", "--n", "1,1", "--c", "0,0",
              "--matrix", "200/010", "--mu", "100/010"), "ValueError"),
            (("klpoly", "--interval", "0:1", "--n", "1,1", "--c", "0,0",
              "--matrix", "10000/010", "--mu", "1/010"), "ValueError"),
            (("klpoly", "--interval", "0:1", "--n", "1,1", "--c", "0,0",
              "--matrix", "10/010", "--mu", "100/010"), "ValueError"),
            # --schedule is not an option: the tower has one growth rule
            (("prinjective", "--interval", "z", "--n", "1,1", "--c", "0,0",
              "--matrix", "@0:10/01", "--max-r", "1", "--schedule", "bogus"), "UsageError"),
            (("prinjective", "--interval", "geq:0", "--n", "1,1", "--c", "0,0",
              "--matrix", "@0:10/01", "--max-r", "1", "--schedule", "bogus"), "UsageError"),
            (("prinjective", "--interval", "leq:0", "--n", "1,1", "--c", "0,0",
              "--matrix", "@0:10/01", "--max-r", "1", "--schedule", "bogus"), "UsageError")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == error
        if "--schedule" in argv:
            assert json.loads(err)["message"] == "unrecognized arguments: --schedule bogus"


@pytest.mark.parametrize("argv,message", [
    (("klr-verify", "--interval", "0:1", "--n", "1,2", "--c", "0", "--d", "1"),
     "n and c must have equal length"),
    (("nilhecke-rank", "--n", "1,2", "--c", "0,5"), "c entries must be 0 or 1"),
    (("nilhecke-rank", "--n=-1,2", "--c", "0,1"), "n entries must be nonnegative"),
    (("klr-verify", "--n", "1", "--c", "x"), "invalid literal for int() with base 10: 'x'"),
    (("klr-verify", "--c", "5", "--d", "1"), "n and c must have equal length"),
    (("nilhecke-rank", "--c", "0"), "n and c must have equal length"),
], ids=["ragged", "polarity", "negative-n", "malformed", "c-alone-klr", "c-alone-nilhecke"])
def test_the_echoed_type_is_validated(capsys, argv, message):
    # commands that never read the type still refuse an invalid one
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}
    # a valid type is echoed as the command read it
    code, out, err = run_cli(capsys, argv[0], "--n", "1,2", "--c", "0,1")
    assert code == 0 and err == "" and json.loads(out)["type"] == {"n": [1, 2], "c": [0, 1]}


@pytest.mark.parametrize("argv", [
    ("poset", "--interval", "-1:1", "--n", "1", "--c", "0"),
    ("superweight", "--interval", "z", "--n", "1,1", "--c", "0,1", "--coords", "-1,1"),
    ("linkage", "--interval", "z", "--n", "1,1", "--c", "0,1", "--coords", "-1,1"),
    ("bruhat", "--interval", "z", "--n", "1,1", "--c", "0,1", "--coords", "0,0",
     "--mu-coords", "-1,1"),
    ("klr-verify", "--colors", "-1,0"),
    ("youngdim", "--interval", "-1:0", "--n", "1,1", "--c", "0,0", "--matrix", "100/001",
     "--word", "-1,0"),
], ids=["interval", "superweight-coords", "linkage-coords", "mu-coords", "colors", "word"])
def test_values_with_a_leading_minus_need_no_equals_sign(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    flag = argv[-2]
    joined = [*argv[:-2], f"{flag}={argv[-1]}"]
    assert run_cli(capsys, *joined) == (0, out, "")
    assert json.loads(out)["command"] == argv[0]


@pytest.mark.parametrize("abbreviated,full", [
    (("klr-verify", "--col", "-1,0"), ("klr-verify", "--colors=-1,0")),
    (("superweight", "--interval", "z", "--n", "1,1", "--c", "0,1", "--coord", "-1,1"),
     ("superweight", "--interval", "z", "--n", "1,1", "--c", "0,1", "--coords=-1,1")),
], ids=["col", "coord"])
def test_abbreviated_signed_flags_resolve_as_argparse_does(capsys, abbreviated, full):
    code, out, err = run_cli(capsys, *abbreviated)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *full) == (0, out, "")


@pytest.mark.parametrize("argv,message", [
    (("klr-verify", "--co", "-1,0"), "ambiguous option: --co"),
    (("poset", "--interval", "0:0", "--n", "1,1", "--c", "-1,0"), "argument --c: expected one argument"),
], ids=["co", "c"])
def test_a_negative_value_after_a_flag_that_is_not_signed_is_a_usage_error(capsys, argv, message):
    # --co is ambiguous; --c is the polarity flag, not an abbreviation of --colors or --coords
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "UsageError" and message in error["message"]


def test_no_signed_flag_is_the_prefix_of_another_option():
    # so a signed flag spelled in full is its own unique prefix match
    flags = [flag for flag, _ in cli._OPTIONS]
    for signed in cli._SIGNED_FLAGS:
        assert [flag for flag in flags if flag.startswith(signed)] == [signed]


@pytest.mark.parametrize("argv", [
    ("bogus",), ("poset", "--bogus"), ("klr-verify", "--d", "x"),
    ("poset", "--format", "xml"), ("poset", "--interval"), ("poset", "--n", "-1,2"), (),
])
def test_argparse_rejections_are_json_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "UsageError"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: superkl")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "poset", "--interval", "0:0",
                           "--n", "1", "--c", "0", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["count"] == 2


def test_out_to_missing_directory_is_a_json_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "poset", "--interval", "0:0",
                             "--n", "1", "--c", "0", "--out", str(target))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_recursion_error_is_a_json_error(monkeypatch, capsys):
    def deep(args):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setitem(cli.COMMANDS, "klpoly", deep)
    code, out, err = run_cli(capsys, "klpoly", "--interval", "0:1",
                             "--n", "1,1", "--c", "0,0")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "RecursionError",
                               "message": "maximum recursion depth exceeded"}


def test_memory_error_is_a_json_error(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("out of memory")
    monkeypatch.setitem(cli.COMMANDS, "klpoly", exhausted)
    code, out, err = run_cli(capsys, "klpoly", "--interval", "0:1",
                             "--n", "1,1", "--c", "0,0")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "MemoryError", "message": "out of memory"}


def test_keyboard_interrupt_is_a_json_error(monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt("interrupted")
    monkeypatch.setitem(cli.COMMANDS, "klpoly", interrupted)
    try:
        code, out, err = run_cli(capsys, "klpoly", "--interval", "0:1",
                                 "--n", "1,1", "--c", "0,0")
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "KeyboardInterrupt", "message": "interrupted"}


def _ints(lo, hi, length):
    return st.lists(st.integers(lo, hi), min_size=length, max_size=length).map(
        lambda xs: ",".join(map(str, xs)))


_MALFORMED = st.sampled_from(["", "x", "-", "1,", ",", "0:", "@", "1.5", "/", "@x:1"])


@st.composite
def _argv(draw):
    """A command and its options over a context with |I_+| <= 3 and level <= 3.

    Each option is set or left at its default; a set one fits the context,
    so the commands run.  Then up to two options are set again, argparse
    keeping the last, to a value out of range or malformed.  The budgets
    --max-block and --max-r are always set, and neither --help nor --out is.
    """
    ncols = draw(st.integers(2, 3))
    lo = draw(st.integers(0, 1))
    interval = draw(st.sampled_from([f"{lo}:{lo + ncols - 2}", "z", "geq:0", "leq:1"]))
    # a window of a weight over an infinite interval may lie anywhere in it
    starts = [f"@{lo}:", ""] if interval[0].isdigit() else ["@0:", "@40:"]
    level = draw(st.integers(0, 3))
    n = draw(st.lists(st.integers(0, ncols), min_size=level, max_size=level))
    c = draw(st.lists(st.integers(0, 1), min_size=level, max_size=level))

    @st.composite
    def matrix(draw):
        # row i deviates from its polarity c_i at n_i of the columns
        rows = []
        for ni, ci in zip(n, c):
            devs = draw(st.permutations(range(ncols)))[:ni]
            rows.append("".join(str(ci ^ (k in devs)) for k in range(ncols)))
        return draw(st.sampled_from(starts)) + "/".join(rows)

    ragged = st.integers(0, 4).flatmap(lambda k: _ints(-1, 3, k))
    colors = st.integers(0, 3).flatmap(lambda k: _ints(-1, ncols, k))
    # flag: (fitting values, values out of range)
    options = {
        "--interval": (st.just(interval), st.sampled_from(["1:0", "geq:x", "z:1"])),
        "--n": (st.just(",".join(map(str, n))), ragged),
        "--c": (st.just(",".join(map(str, c))), ragged),
        "--format": (st.sampled_from(["json", "tsv", "dot", "text"]), st.just("xml")),
        "--matrix": (matrix(), st.just("1/1/1")),
        "--mu": (matrix(), st.just("1/1/1")),
        "--coords": (_ints(-3, 3, sum(n)), ragged),
        "--mu-coords": (_ints(-3, 3, sum(n)), ragged),
        "--word": (colors, st.just("9")),
        "--colors": (colors, st.just("-1,0,1,2,3")),
        "--d": (st.integers(1, 3).map(str), st.sampled_from(["0", "-1", "5"])),
        "--m": (st.integers(1, 3).map(str), st.sampled_from(["0", "-1"])),
        "--cap": (st.integers(2, 8).map(str), st.sampled_from(["0", "-1"])),
        "--max-r": (st.integers(1, 6).map(str), st.sampled_from(["0", "-1"])),
        "--threads": (st.sampled_from(["1", "2"]), st.just("0")),
        "--max-block": (st.integers(0, 6).map(str), st.just("-1")),
    }
    argv = [draw(st.sampled_from(sorted(cli.COMMANDS)))]
    for flag, (values, _) in options.items():
        if flag in ("--max-block", "--max-r") or draw(st.integers(0, 9)):  # else a default
            argv += [flag, draw(values)]
    for _ in range(draw(st.integers(0, 2))):
        flag = draw(st.sampled_from(sorted(options)))
        argv += [flag, draw(options[flag][1] | _MALFORMED)]
    return argv


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_argv())
def test_every_argv_keeps_the_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 1 or (code == 2 and not out):  # an error or a spent budget
        assert out == "" and err.endswith("\n") and err.count("\n") == 1, argv
        report = json.loads(err)
        assert type(report) is dict and set(report) == {"error", "message"}, argv
        assert (report["error"] == "budget") == (code == 2), argv
    else:
        assert err == "", argv
    if code == 2 and out:  # undecided: the payload is JSON on stdout
        assert type(json.loads(out)) is dict, argv


def test_full_width_rows_need_no_recursion(capsys):
    # psi lowers the 1 of the last row through all 1202 columns of I_+;
    # the kernel's worklist keeps that clear of the recursion limit
    near, far = "1" + "0" * 1201, "0" * 1201 + "1"
    interval, tnc = Interval.finite(0, 1200), TypeNC((1, 1), (0, 0))
    canonical.clear_caches()
    code, out, err = run_cli(capsys, "klpoly", "--interval", "0:1200", "--n", "1,1",
                             "--c", "0,0", "--matrix", f"{near}/{far}",
                             "--mu", f"{far}/{near}")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert (payload["d"], payload["p"]) == ("q", "q")  # as on 0:0, "10/01" and "01/10"
    lam = parse_matrix(f"{near}/{far}", interval, tnc)
    assert canonical.bar_psi(canonical.psi_monomial(lam)) == ModuleVec.monomial(lam)


def test_threads_flag(capsys):
    _, out1, _ = run_cli(capsys, "canonical", "--interval", "0:1",
                         "--n", "1,1", "--c", "0,0", "--threads", "1")
    _, out2, _ = run_cli(capsys, "canonical", "--interval", "0:1",
                         "--n", "1,1", "--c", "0,0", "--threads", "4")
    assert out1 == out2


# sha256 of the full stdout of small contexts, pinned so that a change of
# output bytes fails in the tests and not only in the benchmark.
GOLDEN = [
    ("poset 0:2 2,1 0,1 json",
     "b25e03a0e8e2aa2407a69b9e306d345a3341695ef9a4943ee6ec83e744c3cbec"),
    ("poset 0:1 1,1,1 0,1,0 json",
     "76c8348be3cd255b7e11419aa0a9b2aa66ff20aa7a790d75e8ba9878a575079c"),
    ("poset 0:2 2,1,2 0,1,0 tsv",
     "c70228abc15cf7dd5236a1061b7c5e121da09a9e46f88b1eb2221eb8ecce90b2"),
    ("poset 0:2 2,2 0,1 json",
     "fd7dafa5ac586da5c0c3647385efccdfabab9c8a0b78330cea36b6e531cc2937"),
    ("poset 0:1 1,1,1,1 0,1,1,0 json",
     "b4996c3a807de744f62f394a337468ad6fd6e248db2b93811fa6e28061212275"),
    ("blocks 0:2 2,1,2 0,1,0 json",
     "187e8dfd462896869eff34b4d73b299b75d44b2b2b41e5d7aacb54617325c2b2"),
    # the two orders contexts: large enough that the text tie-break of the
    # linear extension decides member order
    ("blocks 0:3 2,2,2,2 0,1,0,1 json",
     "c18faaa74578c1d20daa23f6ec2e17b8d821ba3d99cc74e03806f310eb836529"),
    ("poset 0:3 2,2,1 0,0,0 json",
     "ee681238e4bf4fcb54511b173eba8b3f46f99e7e45901008b86a61543bee51b2"),
    ("canonical 0:2 1,1,1 0,0,0 json",
     "e7e30ed048b78d3bf7b238862438f6ecf12c0473557000b8019dcf339769b9e0"),
    ("canonical 0:1 2,1,1 0,1,0 json",
     "3f3d351b0eb4826861d5951ec70f99552a77c388927bb6840f94fd30a80c0f0b"),
    ("canonical 0:2 2,1,2 0,1,0 json",
     "cd10c79ac63f675fe1766a9f7f7b832f8ce11be90c99eede0bc657c171d5e8c3"),
    ("canonical 0:1 1,1,1,1 0,1,0,1 json",
     "31ccea6bed8261f0adf17134944c80bf0b9f5a57e3ca3f14f4f782fa72409af7"),
    ("canonical 0:2 1,1,1,1 0,0,0,0 tsv",
     "c4894b260a676a24f039ee0bcf386ba6740b419db29faa78006bce87bffeb741"),
    ("crystal 0:2 2,1 0,1 json",
     "bc9c95e64c7261931a9d80d6152c173a04332c75119e300749da3cf0dccf8783"),
    ("crystal 0:2 2,1 0,1 dot",
     "4793cb32c9ca92028336e03323cbc13f8d9ad5d7de98c76882aa9652f10f0e5c"),
    ("crystal 0:2 2,1 0,1 tsv",
     "f980ef6839558e94fbb4038104698f18861fcbff6d39a916774ca19f2982bf4b"),
    ("crystal 0:3 2,2,1 0,1,0 dot",
     "2f777ba44bd1c2e1bef42d0ef63cdb48692b832cdba69ff87b38d5ac704b226f"),
    ("prinjective 0:2 2,1 0,0 json",
     "ced9bb350f53651be599c1dcf8ccfa5f116d0da5c201d2c5666045637bb9f5d9"),
    ("prinjective 0:2 1,2 1,0 json",
     "40ef35d725e3ac8f28673f7732a10c237a3f15b8516e0fa2d7fc6429c263269d"),
    ("prinjective z 1,1 0,1 json @0:01/10",
     "ca7048dd31432977346b01b95e7abd7219d0f61c40fa04347ffa0c41febfd454"),
    ("klpoly 0:1 2,1 0,1 json 110/101 --mu=101/110",
     "0c40701b7146d88590767dd78a3fad2b03e4ec68c0897579f68f2f5bc20dac37"),
    ("klpoly z 1,1 0,1 json @0:100/011 --mu=@0:010/101",
     "a034d961b1339bf63ea101ae1ed105832c5b029f313bba0b2b6d31efe2f09d42"),
    ("dualbasis 0:1 1,1,1 0,1,0 json 001/011/100",
     "3858fa6770f8d795c5f1baaf83ef1792625130732abc7388c85c228297649028"),
    ("dualbasis 0:1 1,1,1 0,1,0 tsv 001/011/100",
     "bce0aec6e6376e94d6a1ee6ecdcfdaa5b6d008dbaa1156feb06581ece72246f8"),
    ("twisted 0:1 1,1,1 0,1,0 json 001/011/100",
     "1f4a126712125b5f51388802a3b1ddaafb20399fe1672265394b4a76ef2745b2"),
    ("canonical 0:1 2,1,1 0,1,0 text",
     "4c74b1bb296b2fd8e2f78681416dbb48b0e4d0440678239560e4b40ac4d51d50"),
    ("blocks 0:2 2,1,2 0,1,0 tsv",
     "4169b7c53799845698f0551639dc55a9770537ee2cbaea326f17be4a2d9631a5"),
    ("defect z 2,1 0,1 json @-1:110/101",
     "9dd42dea5059edfb5ca04e76db80527560654da3791fd7bb796847ebf6e1a9b9"),
    ("superweight z 1,1 0,1 json --coords=1,-1",
     "8a16ed5e93dc7232e3d9bc956aa105fa67b2827d4f3d156f010b9e2799686d01"),
    ("youngdim 0:1 1,1 0,0 json 010/010 --word=0,0",
     "a4a99302313e28cca8a4b26497e1329066031317d14fdafa951a9e5b453951a1"),
    ("klr-verify 0:1 - - json --d=2",
     "56c203e41fc2ee233f476333d5b3b38764ac44cf541f9fb8e50c07241aa2a64c"),
    ("nilhecke-rank - - - json --m=2 --cap=6",
     "a237a4d180b2dc5572a551a0366f9193c71cdea0c3bde60a28a0295dc502097b"),
    ("prinjective z 1,1 0,0 json @40:10/01 --max-r=3",
     "690cb9f8ec89d1184131bd3d89b4b7135af90a172a326e24838304c3360e72ca"),
    ("klpoly geq:0 1,1 0,0 json @0:10/01 --mu=@0:01/10",
     "bb2d477df2e42ba09d6a264051695ae3541bfada81df3092ad002c3844779218"),
    # the only deviations sit in the top column, so minimal_window clips
    ("klpoly leq:2 1,1 0,0 json @3:1/1 --mu=@3:1/1",
     "f22112277f67d93cd1727114129a556c4dc086b5f6f9c3856537ab69901660b9"),
    # whole contexts whose basis names each member many times: entries and
    # rows are rendered from per-block pieces, each member once per block
    ("canonical 0:3 2,2,1 0,0,0 json",
     "c525f0f409e32bf0dfc5c0cd35a18d3e85f33297f106ebaf3e4a827d76f2f208"),
    ("canonical 0:2 2,2,2 0,1,0 tsv",
     "14ad64da9f0fc6a62bb0d798ad20ee39419fe1f594f9b801bde46dc8c411115b"),
    # the orders contexts of the benchmark, and rows of baseline 1 through
    # the crystal signature and the block grouping
    ("crystal 0:4 2,2,2 0,0,0 json",
     "6ebcc5f5249cb2e1e204b627f91cb6755fd0f06fdf3a063b047786e82367a1b4"),
    ("crystal 0:3 2,2,1 0,1,0 json",
     "4107f3f8b9b319aee17269a10b0b345622c186e04f7b265ee2fbfc72e366ef99"),
    ("prinjective 0:4 2,2,2 0,0,0 json",
     "571eb02ddf84f1ebbf9fc67f47cf1c4495211d62a000c904fb3cd50ec87a44fd"),
    ("blocks 0:3 2,2,1 1,0,1 json",
     "80cadcec34efd1a451bd1677683fe347731b2d6081819fbe949c494be60cefd1"),
    # the canonical-context benchmark context, and rows of baseline 1 in
    # tsv and text, pinned before the entries were rendered from pieces
    ("canonical 0:4 2,2,2 0,0,0 json",
     "44350e18c0841c9c03889d9dd8ed79fd6e84f93f119275e8518f932af5714afa"),
    ("canonical 0:3 2,2,1 0,1,0 tsv",
     "99ed161dd125f905348aaaa90f40a5d8d988fb4baedb84e69b24db7c3d1b601d"),
    ("canonical 0:3 2,2,1 0,1,0 text",
     "8b313f45c004985cc17366513082d697e50d3e82d4d95d2bd5ba3d538164933b"),
]
# the specs whose command ends undecided, with its payload on stdout
GOLDEN_EXIT = {"prinjective z 1,1 0,0 json @40:10/01 --max-r=3": 2}


def golden_argv(spec):
    """``command interval n c format``, then an optional bare matrix and
    ``--flag=value`` tokens; a field written ``-`` is left to its default."""
    command, interval, n, c, fmt, *extra = spec.split()
    argv = [command, "--format", fmt]
    for flag, value in (("--interval", interval), ("--n", n), ("--c", c)):
        if value != "-":
            argv += [flag, value]
    for token in extra:
        argv += [token] if token.startswith("--") else ["--matrix", token]
    return argv


@pytest.mark.parametrize("spec,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output_bytes(capsys, spec, digest):
    canonical.clear_caches()
    code, out, _ = run_cli(capsys, *golden_argv(spec))
    assert code == GOLDEN_EXIT.get(spec, 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_golden_outputs_in_one_process_in_a_shuffled_order(capsys):
    # no clear_caches between commands: whatever one command leaves in the
    # block registry or the psi memo must not change another's bytes
    specs = GOLDEN.copy()
    random.Random(20).shuffle(specs)
    canonical.clear_caches()
    for spec, digest in specs:
        code, out, _ = run_cli(capsys, *golden_argv(spec))
        assert code == GOLDEN_EXIT.get(spec, 0), spec
        assert hashlib.sha256(out.encode()).hexdigest() == digest, spec


def test_golden_bytes_do_not_read_the_column_order_of_a_d_row(capsys, monkeypatch):
    # a d row's column order is not part of its contract: with every row
    # solved in reversed column order, the outputs keep their bytes
    d_row = canonical._d_row
    monkeypatch.setattr(canonical, "_d_row",
                        lambda *args: dict(reversed(d_row(*args).items())))
    commands = ("canonical", "klpoly", "dualbasis", "twisted", "youngdim")
    specs = [(spec, digest) for spec, digest in GOLDEN if spec.split()[0] in commands]
    assert len(specs) == 19
    for spec, digest in specs:
        canonical.clear_caches()
        code, out, _ = run_cli(capsys, *golden_argv(spec))
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, spec
    canonical.clear_caches()


def golden_payload(spec):
    """The payload a GOLDEN command hands to the writer, before the meta keys."""
    args = cli.build_parser().parse_args(golden_argv(spec))
    canonical.clear_caches()
    try:
        return cli.COMMANDS[args.command](args)[0]
    except cli.Unknown as exc:
        return exc.payload


def whole_context_canonical(spec):
    """A GOLDEN spec that prints the canonical basis of a whole context."""
    return spec.startswith("canonical ") and len(spec.split()) == 5


def test_json_writer_matches_json_dumps():
    # a whole-context canonical payload holds writer nodes, which json.dumps
    # cannot take; they are compared with their data form below
    cases = [golden_payload(spec) for spec, _ in GOLDEN if not whole_context_canonical(spec)]
    cases += [{}, [], {"a": {}}, {"a": []}, [[]], [{}], [[], {}, [[{}]]],
              True, False, None, 0, -7, 2 ** 100, -(3 ** 60),
              {"z": [True, False, None], "a": {"y": -1, "b": [0, ""]}, "M": 2},
              'a "quoted" \\ back\\slash', "\x00\x1f\n\t\r\x7f",
              {"\u00e9t\u00e9": "\u2202 \u0142\u00f3d\u017a \U0001d11e", "\n": "\\"}]
    for payload in cases:
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)
    for bad in (1.5, {1, 2}, [0, 0.5], {"a": {3}}, {1: "a"}, object()):
        with pytest.raises(TypeError):
            cli._json_text(bad)


def test_parser_is_built_once_and_reused(capsys):
    spec = GOLDEN[0][0]
    assert cli.build_parser() is cli.build_parser()
    _, first, _ = run_cli(capsys, *golden_argv(spec))
    code, _, err = run_cli(capsys, "poset", "--format", "xml")  # an unknown format
    assert code == 1 and json.loads(err)["error"] == "UsageError"
    code, other, _ = run_cli(capsys, "blocks", "--interval", "0:1", "--n", "1,1", "--c", "0,0")
    assert code == 0 and other != first
    _, again, _ = run_cli(capsys, *golden_argv(spec))
    assert again == first
    assert hashlib.sha256(first.encode()).hexdigest() == GOLDEN[0][1]


def context_argv(interval, tnc, fmt, *extra):
    return ["canonical", "--interval", interval.text(), "--n", ",".join(map(str, tnc.n)),
            "--c", ",".join(map(str, tnc.c)), "--format", fmt, *extra]


def basis_data(interval, tnc) -> list[dict]:
    """The basis of a whole context as plain data, built weight by weight
    from ``canonical_basis`` and ``_vec_json``, not from the block pieces."""
    return [{"lambda": lam.to_json(), "terms": cli._vec_json(canonical.canonical_basis(lam))}
            for lam in enumerate_weights(interval, tnc)]


def expected_output(interval, tnc, fmt, basis) -> str:
    """The stdout of whole-context canonical in fmt, from its data form."""
    if fmt == "json":
        payload = {"command": "canonical", "interval": interval.text(),
                   "type": {"n": list(tnc.n), "c": list(tnc.c)}, "basis": basis}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sep = "\t" if fmt == "tsv" else "  "
    return "".join(sep.join((json.dumps(e["lambda"]), " + ".join(
        f"({t['coeff']}) {json.dumps(t['basis'])}" for t in e["terms"]))) + "\n"
        for e in basis)


def test_whole_context_canonical_matches_its_data_form(capsys):
    # every acceptance context, in every format the command prints
    contexts = list(sweep_contexts())
    for interval, tnc in contexts:
        outs = {fmt: run_cli(capsys, *context_argv(interval, tnc, fmt))
                for fmt in ("json", "tsv", "text")}
        basis = basis_data(interval, tnc)
        for fmt, (code, out, err) in outs.items():
            assert (code, err) == (0, "")
            assert out == expected_output(interval, tnc, fmt, basis), (interval, tnc, fmt)
    assert len(contexts) > 800


CONTEXT_A = (Interval.finite(0, 3), TypeNC((2, 2, 1), (0, 0, 0)))
CONTEXT_B = (Interval.finite(0, 2), TypeNC((2, 2, 2), (0, 1, 0)))


def test_whole_context_canonical_with_threads(capsys):
    for interval, tnc in (CONTEXT_A, CONTEXT_B):
        canonical.clear_caches()
        _, out, _ = run_cli(capsys, *context_argv(interval, tnc, "json", "--threads", "3"))
        assert out == expected_output(interval, tnc, "json", basis_data(interval, tnc))


@pytest.mark.parametrize("clear_between", [False, True])
def test_two_canonical_commands_in_either_order(capsys, clear_between):
    # the coefficient memo is keyed by id and local to one command: a memo
    # kept across commands would hand out stale text once ids are reused
    for order in ((CONTEXT_A, CONTEXT_B), (CONTEXT_B, CONTEXT_A)):
        canonical.clear_caches()
        outs = []
        for interval, tnc in order:
            if clear_between:
                canonical.clear_caches()
            outs += [run_cli(capsys, *context_argv(interval, tnc, fmt))[1]
                     for fmt in ("json", "tsv")]
        want = [expected_output(interval, tnc, fmt, basis_data(interval, tnc))
                for interval, tnc in order for fmt in ("json", "tsv")]
        assert outs == want


def entry_nodes(interval, tnc):
    """The writer nodes of a whole context, with each node's data form."""
    args = cli.build_parser().parse_args(context_argv(interval, tnc, "json"))
    nodes = cli.cmd_canonical(args)[0]["basis"]
    assert all(type(node) is cli._Entry for node in nodes)
    return nodes, basis_data(interval, tnc)


def test_entry_node_at_interleaved_indents():
    nodes, data = entry_nodes(Interval.finite(0, 2), TypeNC((2, 1, 2), (0, 1, 0)))
    big = max(range(len(nodes)), key=lambda i: len(data[i]["terms"]))
    assert len(data[big]["terms"]) > 1
    for x, y in ((nodes[big], data[big]), (nodes[0], data[0])):
        assert cli._json_text(x) == json.dumps(y, indent=2, sort_keys=True)
    # indents 1, 3, 1, 3, 2, 3 and back, each node at more than one of them
    def layout(e, f):
        return [e, [[f]], f, [[e]], {"a": e, "b": [f]}, e]
    payload = layout(nodes[big], nodes[0])
    expected = json.dumps(layout(data[big], data[0]), indent=2, sort_keys=True)
    assert cli._json_text(payload) == expected
    assert cli._json_text(payload) == expected


def test_rendering_a_payload_twice_gives_the_same_text():
    interval, tnc = Interval.finite(0, 2), TypeNC((2, 1, 2), (0, 1, 0))
    payload = golden_payload("canonical 0:2 2,1,2 0,1,0 json")
    expected = json.dumps({"basis": basis_data(interval, tnc)}, indent=2, sort_keys=True)
    first = cli._json_text(payload)
    assert first == expected
    assert cli._json_text(payload) == first


def test_a_swapped_term_or_a_shifted_indent_is_caught(monkeypatch, capsys):
    # negative controls: the comparison with the data form must see either
    interval, tnc = CONTEXT_A
    want = {fmt: expected_output(interval, tnc, fmt, basis_data(interval, tnc))
            for fmt in ("json", "tsv")}
    terms = cli._BlockBasis.terms

    def swapped(self, a):
        order = terms(self, a)
        return order[1::-1] + order[2:]
    monkeypatch.setattr(cli._BlockBasis, "terms", swapped)
    for fmt in ("json", "tsv"):
        assert run_cli(capsys, *context_argv(interval, tnc, fmt))[1] != want[fmt]
    monkeypatch.setattr(cli._BlockBasis, "terms", terms)
    assert run_cli(capsys, *context_argv(interval, tnc, "json"))[1] == want["json"]

    entry_text = cli._BlockBasis.entry_text
    shifted = []

    def shift_one(self, a, indent):
        if not shifted:
            shifted.append(a)
            indent += " "
        return entry_text(self, a, indent)
    monkeypatch.setattr(cli._BlockBasis, "entry_text", shift_one)
    out = run_cli(capsys, *context_argv(interval, tnc, "json"))[1]
    assert shifted and out != want["json"]
    assert json.loads(out) == json.loads(want["json"])  # only the bytes differ


def test_members_and_coefficients_are_rendered_once(monkeypatch, capsys):
    # each member's data once per block, its fragment (json) or compact text
    # (tsv) once per member, each d entry once per command
    interval, tnc = CONTEXT_A
    canonical.clear_caches()
    table = canonical.BlockTable(interval, tnc)
    entries = {id(c) for block in table.blocks for row in block.d_matrix()
               for c in row.values()}
    terms = sum(len(row) for block in table.blocks for row in block.d_matrix())
    assert terms > len(entries)
    for fmt, text_of in (("json", (cli, "_json_text")), ("tsv", (cli.json, "dumps"))):
        calls = {"to_json": 0, "member_text": 0, "render": 0}
        to_json, render, text = canonical.BlockData.to_json, cli.render, getattr(*text_of)
        members = {}  # id -> member dict, held so that no id is reused

        def counted_to_json(block):  # the members' JSON, read off the block's per-row tables
            out = to_json(block)
            calls["to_json"] += len(out)
            members.update((id(m), m) for m in out)
            return out

        def counted_text(obj, *args, **kwargs):
            calls["member_text"] += id(obj) in members
            return text(obj, *args, **kwargs)

        def counted_render(c):
            calls["render"] += 1
            return render(c)
        monkeypatch.setattr(canonical.BlockData, "to_json", counted_to_json)
        monkeypatch.setattr(Matrix01, "to_json", None)  # no member is a Matrix01
        monkeypatch.setattr(*text_of, counted_text)
        monkeypatch.setattr(cli, "render", counted_render)
        code, _, _ = run_cli(capsys, *context_argv(interval, tnc, fmt))
        monkeypatch.undo()
        assert code == 0
        assert calls == {"to_json": len(table.weights), "member_text": len(table.weights),
                         "render": len(entries)}


_scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=4)


def _trees(leaves):
    return st.recursive(leaves, lambda kids: st.lists(kids, max_size=3)
                        | st.dictionaries(st.text(max_size=3), kids, max_size=3),
                        max_leaves=12)


class _Slot(int):
    """A tree leaf that stands for the entry node at its index."""


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_trees(_scalars | st.integers(0, 5).map(_Slot)))
def test_json_writer_matches_json_dumps_with_entry_nodes(tree):
    nodes, data = entry_nodes(Interval.finite(0, 1), TypeNC((2, 1, 1), (0, 1, 0)))

    def fill(x, pick):
        if type(x) is _Slot:
            return pick[x]
        if isinstance(x, list):
            return [fill(v, pick) for v in x]
        if isinstance(x, dict):
            return {k: fill(v, pick) for k, v in x.items()}
        return x
    expected = json.dumps(fill(tree, data), indent=2, sort_keys=True)
    payload = fill(tree, nodes)
    assert cli._json_text(payload) == expected
    assert cli._json_text(payload) == expected


def readme_commands():
    """The ``superkl ...`` lines of README's "Command line" block, as argv lists."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("superkl ")]


def test_readme_command_block_runs(capsys):
    commands = readme_commands()
    assert len(commands) == 13 and {argv[0] for argv in commands} >= {"prinjective", "crystal"}
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
        if "dot" in argv:
            assert out.startswith("digraph crystal {\n") and out.endswith("}\n"), argv
        else:
            validate(argv[0].replace("-", "_"), json.loads(out))
