"""Blocks held as packed ints, against ``Matrix01`` references.

A block's members are ``_monomial`` ints from the moment it is built; its
texts, JSON, order and core are read off per-row tables.  Here every one of
them is compared with the same quantity made weight by weight from
``enumerate_weights``, the capped ``block_size`` with the exact count, and a
command's ``Matrix01`` constructions are counted.
"""

import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import core_members

import superkl.canonical as canon
from superkl import cli
from superkl.weights import (
    Interval,
    Matrix01,
    TypeNC,
    column_counts,
    enumerate_weights,
    parse_matrix,
    profile_grid,
    signed_profile,
    weight_count,
)


@st.composite
def small_context(draw):
    """A finite context of level 1 to 4, n_i from 0 to |I_+|, mixed polarity."""
    lo = draw(st.integers(-2, 2))
    interval = Interval.finite(lo, lo + draw(st.integers(0, 3)))
    level, z = draw(st.integers(1, 4)), interval.n_cols()
    tnc = TypeNC(tuple(draw(st.lists(st.integers(0, z), min_size=level, max_size=level))),
                 tuple(draw(st.lists(st.integers(0, 1), min_size=level, max_size=level))))
    assume(weight_count(interval, tnc) <= 600)
    return interval, tnc


def reference_order(members):
    """A block sorted by the sum of each whole ``signed_profile``, descending, then by text."""
    grid = profile_grid(members)
    return sorted(members, key=lambda m: (-sum(map(sum, signed_profile(m, grid))), m.text()))


def reference_blocks(interval, tnc) -> list[list[Matrix01]]:
    """Every block of a context: its weights grouped by ``column_counts``, each in order."""
    groups = defaultdict(list)
    for lam in enumerate_weights(interval, tnc):
        groups[tuple(sorted(column_counts(lam).items()))].append(lam)
    return [reference_order(members) for members in groups.values()]


def reference_core(members) -> tuple[list[Matrix01], list[int]]:
    """The core's members, in order, and each member's position there.

    The core is made of the members with their frozen columns deleted, or
    of the ``omega`` images of those when that has the smaller key
    (``core_members``); a block of size 1 is its own core.
    """
    rows = [m.row_strings() for m in members]
    kept = [k for k in range(len(rows[0][0]))
            if len({tuple(row[k] for row in r) for r in rows}) > 1]
    if len(members) == 1:
        return members, [0]
    reduced = members
    if len(kept) < len(rows[0][0]):
        c = members[0].tnc.c
        cut = [["".join(row[k] for k in kept) for row in r] for r in rows]
        tnc = TypeNC(tuple(sum(ch != str(ci) for ch in row) for row, ci in zip(cut[0], c)), c)
        reduced = [parse_matrix("/".join(r), Interval.finite(0, len(kept) - 2), tnc) for r in cut]
    reduced = core_members(members[0].tnc, reduced)
    core = reference_order(reduced)
    return core, [core.index(m) for m in reduced]


def assert_block_is(block, members):
    assert list(block.members) == members
    assert block.monomials == tuple(map(canon._monomial, members))
    assert block.texts() == [m.text() for m in members]
    assert list(map(list, block.row_strings())) == [m.row_strings() for m in members]
    assert [block.member(a) for a in range(block.size)] == members
    core, pos = block.core()
    want, want_pos = reference_core(members)
    assert list(core.members) == want and list(pos) == want_pos
    assert core.texts() == [m.text() for m in want]
    assert canon.block_data(want[0]) is core


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(small_context(), st.integers(0, 10**6))
@example((Interval.finite(0, 4), TypeNC((2, 2, 2), (0, 1, 0))), 7)
@example((Interval.finite(-1, 1), TypeNC((2, 2, 2, 2), (0, 1, 0, 1))), 3)
def test_packed_blocks_match_the_matrix01_reference(context, pick):
    reference = reference_blocks(*context)
    canon.clear_caches()
    table = canon.BlockTable(*context)
    assert table.texts() == [m.text() for m in enumerate_weights(*context)]
    assert list(map(list, table.row_strings())) == [
        m.row_strings() for m in enumerate_weights(*context)]
    blocks = {frozenset(b.members): b for b in table.blocks}
    assert len(blocks) == len(reference)
    for members in reference:
        assert_block_is(blocks[frozenset(members)], members)
    # each block again, built directly from one of its members
    canon.clear_caches()
    for members in reference:
        assert_block_is(canon.block_data(members[pick % len(members)]), members)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(small_context(), st.integers(0, 10**6), st.integers(0, 40))
def test_capped_block_size_is_the_exact_count_up_to_the_cap(context, pick, cap):
    weights = enumerate_weights(*context)
    lam = weights[pick % len(weights)]
    size = sum(column_counts(w) == column_counts(lam) for w in weights)
    assert canon.block_size(lam, len(weights)) == size == len(canon._block_members_direct(lam))
    assert canon.block_size(lam, cap) == min(size, cap + 1)


WIDE_BUDGET = """
import random, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
from superkl import cli
rng = random.Random(2026)
matrices = ["@0:001000110110/100111000001/111010100000/001100011111/011100010111/010000111111"]
for _ in range(4):
    rows = []
    for ci in (0, 0, 0, 1, 1, 1):
        row = [str(ci)] * 12
        for k in rng.sample(range(12), 5):
            row[k] = str(1 - ci)
        rows.append("".join(row))
    matrices.append("@0:" + "/".join(rows))
for matrix in matrices:
    start = time.perf_counter()
    code = cli.main(["canonical", "--interval", "0:10", "--n", "5,5,5,5,5,5",
                     "--c", "0,0,0,1,1,1", "--matrix", matrix, "--max-block", "100"])
    print(code, time.perf_counter() - start)
"""


def test_max_block_on_a_wide_context_is_refused_in_little_memory():
    # counting such a block on its two halves listed every completable
    # choice tuple of each and ran out of a 1.5 GB address space; the
    # capped count stops at the 101st member
    src = str(Path(canon.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", WIDE_BUDGET], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    results = [line.split() for line in done.stdout.splitlines()]
    errors = [json.loads(line) for line in done.stderr.splitlines()]
    assert len(results) == len(errors) == 5
    assert all(code == "2" and float(seconds) < 5 for code, seconds in results)
    assert all(e["error"] == "budget" and e["message"].endswith("--max-block 100")
               for e in errors)


def count_weights(monkeypatch) -> list[int]:
    """A counter of ``Matrix01`` constructions, checked or trusted, from now on."""
    made = [0]
    trusted, init = Matrix01._trusted.__func__, Matrix01.__init__

    def counted_trusted(cls, *args):
        made[0] += 1
        return trusted(cls, *args)

    def counted_init(self, *args):
        made[0] += 1
        init(self, *args)
    monkeypatch.setattr(Matrix01, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(Matrix01, "__init__", counted_init)
    return made


def run(capsys, *argv) -> str:
    canon.clear_caches()
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_whole_context_commands_build_no_weight_per_member(monkeypatch, capsys):
    context = ("--interval", "0:3", "--n", "2,2,2,2", "--c", "0,1,0,1")
    made = count_weights(monkeypatch)
    out = json.loads(run(capsys, "blocks", *context))
    assert sum(len(b["members"]) for b in out["blocks"]) == 10_000 and made == [0]
    for argv in (("poset", "--interval", "0:3", "--n", "2,2,1", "--c", "0,0,0"),
                 ("canonical", "--interval", "0:2", "--n", "2,1,2", "--c", "0,1,0"),
                 ("canonical", "--interval", "0:2", "--n", "2,1,2", "--c", "0,1,0",
                  "--format", "tsv")):
        run(capsys, *argv)
        assert made == [0], argv


def test_a_point_query_builds_the_weights_it_prints(monkeypatch, capsys):
    context = ("--interval", "0:2", "--n", "2,2,2,2", "--c", "0,1,0,1")
    made = count_weights(monkeypatch)
    for matrix in ("1100/1100/0011/0011", "1100/1100/1010/1001", "0101/1010/0110/1001"):
        made[0] = 0
        out = json.loads(run(capsys, "canonical", *context, "--matrix", matrix))
        (entry,) = out["basis"]
        # lam, parsed, and one weight per term
        assert made[0] == 1 + len(entry["terms"]), matrix
