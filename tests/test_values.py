"""The value classes behave as the frozen dataclasses they stand for.

``Interval``, ``TypeNC``, ``Matrix01``, ``SuperWeight`` and ``ShiftData``
are slotted classes on ``weights._Value``.  Each is compared with a
reference ``@dataclass(frozen=True)`` of the same name, fields and checks,
defined here: equality within and across classes (a subclass with the
same fields among them), hash, repr, refused assignment and deletion,
the ValueError of each invalid argument, and copies.  A fresh
interpreter that imports the CLI loads no dataclasses.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superkl import crystal, superweights, weights


@dataclass(frozen=True)
class Interval:
    lo: int | None
    hi: int | None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains_col(self, j):
        return all(b is None or op(b) for b, op in (
            (self.lo, lambda lo: j >= lo), (self.hi, lambda hi: j <= hi + 1)))


@dataclass(frozen=True)
class TypeNC:
    n: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        if len(self.n) != len(self.c):
            raise ValueError("n and c must have equal length")
        if any(ni < 0 for ni in self.n):
            raise ValueError("n entries must be nonnegative")
        if any(ci not in (0, 1) for ci in self.c):
            raise ValueError("c entries must be 0 or 1")


@dataclass(frozen=True)
class Matrix01:
    interval: Interval
    tnc: TypeNC
    devs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.devs) != len(self.tnc.n):
            raise ValueError("one deviation tuple per row required")
        for i, (row, ni) in enumerate(zip(self.devs, self.tnc.n)):
            if tuple(sorted(set(row))) != row:
                raise ValueError(f"row {i} deviations must be sorted and distinct")
            if len(row) != ni:
                raise ValueError(
                    f"row {i} has {len(row)} deviations, expected n_{i+1} = {ni}"
                )
            for j in row:
                if not self.interval.contains_col(j):
                    raise ValueError(f"deviation column {j} outside I_+")

    def __hash__(self):
        return hash(self.devs)


@dataclass(frozen=True)
class SuperWeight:
    coords: tuple[int, ...]
    tnc: TypeNC

    def __post_init__(self):
        if len(self.coords) != sum(self.tnc.n):
            raise ValueError("coordinate count must equal sum of n")


@dataclass(frozen=True)
class ShiftData:
    grew: str
    p: tuple[int, ...]
    a: int
    s: int
    eps: int
    word: tuple[int, ...]
    sigma: Fraction


LIBRARY = {"Interval": weights.Interval, "TypeNC": weights.TypeNC,
           "Matrix01": weights.Matrix01, "SuperWeight": superweights.SuperWeight,
           "ShiftData": crystal.ShiftData}
REFERENCE = {"Interval": Interval, "TypeNC": TypeNC, "Matrix01": Matrix01,
             "SuperWeight": SuperWeight, "ShiftData": ShiftData}
# a subclass with the same fields: its instances equal no instance of the base
SUBCLASSES = {name: type(name, (cls,), {"__slots__": ()}) for name, cls in LIBRARY.items()}
REFERENCE_SUBCLASSES = {name: type(name, (cls,), {}) for name, cls in REFERENCE.items()}

_small = st.integers(-3, 5)
_bound = st.none() | _small
_tuples = st.lists(st.integers(-1, 3), max_size=3).map(tuple)
_rows = (st.lists(_small, max_size=3).map(tuple)
         | st.sets(st.integers(-2, 7), max_size=3).map(sorted).map(tuple))


class _Arg(tuple):
    """An Interval or TypeNC argument of another call: (class name, its args)."""


@st.composite
def _args(draw, name):
    """The arguments of one constructor call, valid or not."""
    if name == "Interval":
        return (draw(_bound), draw(_bound))
    if name == "TypeNC":
        n = draw(st.lists(st.integers(-1, 3), max_size=3))
        if draw(st.booleans()):
            return (tuple(n), draw(st.lists(st.integers(-1, 2), max_size=3).map(tuple)))
        return (tuple(n), tuple(draw(st.sampled_from((0, 1))) for _ in n))
    if name == "Matrix01":
        interval = draw(_args("Interval").filter(lambda a: None in a or a[0] <= a[1]))
        level = draw(st.integers(0, 3))
        devs = tuple(draw(_rows) for _ in range(level + draw(st.sampled_from((0, 0, 0, 1)))))
        # mostly the row lengths, so the column checks run
        n = tuple(len(row) if draw(st.integers(0, 5)) else draw(st.integers(0, 3))
                  for row in devs[:level])
        c = tuple(draw(st.sampled_from((0, 1))) for _ in n)
        return (_Arg(("Interval", interval)), _Arg(("TypeNC", (n, c))), devs)
    if name == "SuperWeight":
        n = tuple(draw(st.lists(st.integers(0, 2), max_size=3)))
        m = sum(n) + draw(st.sampled_from((0, 0, 0, 1, -1)))
        coords = tuple(draw(_small) for _ in range(max(m, 0)))
        return (coords, _Arg(("TypeNC", (n, tuple(draw(st.sampled_from((0, 1))) for _ in n)))))
    return (draw(st.sampled_from(("left", "right"))), draw(_tuples), draw(_small),
            draw(_small), draw(st.sampled_from((1, -1))), draw(_tuples),
            Fraction(draw(_small), 2))


def _build(classes, name, args):
    """(instance, None), or (None, the message of the ValueError raised)."""
    args = tuple(_build(classes, *a)[0] if isinstance(a, _Arg) else a for a in args)
    try:
        return classes[name](*args), None
    except ValueError as exc:
        return None, str(exc)


@st.composite
def _calls(draw):
    name = draw(st.sampled_from(sorted(LIBRARY)))
    return name, draw(_args(name))


def _refusals(obj, field) -> list[str]:
    """The AttributeError messages of assigning and of deleting a field."""
    messages = []
    for act in (lambda: setattr(obj, field, 0), lambda: delattr(obj, field)):
        with pytest.raises(AttributeError) as exc:
            act()
        messages.append(str(exc.value))
    return messages


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(st.lists(_calls(), min_size=2, max_size=4), st.data())
def test_value_classes_match_frozen_dataclasses(calls, data):
    calls.append(data.draw(st.sampled_from(calls)))  # one call made twice: an equal pair
    built = []
    for name, args in calls:
        for library, reference in ((LIBRARY, REFERENCE), (SUBCLASSES, REFERENCE_SUBCLASSES)):
            lib, lib_error = _build(library, name, args)
            ref, ref_error = _build(reference, name, args)
            assert lib_error == ref_error, (name, args)
            if lib is None:
                continue
            built.append((lib, ref))
            assert repr(lib) == repr(ref)
            assert hash(lib) == hash(ref)
            assert lib != ref and not lib == ref  # a library value never equals a dataclass
            for field in REFERENCE[name].__dataclass_fields__:
                assert _refusals(lib, field) == _refusals(ref, field)
            if library is LIBRARY:  # pickle finds a class by its name, so not a subclass here
                for clone in (copy.copy(lib), copy.deepcopy(lib), pickle.loads(pickle.dumps(lib))):
                    assert clone == lib and hash(clone) == hash(lib) and repr(clone) == repr(lib)
    for lib_a, ref_a in built:
        for lib_b, ref_b in built:
            assert (lib_a == lib_b) == (ref_a == ref_b)
            assert (lib_a != lib_b) == (ref_a != ref_b)


def test_assignment_to_a_slot_outside_the_fields_is_refused():
    tnc = weights.TypeNC((2, 1), (0, 1))
    lam = weights.kappa(weights.Interval.finite(0, 1), tnc)
    text = lam.text()
    for obj, name in ((tnc, "level"), (lam, "_text"), (lam, "other")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert tnc.level == 2 and lam.text() == text


def test_importing_the_cli_loads_no_dataclasses():
    # -S keeps site's .pth files, which belong to the environment, out of the count
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import superkl, superkl.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=""))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
