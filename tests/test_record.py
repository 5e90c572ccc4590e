"""The value classes (`tdlite.record.Record`) and what a check process imports."""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tdlite
from tdlite import kb, qtl
from tdlite.oracle import BiLassoWord
from tdlite.randgen import BatchSpec
from tdlite.record import Record
from tdlite.solvers import ProfileError, SolverProfile

SRC = Path(tdlite.__file__).resolve().parent.parent


def _imported_after(*modules: str) -> set[str]:
    """The modules a fresh interpreter, without `site`, has loaded after
    importing `modules`."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
            + "".join(f"import {m}\n" for m in modules)
            + "print('\\n'.join(sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


def test_the_package_imports_no_dataclasses():
    loaded = _imported_after("tdlite.cli", "tdlite.pipeline", "tdlite.kbparse", "tdlite.randgen")
    assert "tdlite.cli" in loaded
    assert "dataclasses" not in loaded


def test_an_in_process_check_imports_no_solver_run_modules():
    loaded = _imported_after("tdlite.pipeline")
    assert "tdlite.solvers" in loaded
    assert not {"dataclasses", "subprocess", "hashlib"} & loaded


def _value_classes() -> list[type]:
    for info in pkgutil.iter_modules(tdlite.__path__):
        importlib.import_module(f"tdlite.{info.name}")
    found, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls not in (kb.Concept, qtl.Qtl):
            found.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


def _with_fields(cls: type, values: list) -> Record:
    # past `__init__`, whose checks would refuse these values
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        setattr(obj, name, value)
    return obj


@pytest.mark.parametrize("cls", _value_classes(), ids=lambda cls: cls.__qualname__)
def test_a_value_class_compares_and_hashes_by_its_fields(cls):
    values = [("value", i) for i in range(len(cls._fields))]
    a, b = _with_fields(cls, values), _with_fields(cls, list(values))
    assert cls._fields == cls.__slots__
    assert not hasattr(a, "__dict__")
    assert a == b and not a != b
    if cls.__hash__ is not None:
        assert hash(a) == hash(b)
    for i in range(len(values)):
        other = _with_fields(cls, values[:i] + [("other", i)] + values[i + 1:])
        assert a != other
    if cls.__repr__ is Record.__repr__:
        assert repr(a) == f"{cls.__qualname__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(cls._fields, values)) + ")"


def test_only_the_trace_is_unhashable():
    assert [cls.__qualname__ for cls in _value_classes() if cls.__hash__ is None] == ["PipelineTrace"]


def test_value_classes_of_one_shape_differ_by_class():
    a = kb.Atomic("A")
    assert kb.Not(a) != kb.NextF(a)
    assert kb.Not(a) == kb.Not(kb.Atomic("A"))
    assert hash(kb.And(a, kb.Bottom())) == hash(kb.And(kb.Atomic("A"), kb.Bottom()))
    f = qtl.QAtom(qtl.ConceptPred("A"), qtl.X)
    assert qtl.QSomeF(f) != qtl.QSomeP(f)
    assert qtl.QSomeF(f) == qtl.QSomeF(qtl.QAtom(qtl.ConceptPred("A"), qtl.Var()))
    assert kb.Bottom() == kb.Bottom() and kb.Bottom() != kb.Top()


def test_the_constructors_keep_their_defaults():
    assert kb.Role("R") == kb.Role("R", False)
    assert kb.Diagnostic("C", "m").where == ""
    assert BatchSpec() == BatchSpec(1, 2, 5, 5, 1, 0.5, 0.5, None, 0)


@pytest.mark.parametrize("make,error", [
    (lambda: BiLassoWord((frozenset(),), (), frozenset(), (), ()), ValueError),
    (lambda: BatchSpec(Q=0), ValueError),
    (lambda: BatchSpec(Pg=-0.5), ValueError),
    (lambda: SolverProfile("p", ("p",), "smv", "(SAT", "UNSAT"), ProfileError),
    (lambda: SolverProfile("p", ("p",), "smv", "SAT", None), ProfileError),
])
def test_a_constructor_still_checks_its_fields(make, error):
    with pytest.raises(error):
        make()
