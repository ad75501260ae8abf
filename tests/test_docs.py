"""The README names only what exists: every backticked `Class.attr` or
private `_Class.attr` in it is an attribute, or a dataclass field, of a
class of that name in eicat, and every backticked `name(` is a function,
class or method defined in an eicat module."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import eicat

README = Path(__file__).resolve().parent.parent / "README.md"


def _eicat_definitions():
    """(name, object) over the functions and classes defined in the eicat
    modules."""
    for info in pkgutil.iter_modules(eicat.__path__):
        module = importlib.import_module(f"eicat.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) or inspect.isfunction(obj)) \
                    and obj.__module__ == module.__name__:
                yield name, obj


def _eicat_classes():
    """{name: class} over the classes defined in the eicat modules."""
    return {name: obj for name, obj in _eicat_definitions() if inspect.isclass(obj)}


def _attributes(cls):
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return fields | set(dir(cls))


def _callable_names():
    """The names of the functions, classes and methods defined in eicat."""
    names = set()
    for name, obj in _eicat_definitions():
        names.add(name)
        if inspect.isclass(obj):
            names |= {m for m, attr in vars(obj).items()
                      if inspect.isfunction(attr) or isinstance(attr, (classmethod, staticmethod))}
    return names


def _class_attribute_refs(text):
    """The (class, attribute) of each backticked `Class.attr` or
    `_Class.attr` in text."""
    return set(re.findall(r"`(_?[A-Z]\w*)\.(\w+)", text))


def test_the_scan_resolves_private_class_attributes():
    text = "`Subspace.int_extend`, `_Sum.int_products`, `_Sum.cut` and `_cells(a)`"
    refs = _class_attribute_refs(text)
    assert refs == {("Subspace", "int_extend"), ("_Sum", "int_products"), ("_Sum", "cut")}
    classes = _eicat_classes()
    assert [ref for ref in sorted(refs) if ref[1] not in _attributes(classes[ref[0]])] == \
        [("_Sum", "cut")]


def test_readme_names_only_existing_class_attributes():
    refs = _class_attribute_refs(README.read_text())
    assert len(refs) >= 10, refs
    classes = _eicat_classes()
    missing = sorted(f"{c}.{a}" for c, a in refs
                     if c not in classes or a not in _attributes(classes[c]))
    assert not missing, missing


def test_readme_calls_only_existing_functions():
    refs = set(re.findall(r"`(\w+)\(", README.read_text()))
    assert len(refs) >= 10, refs
    missing = sorted(refs - _callable_names())
    assert not missing, missing
