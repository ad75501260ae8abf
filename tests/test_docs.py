"""The README names only what exists: every backticked `Class.attr` in it
is an attribute, or a dataclass field, of a class of that name in eicat,
and every backticked `name(` is a function, class or method defined in an
eicat module."""

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


def test_readme_names_only_existing_class_attributes():
    refs = set(re.findall(r"`([A-Z]\w*)\.(\w+)", README.read_text()))
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
