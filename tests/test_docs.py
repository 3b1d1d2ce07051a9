"""The README names the package's objects and constants as they are."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import pcsft

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = {info.name for info in pkgutil.iter_modules(pcsft.__path__)}


def module_names():
    """Every backquoted `module.NAME` or `pcsft.module.NAME` of the README
    whose first part is a pcsft module, without a call's arguments."""
    names = set()
    for dotted in re.findall(r"`([A-Za-z_][\w.]*)[^`\n]*`", README):
        path = dotted.split(".")
        if path[0] == "pcsft":
            path = path[1:]
        if len(path) > 1 and path[0] in MODULES:
            names.add(".".join(path))
    return sorted(names)


def stated_values():
    """Every `` `NAME` = value `` or `` `module.NAME` = value `` of the
    README: a constant and its value."""
    pattern = r"`(?:[\w.]+\.)?([A-Z][A-Z0-9_]*)`\s+=\s+([-+0-9.e]*[0-9])"
    return sorted(set(re.findall(pattern, README)))


@pytest.mark.parametrize("name", module_names())
def test_named_attribute_exists(name):
    module, *attributes = name.split(".")
    value = importlib.import_module(f"pcsft.{module}")
    for attribute in attributes:
        assert hasattr(value, attribute), f"README names {name}, which pcsft does not define"
        value = getattr(value, attribute)


@pytest.mark.parametrize("name, text", stated_values())
def test_stated_value_matches_the_constant(name, text):
    modules = [importlib.import_module(f"pcsft.{module}") for module in sorted(MODULES)]
    values = {module.__name__: getattr(module, name)
              for module in modules if hasattr(module, name)}
    assert values, f"README states {name} = {text}, which pcsft does not define"
    assert all(value == float(text) for value in values.values()), values


def test_the_readme_is_read():
    # The patterns still find what they check.
    assert "errors.REJECTED_INPUT" in module_names()
    assert ("FACTOR_RESIDUAL_TOL", "1e-12") in stated_values()
