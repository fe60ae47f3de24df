"""Public-API docstring contract, checked by repro-lint's public-api rule.

The contract lives in one place, ``tools/lint/rules/public_api.py``: every
class on the exported surface (``PUBLIC_API``), and every public member
defined on it, carries a docstring, and the driver docstrings keep naming
their knobs (``KNOB_DOCS``).  These tests run that rule on the surface files
and check that the surface map names real ``repro`` classes.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from tools.lint.core import Linter
from tools.lint.rules.public_api import KNOB_DOCS, PUBLIC_API, PublicApiChecker

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Class name -> repo-relative path of the module defining it.
_CLASS_PATH = {name: rel for rel, names in PUBLIC_API.items() for name in names}


@pytest.fixture(scope="module")
def findings():
    """The public-api rule's findings on the surface files (suppressions of
    other rules read as unused when only this rule runs, so drop those)."""
    result = Linter(REPO_ROOT, [PublicApiChecker()]).lint_paths(sorted(PUBLIC_API))
    assert result.files == len(PUBLIC_API)
    return [d for d in result.findings if d.rule in PublicApiChecker.rules]


def test_public_api_paths_exist():
    for rel in PUBLIC_API:
        assert (REPO_ROOT / rel).is_file(), rel


def test_public_api_lints_clean(findings):
    assert not findings, "\n".join(d.format() for d in findings)


@pytest.mark.parametrize("name", sorted(_CLASS_PATH))
def test_public_class_and_members_have_docstrings(name, findings):
    """The listed class imports from ``repro`` where the map says it lives,
    and the static rule reports nothing on it or its members."""
    module_name = _CLASS_PATH[name][len("src/"):-len(".py")].replace("/", ".")
    module = importlib.import_module(module_name)
    cls = getattr(module, name, None)
    assert isinstance(cls, type) and cls.__module__ == module_name, name
    # A subpackage that re-exports the name must export this very class.
    package = importlib.import_module(module_name.rsplit(".", 1)[0])
    assert getattr(package, name, cls) is cls, name
    named = re.compile(rf"\b{name}\b")
    bad = [d for d in findings if named.search(d.message)]
    assert not bad, "\n".join(d.format() for d in bad)


def test_knob_classes_are_on_the_surface():
    for cls in KNOB_DOCS:
        assert cls in _CLASS_PATH, cls


def test_driver_docstrings_name_their_knobs(findings):
    bad = [d for d in findings if d.rule == "api-knob"]
    assert not bad, "\n".join(d.format() for d in bad)
