"""Package metadata: the distribution's version is ``repro.__version__``.

Read as text, because Python 3.10 has no ``tomllib``; the CI ``package``
job checks the installed metadata against the same attribute.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _table(text: str, header: str) -> str:
    """The body of one ``[header]`` table, up to the next table."""
    return text.split(f"\n[{header}]\n", 1)[1].split("\n[", 1)[0]


def test_version_has_one_source():
    text = PYPROJECT.read_text(encoding="utf-8")
    project = _table(text, "project")
    assert re.search(r'^dynamic = \[.*"version".*\]$', project, re.M)
    assert not re.search(r"^version\s*=", project, re.M)
    dynamic = _table(text, "tool.setuptools.dynamic")
    assert re.search(r'^version = \{\s*attr = "repro\.__version__"\s*\}$', dynamic, re.M)
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
