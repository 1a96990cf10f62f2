"""The package exports exactly the documented surface."""

import re
from pathlib import Path

import dehn

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves_and_is_documented():
    text = README.read_text(encoding="utf-8")
    assert len(dehn.__all__) == len(set(dehn.__all__))
    for name in dehn.__all__:
        assert hasattr(dehn, name), name
        # named in backticks: `name`, `name(args)` or `name(...).attribute`
        assert re.search(rf"`{re.escape(name)}\b", text), f"{name} is not in README.md"
