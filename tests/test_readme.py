"""The README's library layout names exactly the modules of the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _layout_rows() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(swapsim\.\w+)` \|", section, flags=re.MULTILINE)


def test_library_layout_lists_each_module_once():
    modules = [f"swapsim.{path.stem}" for path in (ROOT / "src" / "swapsim").glob("*.py") if path.stem != "__init__"]
    assert sorted(_layout_rows()) == sorted(modules)
