"""Every Markdown file the code and docs cite must exist.

Module docstrings, benchmark comments and the docs point readers at
``*.md`` files by path.  A path resolves either from the repository root
(``docs/engines.md``) or from the citing file's directory (the docs link
their siblings as ``engines.md``).
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MD_PATH = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b")


def cited_files():
    yield from (ROOT / "src").rglob("*.py")
    yield from (ROOT / "benchmarks").rglob("*.py")
    yield from (ROOT / "docs").rglob("*.md")
    yield ROOT / "README.md"
    yield ROOT / "DESIGN.md"


def test_every_cited_markdown_path_exists():
    missing = []
    cited = 0
    for path in cited_files():
        for name in MD_PATH.findall(path.read_text(encoding="utf-8")):
            cited += 1
            if not ((ROOT / name).is_file() or (path.parent / name).is_file()):
                missing.append(f"{path.relative_to(ROOT)} cites {name}")
    assert cited > 0
    assert not missing, "\n".join(missing)
