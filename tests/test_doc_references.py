"""Every Markdown file and every ``repro`` name the docs cite must exist.

Module docstrings, benchmark comments and the docs point readers at
``*.md`` files by path.  A path resolves either from the repository root
(``docs/engines.md``) or from the citing file's directory (the docs link
their siblings as ``engines.md``).  The README, DESIGN.md and ``docs/``
also name modules, classes and functions as backticked dotted names
(`` `repro.core.array_engine.ArraySimulator` ``); each must import.
"""

import importlib
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


#: A backticked dotted name starting with ``repro.``; anything after the
#: name inside the backticks (a call signature) is ignored.
REPRO_NAME = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)[^`]*`")


def resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, then walk the rest
    as attributes; raises ``AttributeError``/``ImportError`` if missing."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ImportError(dotted)


def test_every_backticked_repro_name_resolves():
    documents = [ROOT / "README.md", ROOT / "DESIGN.md"]
    documents += sorted((ROOT / "docs").glob("*.md"))
    unresolved = []
    named = 0
    for path in documents:
        for dotted in REPRO_NAME.findall(path.read_text(encoding="utf-8")):
            named += 1
            try:
                resolve(dotted)
            except (ImportError, AttributeError) as error:
                unresolved.append(
                    f"{path.relative_to(ROOT)} names {dotted} ({error})"
                )
    assert named > 0
    assert not unresolved, "\n".join(unresolved)
