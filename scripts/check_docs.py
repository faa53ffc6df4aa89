"""Markdown link and config-table checker for README.md and docs/
(stdlib only).

CI's docs job runs this to keep the documentation tree coherent:

* every relative link target must exist on disk (files or directories);
* every in-document anchor (``#section``) must match a heading in the
  target file, using GitHub's slug rules (lowercase, spaces to dashes,
  punctuation stripped);
* external ``http(s)://`` links are reported but not fetched (CI must
  not depend on third-party uptime);
* every row of a config table (a table whose first header cell is
  ``SPQConfig`` field) must name a real ``SPQConfig`` field, read from
  ``src/repro/config.py`` with :mod:`ast` so the package need not be
  importable.

Usage:  python scripts/check_docs.py [extra.md ...]
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — good enough for our hand-written markdown; code
#: spans are stripped first so sample code cannot produce false links.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_SPAN_RE = re.compile(r"```.*?```|`[^`]*`", re.DOTALL)
#: A config table's header row and, per body row, its first cell's name.
CONFIG_HEADER_RE = re.compile(r"^\|\s*`SPQConfig` field\s*\|")
FIELD_CELL_RE = re.compile(r"^\|\s*`(\w+)`")


def config_fields(path: Path = ROOT / "src" / "repro" / "config.py") -> set[str]:
    """The annotated attributes of ``class SPQConfig`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "SPQConfig":
            return {
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
            }
    raise SystemExit(f"{path}: no class SPQConfig")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading text."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def heading_slugs(path: Path) -> set[str]:
    text = path.read_text(encoding="utf-8")
    return {github_slug(m.group(1)) for m in HEADING_RE.finditer(text)}


def check_file(path: Path) -> tuple[list[str], int]:
    """(broken links, total links checked) for one markdown file."""
    errors = []
    n_links = 0
    text = CODE_SPAN_RE.sub("", path.read_text(encoding="utf-8"))
    for match in LINK_RE.finditer(text):
        n_links += 1
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = target.partition("#")
        resolved = (
            path if not file_part else (path.parent / file_part).resolve()
        )
        if not resolved.exists():
            errors.append(f"{path}: broken link target {target!r}")
            continue
        if anchor and resolved.suffix == ".md":
            if github_slug(anchor) not in heading_slugs(resolved):
                errors.append(
                    f"{path}: anchor {target!r} matches no heading in"
                    f" {resolved.name}"
                )
    return errors, n_links


def check_config_tables(path: Path, fields: set[str]) -> list[str]:
    """Config-table rows of ``path`` naming no ``SPQConfig`` field."""
    errors = []
    in_table = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if CONFIG_HEADER_RE.match(line):
            in_table = True
            continue
        if not line.startswith("|"):
            in_table = False
            continue
        match = FIELD_CELL_RE.match(line)
        if in_table and match and match.group(1) not in fields:
            errors.append(
                f"{path}:{lineno}: config table names {match.group(1)!r},"
                " which is not an SPQConfig field"
            )
    return errors


def main(argv: list[str]) -> int:
    files = [ROOT / "README.md", *sorted((ROOT / "docs").glob("**/*.md"))]
    files += [Path(arg) for arg in argv]
    missing = [f for f in files if not f.exists()]
    if missing:
        raise SystemExit(f"missing markdown files: {missing}")
    errors: list[str] = []
    checked_links = 0
    fields = config_fields()
    for path in files:
        file_errors, n_links = check_file(path)
        errors.extend(file_errors)
        errors.extend(check_config_tables(path, fields))
        checked_links += n_links
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(
        f"checked {len(files)} files, {checked_links} links,"
        f" {len(errors)} error(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
