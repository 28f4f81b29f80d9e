#!/usr/bin/env python3
"""Documentation lint: broken relative Markdown links + header doc comments.

Two checks, both enforced by the CI docs job (.github/workflows/ci.yml):

1. Every relative link in the repo's *.md files must resolve to an existing
   file or directory (anchors are stripped; http/https/mailto and bare
   anchors are skipped).
2. Every public header of every src/ subsystem must open with a file-level
   '//' doc comment of at least MIN_DOC_LINES lines before any code, and
   contain '#pragma once'.

Exit status: 0 when clean, 1 with one finding per line otherwise.
"""
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SKIP_DIRS = {"build", ".git", ".claude"}
# Ingested reference material (retrieved paper/code digests), not repo docs:
# their figure links point at assets that were never part of this repo.
SKIP_FILES = {"PAPERS.md", "SNIPPETS.md"}
MIN_DOC_LINES = 2

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def md_files():
    for p in sorted(REPO.rglob("*.md")):
        if p.name in SKIP_FILES:
            continue
        if not SKIP_DIRS.intersection(part for part in p.relative_to(REPO).parts):
            yield p


def check_links():
    errors = []
    for md in md_files():
        text = md.read_text(encoding="utf-8")
        in_code = False
        for lineno, line in enumerate(text.splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_code = not in_code
                continue
            if in_code:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (md.parent / path).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{md.relative_to(REPO)}:{lineno}: broken link -> {target}"
                    )
    return errors


def check_headers():
    errors = []
    for h in sorted((REPO / "src").glob("*/*.h")):
        lines = h.read_text(encoding="utf-8").splitlines()
        doc = 0
        for line in lines:
            if line.startswith("//"):
                doc += 1
            else:
                break
        rel = h.relative_to(REPO)
        if doc < MIN_DOC_LINES:
            errors.append(
                f"{rel}:1: public header needs a file-level '//' doc "
                f"comment (>= {MIN_DOC_LINES} lines) before any code"
            )
        if "#pragma once" not in lines:
            errors.append(f"{rel}:1: missing '#pragma once'")
    return errors


def main():
    errors = check_links() + check_headers()
    for e in errors:
        print(e)
    print(f"check_docs: {len(errors)} finding(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
