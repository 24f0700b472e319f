#!/usr/bin/env python
"""Refresh EXPERIMENTS.md's measured tables from the artifacts in results/.

EXPERIMENTS.md is its own template: each measured table is a fenced block
directly under a marker line naming the file it comes from,

    <!-- results/fig7.txt -->
    ```
    Figure 7: ...
    ```

and this tool rewrites only those blocks' bodies, leaving every other line
(prose, unmarked blocks) as committed. A marked file that does not exist
keeps its committed block and is reported on stderr. Run after
``examples/generate_report.py`` (from the repository root, which is where
the tool looks for both files):

    python examples/generate_report.py --outdir results
    python tools/assemble_experiments.py
"""

import pathlib
import re
import sys

#: A marker line plus the fenced block under it; group 1 is the source path.
BLOCK = re.compile(r"^<!-- (results/[\w.-]+) -->\n```\n(?:.*?\n)?```$",
                   re.MULTILINE | re.DOTALL)


def assemble(doc: str, root: pathlib.Path) -> str:
    """``doc`` with every marked block refilled from ``root/<source>``."""

    def refill(match: re.Match) -> str:
        source = root / match.group(1)
        if not source.exists():
            print(f"{match.group(1)}: not generated; committed block kept",
                  file=sys.stderr)
            return match.group(0)
        body = source.read_text().rstrip()
        return f"<!-- {match.group(1)} -->\n```\n{body}\n```"

    return BLOCK.sub(refill, doc)


if __name__ == "__main__":
    path = pathlib.Path("EXPERIMENTS.md")
    path.write_text(assemble(path.read_text(), pathlib.Path(".")))
