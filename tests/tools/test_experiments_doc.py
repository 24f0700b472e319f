"""EXPERIMENTS.md carries every measured artifact in results/ verbatim,
each in a fenced block marked with the file it comes from, so
tools/assemble_experiments.py refreshes tables without touching prose."""

import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[2]
DOC = REPO / "EXPERIMENTS.md"
RESULTS = sorted((REPO / "results").glob("*.txt"))


def load_assembler():
    spec = importlib.util.spec_from_file_location(
        "assemble_experiments", REPO / "tools" / "assemble_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_result_appears_verbatim_in_experiments_md():
    doc = DOC.read_text()
    assert RESULTS
    for path in RESULTS:
        block = (
            f"<!-- results/{path.name} -->\n```\n"
            f"{path.read_text().rstrip()}\n```"
        )
        assert block in doc, (
            f"results/{path.name} differs from its EXPERIMENTS.md block; "
            "run tools/assemble_experiments.py"
        )


def test_assembler_rewrites_only_marked_blocks():
    assembler = load_assembler()
    doc = DOC.read_text()
    assert assembler.assemble(doc, REPO) == doc
    assert len(assembler.BLOCK.findall(doc)) == len(RESULTS)
    stale = doc.replace("Figure 7: Multi-core", "Figure 7: Stale", 1)
    assert stale != doc
    assert assembler.assemble(stale, REPO) == doc
