"""Every README example: each command line against its committed golden
output, and the library example against the values its comments give."""

import difflib
import re
from pathlib import Path

import golden_cases


def test_readme_commands_match_golden_outputs(tmp_path):
    produced = golden_cases.produce(tmp_path)
    stored = golden_cases.stored()
    assert sorted(produced) == sorted(stored)
    diffs = [
        "".join(difflib.unified_diff(
            stored[name].splitlines(True), produced[name].splitlines(True),
            f"golden/{name}", "now",
        ))
        for name in sorted(produced)
        if produced[name] != stored[name]
    ]
    assert not diffs, "\n".join(diffs)


def test_readme_library_example_prints_what_it_annotates(capsys):
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(prints)
    annotated = {
        line.split("#")[1].strip(): out for line, out in zip(prints, printed) if "#" in line
    }
    assert annotated.keys() == {"0.6309297535...", "0.5"}
    assert annotated["0.6309297535..."].startswith("0.6309297535")
    assert annotated["0.5"] == "0.5"
