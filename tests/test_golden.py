"""Every README command-line example against its committed golden output."""

import difflib

import golden_cases


def test_readme_commands_match_golden_outputs(tmp_path, monkeypatch):
    monkeypatch.delenv("CANTORLAB_BUDGET", raising=False)
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
