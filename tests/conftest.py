"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from cantorlab import Interval, get_set
from cantorlab.cantor_core import _address


@pytest.fixture(scope="session")
def ternary():
    return get_set("ternary")


@pytest.fixture(scope="session")
def middle_fifth():
    return get_set("middle-fifth")


@pytest.fixture(scope="session")
def thin_pair_set():
    return get_set("thin")


@pytest.fixture(scope="session")
def thick_pair_set():
    return get_set("thick")


def exact_intervals(cover) -> list[Interval]:
    """The intervals of a cover with its exact ends: on an exact set
    `Fraction`s of the integer numerators and denominators its leaves
    keep, on any other set the float ends."""
    if cover._leaves.nums is None:
        return list(map(Interval, cover.los.tolist(), cover.his.tolist()))
    return [Interval(Fraction(a, d), Fraction(b, d)) for a, b, d in zip(*cover._leaves.nums)]


def held_rows(walk, target):
    """Columns (length, parent's length, lo, hi) of the rows of a length
    walk's length-target cover, sorted by lo: what `cover` hands out, with
    the lengths it leaves behind."""
    rows = walk.rows()[walk._held(target)]
    return rows[np.argsort(rows[:, 2], kind="stable")].T


def itineraries(K, cover) -> list[tuple[int, ...]]:
    """The address of every interval of a cover of K: the itinerary of its
    midpoint (`_address`), a `Fraction` of the exact ends on an exact set
    and of the float ends on any other."""
    return [_address(K, Fraction(iv.lo + iv.hi) / 2, d)
            for iv, d in zip(exact_intervals(cover), cover._leaves.depth.tolist())]


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def run_cli(argv, capsys):
    """Run the command-line entry point in-process.

    Returns (exit_code, parsed_record_or_None, raw_stdout, raw_stderr).
    """
    from cantorlab.cli import main

    code = main(list(argv))
    captured = capsys.readouterr()
    record = None
    if captured.out.strip().startswith("{"):
        record = json.loads(captured.out)
    return code, record, captured.out, captured.err
