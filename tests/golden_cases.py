"""Golden outputs of the README command-line examples.

Each case runs one README example in-process, in order, in one fresh
directory, and keeps what it leaves behind: the exit code, the JSON
record without ``runtime_seconds``, every CSV artifact byte for byte and the
SHA-256 of every other artifact (the ``recur`` certificate).
``test_golden.py`` compares a fresh run with the files in
``tests/golden/``.  After a change that is meant to alter an output,
regenerate them with

    PYTHONPATH=src python tests/golden_cases.py

and say in CHANGES.md which files changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().with_name("golden")

# (name, argv) as in README.md, except `marstrand` (20 λ instead of 200)
# and `stdmap` (50 orbits instead of 200), which are slow at README size.
# `recur-verify` reads the certificate that `recur` writes before it.
CASES = (
    ("list-sets", ["list-sets"]),
    ("dim-moran", ["dim", "--set", "ternary", "--method", "moran"]),
    ("dim-box", ["dim", "--set", "gauss2", "--method", "box", "--depth-min", "2",
                 "--depth-max", "10", "--csv", "dim.csv"]),
    ("thickness", ["thickness", "--set", "middle-fifth", "--depth", "8"]),
    ("sum", ["sum", "--set1", "ternary", "--set2", "ternary", "--depth", "10",
             "--csv", "sum.csv"]),
    ("diff", ["diff", "--set1", "thin", "--set2", "thin", "--lambda", "1.0",
              "--depth", "8"]),
    ("hall", ["hall", "--depth", "8"]),
    ("marstrand", ["marstrand", "--set1", "ternary", "--set2", "ternary",
                   "--n-lambdas", "20", "--seed", "0", "--csv", "scan.csv"]),
    ("intersect", ["intersect", "--set1", "ternary", "--set2", "ternary",
                   "--t", "0.25", "--depth", "9"]),
    ("recur", ["recur", "--set1", "middle-fifth", "--set2", "middle-fifth",
               "--cert-out", "cert.json"]),
    ("recur-verify", ["recur", "--verify", "cert.json"]),
    ("dstable", ["dstable", "--set1", "ternary", "--set2", "ternary", "--t", "0.25",
                 "--d", "0.3", "--seed", "0"]),
    ("density", ["density", "--set1", "thin", "--set2", "thin", "--t0", "0.0",
                 "--csv", "density.csv"]),
    ("spectrum-period", ["spectrum", "--period", "2,1", "--window", "8"]),
    ("spectrum-sample", ["spectrum", "--sample", "--max-period", "6",
                         "--digit-bound", "4", "--csv", "spectrum.csv"]),
    ("halfline", ["halfline", "--targets", "6,7.25,12", "--depth", "8"]),
    ("horseshoe", ["horseshoe", "--contraction", "1/3", "--expansion", "3"]),
    ("horseshoe-unit", ["horseshoe", "--solve-unit", "--expansion", "5"]),
    ("catmap", ["catmap", "--n", "10"]),
    ("stdmap", ["stdmap", "--lambda", "6", "--orbits", "50", "--iterates", "10000",
                "--seed", "0", "--csv", "exponents.csv"]),
)


def produce(workdir: Path) -> dict[str, str]:
    """Run every case in `workdir`; return {golden file name: text}."""
    from cantorlab.cli import main

    files: dict[str, str] = {}
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in CASES:
            before = set(os.listdir("."))
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
            record = json.loads(stdout.getvalue()) if stdout.getvalue() else None
            if record is not None:
                record.pop("runtime_seconds")
            case = {"argv": argv, "exit_code": code, "record": record, "sha256": {}}
            for artifact in sorted(set(os.listdir(".")) - before):
                data = Path(artifact).read_bytes()
                if artifact.endswith(".csv"):
                    files[f"{name}.{artifact}"] = data.decode("utf-8")
                else:
                    case["sha256"][artifact] = hashlib.sha256(data).hexdigest()
            files[f"{name}.json"] = json.dumps(case, indent=1, sort_keys=True) + "\n"
    finally:
        os.chdir(home)
    return files


def stored() -> dict[str, str]:
    """The committed golden files, {name: text}."""
    return {p.name: p.read_bytes().decode("utf-8") for p in sorted(GOLDEN_DIR.iterdir())}


def main() -> int:
    import tempfile

    os.environ.pop("CANTORLAB_BUDGET", None)
    with tempfile.TemporaryDirectory() as tmp:
        files = produce(Path(tmp))
    GOLDEN_DIR.mkdir(exist_ok=True)
    for old in GOLDEN_DIR.iterdir():
        old.unlink()
    for name, text in files.items():
        (GOLDEN_DIR / name).write_bytes(text.encode("utf-8"))
    print(f"wrote {len(files)} files to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
