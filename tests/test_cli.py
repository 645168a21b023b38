"""Tests for the command-line interface: result records, digests, exit
codes, config-file precedence, and artifact files."""

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import cantorlab
from cantorlab import cli, gauss_cantor
from cantorlab.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, HALL_TARGET

from conftest import run_cli


def canonical_digest(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestResultRecord:
    def test_record_shape_and_digest(self, capsys):
        code, rec, _, _ = run_cli(["dim"], capsys)
        assert code == EXIT_OK
        assert rec["schema"] == 1
        assert rec["command"] == "dim"
        assert rec["runtime_seconds"] >= 0.0
        assert rec["inputs"]["set"] == "ternary"
        assert rec["inputs"]["method"] == "moran"
        # the digest is the sha256 of the canonical JSON of the inputs
        assert rec["inputs_digest"] == canonical_digest(rec["inputs"])
        assert rec["outputs"]["value"] == pytest.approx(
            math.log(2.0) / math.log(3.0), abs=1e-9
        )

    def test_inputs_omit_unset_and_output_keys(self, capsys):
        code, rec, _, _ = run_cli(["thickness", "--depth", "4"], capsys)
        assert code == EXIT_OK
        assert "set_file" not in rec["inputs"]  # None values are dropped
        assert "out" not in rec["inputs"]
        assert "csv" not in rec["inputs"]
        assert "jobs" not in rec["inputs"]

    def test_digest_deterministic_and_ignores_output_locations(self, capsys, tmp_path):
        argv = ["marstrand", "--n-lambdas", "2", "--depth", "3"]
        code, rec1, _, _ = run_cli(argv, capsys)
        out = tmp_path / "rec.json"
        code2, _, stdout, _ = run_cli(argv + ["--out", str(out)], capsys)
        assert code == code2 == EXIT_OK
        assert stdout == ""  # record went to the file instead
        rec2 = json.loads(out.read_text())
        assert rec2["inputs_digest"] == rec1["inputs_digest"]
        assert rec2["outputs"] == rec1["outputs"]

    def test_digest_changes_with_inputs(self, capsys):
        _, rec1, _, _ = run_cli(["thickness", "--depth", "4"], capsys)
        _, rec2, _, _ = run_cli(["thickness", "--depth", "5"], capsys)
        assert rec1["inputs_digest"] != rec2["inputs_digest"]

    def test_set_file_content_enters_the_digest(self, capsys, tmp_path):
        # one path holding ternary, then thin: two values, two digests
        path = tmp_path / "s.json"
        records = []
        for name in ("ternary", "thin"):
            cantorlab.dump_set(cantorlab.get_set(name), path)
            code, rec, _, _ = run_cli(["dim", "--set-file", str(path)], capsys)
            assert code == EXIT_OK
            assert rec["inputs"]["set_file"] == str(path)
            assert rec["inputs"]["set_file_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
            records.append(rec)
        assert records[0]["outputs"]["value"] != records[1]["outputs"]["value"]
        assert records[0]["inputs_digest"] != records[1]["inputs_digest"]

    def test_recur_verify_records_only_the_certificate(self, capsys, tmp_path):
        ternary = cantorlab.set_to_json(cantorlab.get_set("ternary"))
        grid = {"s0": 0.0, "hs": 0.1, "ns": 1, "t0": 0.0, "ht": 0.1, "nt": 1, "types": [2, 2]}
        doc = {"grid": grid, "margin": 0, "sets": {"first": ternary, "second": ternary},
               "mask_rle": [4]}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        digests = set()
        for extra in ([], ["--ns", "7", "--margin", "2", "--set1", "thin"]):
            code, rec, _, _ = run_cli(["recur", "--verify", str(path), *extra], capsys)
            assert code == EXIT_OK
            assert rec["inputs"] == {
                "verify": str(path),
                "verify_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            }
            digests.add(rec["inputs_digest"])
        assert len(digests) == 1

    @pytest.mark.parametrize(
        "argv, unread",
        [
            (["dim", "--method", "moran", "--depth", "4"],
             [["--depth-min", "3"], ["--depth-max", "6"]]),
            (["dim", "--method", "box", "--depth-min", "2", "--depth-max", "4"],
             [["--depth", "3"], ["--depth", "5"]]),
            (["horseshoe", "--solve-unit", "--expansion", "5"],
             [["--contraction", "1/4"], ["--contraction", "1/3"]]),
        ],
        ids=["moran-depth-range", "box-depth", "solve-unit-contraction"],
    )
    def test_a_setting_the_mode_never_reads_leaves_the_digest(self, capsys, argv, unread):
        records = []
        for extra in ([], *unread):
            code, rec, _, _ = run_cli([*argv, *extra], capsys)
            assert code == EXIT_OK
            records.append(rec)
        assert len({rec["inputs_digest"] for rec in records}) == 1
        assert all(rec["outputs"] == records[0]["outputs"] for rec in records)
        for extra in unread:
            assert extra[0][2:].replace("-", "_") not in records[0]["inputs"]

    def test_empty_prefix_gives_the_digest_of_no_prefix(self, capsys, tmp_path):
        _, plain, _, _ = run_cli(["spectrum", "--period", "2,1"], capsys)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prefix": []}))
        for extra in (["--prefix="], ["--config", str(cfg)]):
            code, rec, _, _ = run_cli(["spectrum", "--period", "2,1", *extra], capsys)
            assert code == EXIT_OK
            assert "prefix" not in rec["inputs"]
            assert rec["inputs_digest"] == plain["inputs_digest"]
            assert rec["outputs"] == plain["outputs"]
        # an empty period is no period, which is still refused
        code, _, _, err = run_cli(["spectrum", "--period="], capsys)
        assert code == EXIT_INVALID
        assert "period" in err

    def test_csv_artifacts(self, capsys, tmp_path):
        dim_csv = tmp_path / "dim.csv"
        code, _, _, _ = run_cli(
            ["dim", "--method", "box", "--depth-min", "2", "--depth-max", "6",
             "--csv", str(dim_csv)],
            capsys,
        )
        assert code == EXIT_OK
        lines = dim_csv.read_text().strip().splitlines()
        assert lines[0] == "depth,N,r"
        assert len(lines) == 6  # depths 2..6

        sum_csv = tmp_path / "sum.csv"
        code, rec, _, _ = run_cli(
            ["sum", "--depth", "3", "--csv", str(sum_csv)], capsys
        )
        assert code == EXIT_OK
        lines = sum_csv.read_text().strip().splitlines()
        assert lines[0] == "lo,hi"
        assert len(lines) == rec["outputs"]["n_components"] + 1

    def test_union_csv_holds_numbers(self, capsys, tmp_path):
        path = tmp_path / "sum.csv"
        code, rec, _, _ = run_cli(
            ["sum", "--set1", "ternary", "--set2", "ternary", "--depth", "3",
             "--csv", str(path)],
            capsys,
        )
        assert code == EXIT_OK
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["lo", "hi"]
        values = [[float(x) for x in row] for row in rows]
        assert len(values) == rec["outputs"]["n_components"]
        assert values[0][0] == rec["outputs"]["lo"]
        assert values[-1][1] == rec["outputs"]["hi"]


class TestConfigFile:
    def test_precedence_flags_over_config_over_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": 4, "lambda": 2.5}))
        code, rec, _, _ = run_cli(
            ["diff", "--config", str(cfg), "--depth", "6"], capsys
        )
        assert code == EXIT_OK
        assert rec["inputs"]["depth"] == 6  # flag wins over config
        assert rec["inputs"]["lam"] == 2.5  # config wins over default 1.0
        assert rec["inputs"]["set1"] == "ternary"  # untouched default
        assert "config" not in rec["inputs"]

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depht": 4}))
        code, _, _, err = run_cli(["diff", "--config", str(cfg)], capsys)
        assert code == EXIT_INVALID
        assert "depht" in err

    def test_config_must_be_json_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        code, _, _, err = run_cli(["dim", "--config", str(cfg)], capsys)
        assert code == EXIT_INVALID
        assert "object" in err

    def test_config_invalid_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, _, _ = run_cli(["dim", "--config", str(cfg)], capsys)
        assert code == EXIT_INVALID

    def test_config_that_is_not_utf8_is_exit_three(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{")
        assert cli.main(["dim", "--config", str(cfg)]) == EXIT_INVALID

    def test_missing_config_file_names_path(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, _, _, err = run_cli(["dim", "--config", str(missing)], capsys)
        assert code == EXIT_INVALID
        assert "nope.json" in err

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            ("thickness", {"depth": "x"}, "depth"),
            ("thickness", {"budget": "abc"}, "budget"),
            ("thickness", {"depth": None}, "depth"),
            ("diff", {"lambda": [1]}, "lambda"),
            ("spectrum", {"sample": "false"}, "sample"),
            ("horseshoe", {"solve_unit": 1}, "solve_unit"),
            # numbers the flag would refuse
            ("thickness", {"depth": 2.7}, "depth"),
            ("thickness", {"depth": True}, "depth"),
            ("thickness", {"budget": True}, "budget"),
            ("marstrand", {"seed": 1.5}, "seed"),
            ("intersect", {"t": True}, "t"),
            ("intersect", {"t": 10**400}, "t"),
        ],
    )
    def test_config_value_of_the_wrong_type_is_exit_three(
        self, capsys, tmp_path, command, doc, key
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, rec, _, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == EXIT_INVALID
        assert rec is None
        assert repr(key) in err

    def test_config_values_are_stored_as_parsed(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": "3", "budget": None, "set": "thin"}))
        code, rec, _, _ = run_cli(["thickness", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert rec["inputs"] == {"depth": 3, "set": "thin"}
        _, flagged, _, _ = run_cli(["thickness", "--depth", "3", "--set", "thin"], capsys)
        assert flagged["inputs_digest"] == rec["inputs_digest"]
        assert flagged["outputs"] == rec["outputs"]

    def test_config_number_gives_the_digest_of_its_flag(self, capsys, tmp_path):
        digests = set()
        for flags, text in (
            (["--depth", "3"], '{"t": 0}'),
            (["--depth", "3"], '{"t": 0.0}'),
            (["--t", "0"], '{"depth": 3.0}'),
        ):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(text)
            code, rec, _, _ = run_cli(["intersect", *flags, "--config", str(cfg)], capsys)
            assert code == EXIT_OK
            assert rec["inputs"]["t"] == 0.0 and rec["inputs"]["depth"] == 3
            digests.add(rec["inputs_digest"])
        _, flagged, _, _ = run_cli(["intersect", "--depth", "3", "--t", "0"], capsys)
        assert digests == {flagged["inputs_digest"]}

    @pytest.mark.parametrize(
        "argv, flags, doc",
        [
            (["spectrum"], ["--period", "2,1"], {"period": [2, 1]}),
            (["spectrum", "--period", "1"], ["--prefix", "4,2"], {"prefix": "4, 2"}),
            (["halfline", "--depth", "3"], ["--targets", "6,7.5"], {"targets": [6, 7.5]}),
            (["horseshoe"], ["--contraction", "0.25"], {"contraction": 0.25}),
            (["horseshoe"], ["--contraction", "1/5", "--expansion", "6"],
             {"contraction": "0.2", "expansion": 6.0}),
        ],
        ids=["period", "prefix", "targets", "contraction", "ratios"],
    )
    def test_list_and_ratio_configs_give_the_record_of_their_flags(
        self, capsys, tmp_path, argv, flags, doc
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, rec, _, _ = run_cli([*argv, "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        _, flagged, _, _ = run_cli([*argv, *flags], capsys)
        assert rec["inputs_digest"] == flagged["inputs_digest"]
        assert rec["outputs"] == flagged["outputs"]


class TestExitCodes:
    def test_budget_exhaustion_is_exit_two(self, capsys):
        # n=5 needs 121 periodic points, over the budget of 100
        code, _, _, err = run_cli(["catmap", "--n", "5", "--budget", "100"], capsys)
        assert code == EXIT_BUDGET
        assert "budget" in err.lower()

    def test_unknown_set_name(self, capsys):
        code, _, _, err = run_cli(["dim", "--set", "no-such-set"], capsys)
        assert code == EXIT_INVALID
        assert "no-such-set" in err

    def test_missing_set_file_names_path(self, capsys, tmp_path):
        missing = tmp_path / "ghost.json"
        code, _, _, err = run_cli(["dim", "--set-file", str(missing)], capsys)
        assert code == EXIT_INVALID
        assert "ghost.json" in err

    def test_bad_method_rejected(self, capsys):
        code, _, _, _ = run_cli(["dim", "--method", "box", "--depth-min", "9",
                                 "--depth-max", "3"], capsys)
        assert code == EXIT_INVALID

    def test_budget_environment_variable_is_not_read(self, capsys, monkeypatch):
        # an environment variable never enters the inputs, so it must not
        # change the record: at 1000 intervals this diff would be capped
        argv = ["diff", "--set1", "thin", "--set2", "thin", "--depth", "6"]
        monkeypatch.delenv("CANTORLAB_BUDGET", raising=False)
        code, plain, _, _ = run_cli(argv, capsys)
        monkeypatch.setenv("CANTORLAB_BUDGET", "1000")
        code_env, rec, _, _ = run_cli(argv, capsys)
        assert code == code_env == EXIT_OK
        assert plain["outputs"]["n_components"] == 2187
        for r in (plain, rec):
            del r["runtime_seconds"]
        assert rec == plain

    def test_budget_environment_variable_cannot_exhaust_a_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("CANTORLAB_BUDGET", "1")
        code, _, _, _ = run_cli(["dim", "--set", "ternary"], capsys)
        assert code == EXIT_OK

    def test_nonpositive_budget_rejected(self, capsys):
        code, _, _, err = run_cli(["dim", "--budget", "-5"], capsys)
        assert code == EXIT_INVALID
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [["thickness", "--bogus"], ["thickness", "--depth", "notanint"], []],
        ids=["unknown-flag", "bad-int", "no-command"],
    )
    def test_argument_errors_are_exit_three(self, capsys, argv):
        code, rec, _, err = run_cli(argv, capsys)
        assert code == EXIT_INVALID
        assert rec is None
        assert "error:" in err  # argparse's own message

    @pytest.mark.parametrize("targets", ["nan", "inf", "6,inf", "-inf"])
    def test_halfline_target_that_is_not_finite_is_exit_three(self, capsys, targets):
        code, rec, _, err = run_cli(["halfline", f"--targets={targets}"], capsys)
        assert code == EXIT_INVALID
        assert rec is None
        assert "targets must be finite" in err

    def test_help_is_exit_zero(self, capsys):
        code, _, out, _ = run_cli(["thickness", "--help"], capsys)
        assert code == EXIT_OK
        assert "usage:" in out

    def test_tol_is_neither_a_flag_nor_a_config_key(self, capsys, tmp_path):
        # dimensions are bisected to full precision or in closed form
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-9}))
        for command in ("dim", "horseshoe"):
            code, rec, _, err = run_cli([command, "--tol", "1e-9"], capsys)
            assert code == EXIT_INVALID
            assert rec is None
            assert "--tol" in err
            code, rec, _, err = run_cli([command, "--config", str(cfg)], capsys)
            assert code == EXIT_INVALID
            assert rec is None
            assert "tol" in err

    def test_jobs_is_neither_a_flag_nor_a_config_key(self, capsys, tmp_path):
        for command in ("thickness", "marstrand"):
            code, _, _, err = run_cli([command, "--jobs", "2"], capsys)
            assert code == EXIT_INVALID
            assert "--jobs" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        code, _, _, err = run_cli(["marstrand", "--config", str(cfg)], capsys)
        assert code == EXIT_INVALID
        assert "jobs" in err


# (command line, key, flag value, config value as JSON text): each value
# is out of range, as a flag and as a config key
OUT_OF_RANGE = [
    (["intersect", "--depth", "3"], "t", "nan", "NaN"),
    (["dstable"], "radius", "nan", "NaN"),
    (["hall"], "margin", "nan", "NaN"),
    (["stdmap"], "lambda", "nan", "NaN"),
    (["marstrand"], "theta", "nan", "NaN"),
    (["marstrand"], "seed", "-1", "-1"),
    (["stdmap"], "seed", "-1", "-1"),
    (["dstable"], "seed", "-1", "-1"),
    (["horseshoe", "--contraction", "1/3"], "expansion", "1e400", '"1e400"'),
    (["horseshoe", "--solve-unit"], "expansion", "1e400", "1e400"),  # JSON reads inf
    (["intersect", "--depth", "3"], "t", "-inf", "-Infinity"),
]


class TestOutOfRangeNumbers:
    @pytest.mark.parametrize("argv, key, flag, text", OUT_OF_RANGE)
    def test_flag_is_exit_three(self, capsys, argv, key, flag, text):
        code, rec, _, err = run_cli([*argv, f"--{key}", flag], capsys)
        assert code == EXIT_INVALID
        assert rec is None
        assert key in err

    @pytest.mark.parametrize("argv, key, flag, text", OUT_OF_RANGE)
    def test_config_value_is_exit_three(self, capsys, tmp_path, argv, key, flag, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": {text}}}')
        code, rec, _, err = run_cli([*argv, "--config", str(cfg)], capsys)
        assert code == EXIT_INVALID
        assert rec is None
        assert key in err


class TestNegativeFlagValues:
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["intersect", "--depth", "2"], "--t", "-1e-3"),
            (["intersect", "--depth", "2"], "--t", "-.5E1"),
            (["stdmap", "--orbits", "2", "--iterates", "10"], "--lambda", "-1e-3"),
        ],
    )
    def test_exponent_form_reads_as_a_value(self, capsys, argv, flag, value):
        code, spaced, _, _ = run_cli([*argv, flag, value], capsys)
        assert code == EXIT_OK
        _, joined, _, _ = run_cli([*argv, f"{flag}={value}"], capsys)
        for rec in (spaced, joined):
            del rec["runtime_seconds"]
        assert spaced == joined


TERNARY_FILE = {
    "pieces": [["0", "1/3"], ["2/3", "1"]],
    "transitions": [[0, 0], [0, 1], [1, 0], [1, 1]],
}
WEAK_MOEBIUS_FILE = {
    **TERNARY_FILE,
    "branches": [
        {"kind": "moebius", "matrix": [[1, 0], [-2, 1]]},
        {"kind": "moebius", "matrix": [[3, -2], [2, -1]]},
    ],
}


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "doc",
        [
            {**TERNARY_FILE, "transitions": [["a", 0], [0, 1], [1, 0], [1, 1]]},
            {**TERNARY_FILE, "pieces": [["0", "1/3", "1/2"], ["2/3", "1"]]},
            {**TERNARY_FILE, "branches": [{"kind": "moebius", "matrix": [[1, 0]]}] * 2},
            {**TERNARY_FILE, "pieces": [["abc", "1/3"], ["2/3", "1"]]},
            {**TERNARY_FILE, "branches": [{"kind": "moebius", "matrix": [[0, 1], [1, 0]]}] * 2},
            WEAK_MOEBIUS_FILE,
        ],
        ids=["transition-string", "piece-triple", "matrix-one-row", "endpoint-string",
             "pole-at-endpoint", "weak-expansion"],
    )
    def test_malformed_set_file_is_exit_three(self, capsys, tmp_path, doc):
        path = tmp_path / "set.json"
        path.write_text(json.dumps(doc))
        code, rec, _, err = run_cli(["thickness", "--set-file", str(path)], capsys)
        assert code == EXIT_INVALID
        assert rec is None
        assert "invalid" in err

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{"], ids=["syntax", "utf8"])
    def test_set_file_that_is_not_json_is_exit_three(self, capsys, tmp_path, content):
        path = tmp_path / "set.json"
        path.write_bytes(content)
        code, rec, _, err = run_cli(["thickness", "--set-file", str(path)], capsys)
        assert code == EXIT_INVALID
        assert "set.json" in err

    def test_certificate_with_a_string_run_is_reported_malformed(self, capsys, tmp_path):
        ternary = cantorlab.set_to_json(cantorlab.get_set("ternary"))
        grid = {"s0": 0.0, "hs": 0.1, "ns": 1, "t0": 0.0, "ht": 0.1, "nt": 1, "types": [2, 2]}
        doc = {"grid": grid, "margin": 0, "sets": {"first": ternary, "second": ternary},
               "mask_rle": [4]}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, rec, _, _ = run_cli(["recur", "--verify", str(path)], capsys)
        assert code == EXIT_OK
        assert rec["outputs"]["reason"] == "certificate has no member cells"
        path.write_text(json.dumps({**doc, "mask_rle": ["4"]}))
        code, rec, _, _ = run_cli(["recur", "--verify", str(path)], capsys)
        assert code == EXIT_OK
        assert rec["outputs"]["verified"] is False
        assert rec["outputs"]["reason"].startswith("malformed certificate")


class TestCommands:
    def test_list_sets(self, capsys):
        code, rec, _, _ = run_cli(["list-sets"], capsys)
        assert code == EXIT_OK
        names = [e["name"] for e in rec["outputs"]["sets"]]
        for expected in ("ternary", "middle-fifth", "thin", "thick", "gauss2",
                         "gauss4", "horseshoe-stable"):
            assert expected in names
        assert all(e["description"] for e in rec["outputs"]["sets"])

    def test_spectrum_single_periodic_word(self, capsys):
        code, rec, _, _ = run_cli(
            ["spectrum", "--period", "2,1", "--window", "8"], capsys
        )
        assert code == EXIT_OK
        out = rec["outputs"]
        assert out["mode"] == "single"
        assert out["value"] == pytest.approx(math.sqrt(12.0), abs=1e-12)
        assert out["exact"] == {
            "p": 0, "q": 1, "r": 1, "d": 12, "float": out["value"],
        }
        e = out["exact"]
        assert e["p"] == 0 and e["q"] * e["q"] * e["d"] == 12 * e["r"] * e["r"]
        assert out["witness"] == [2, 1]
        assert out["estimator_gap"] <= 1e-9

    def test_spectrum_sample_minimum(self, capsys):
        code, rec, _, _ = run_cli(
            ["spectrum", "--sample", "--max-period", "3", "--digit-bound", "2"],
            capsys,
        )
        assert code == EXIT_OK
        out = rec["outputs"]
        assert out["mode"] == "sample"
        assert out["count"] > 0
        assert out["min_value"] == pytest.approx(math.sqrt(5.0), abs=1e-12)
        assert out["min_witness"] == [1]

    def test_spectrum_needs_period_or_sample(self, capsys):
        code, _, _, err = run_cli(["spectrum"], capsys)
        assert code == EXIT_INVALID
        assert "period" in err

    def test_spectrum_sample_csv(self, capsys, tmp_path):
        path = tmp_path / "sample.csv"
        code, _, _, _ = run_cli(
            ["spectrum", "--sample", "--max-period", "2", "--digit-bound", "2",
             "--csv", str(path)],
            capsys,
        )
        assert code == EXIT_OK
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "value,witness_digits,window"
        assert len(lines) > 1

    def test_intersect_disjoint_translation(self, capsys):
        code, rec, _, _ = run_cli(["intersect", "--t", "5.0"], capsys)
        assert code == EXIT_OK
        assert rec["outputs"]["disjoint"] is True
        assert rec["outputs"]["state"].startswith("DisjointAtDepth")

    def test_hall_shallow_cover(self, capsys):
        code, rec, _, _ = run_cli(["hall", "--depth", "4"], capsys)
        assert code == EXIT_OK
        out = rec["outputs"]
        assert out["contains"] is True
        assert out["max_error"] < 1e-12
        assert out["target"][0] == pytest.approx(math.sqrt(2.0) - 1.0)

    def test_hall_target_is_twice_the_exact_digit_bound_four_hull(self):
        K = gauss_cantor(4)
        hull = (K.meta["hull_min_surd"], K.meta["hull_max_surd"])
        assert HALL_TARGET == tuple(float(2 * y) for y in hull)
        assert HALL_TARGET == (0.41421356237309503, 1.6568542494923801)

    def test_horseshoe_solve_unit(self, capsys):
        code, rec, _, _ = run_cli(
            ["horseshoe", "--solve-unit", "--expansion", "4"], capsys
        )
        assert code == EXIT_OK
        out = rec["outputs"]
        assert out["at_unit_dimension"] is True
        assert out["contraction_solved"] == 0.25
        assert out["total_dimension"] == 1.0

    def test_dim_moran_is_full_precision(self, capsys):
        # the README example: log 2 / log 3 to within 2 ulp
        code, rec, _, _ = run_cli(["dim", "--set", "ternary", "--method", "moran"], capsys)
        assert code == EXIT_OK
        want = math.log(2.0) / math.log(3.0)
        assert abs(rec["outputs"]["value"] - want) <= 2 * math.ulp(want)

    def test_catmap_record(self, capsys):
        code, rec, _, _ = run_cli(["catmap", "--n", "3"], capsys)
        assert code == EXIT_OK
        assert rec["outputs"]["counts"] == [[1, 1, 1], [2, 5, 5], [3, 16, 16]]
        assert rec["outputs"]["all_counts_match"] is True

    def test_stdmap_record_and_csv(self, capsys, tmp_path):
        path = tmp_path / "exp.csv"
        code, rec, _, _ = run_cli(
            ["stdmap", "--lambda", "0", "--orbits", "5", "--iterates", "200",
             "--csv", str(path)],
            capsys,
        )
        assert code == EXIT_OK
        out = rec["outputs"]
        assert out["lambda"] == 0.0
        assert out["orbits"] == 5
        assert out["mean_exponent"] < 0.05
        assert out["max_abs_pair_sum"] < 1e-6
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "orbit_id,exponent"
        assert len(lines) == 6


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert cantorlab.__version__ == tomllib.load(fh)["project"]["version"]


# Every command's settings and defaults: the keys a config file may hold
# (apart from `config` itself) and the values a run starts from.
COMMON_SETTINGS = {"config": None, "out": None}
PAIR_SETTINGS = {"set1": "ternary", "set1_file": None, "set2": "ternary", "set2_file": None}
EXPECTED_SETTINGS = {
    "dim": {
        "set": "ternary",
        "set_file": None,
        "method": "moran",
        "depth": 8,
        "depth_min": 2,
        "depth_max": 10,
        "csv": None,
        "budget": None,
    },
    "thickness": {"set": "ternary", "set_file": None, "depth": 8, "budget": None},
    "sum": {**PAIR_SETTINGS, "depth": 8, "csv": None, "budget": None},
    "diff": {**PAIR_SETTINGS, "depth": 8, "lam": 1.0, "csv": None, "budget": None},
    "hall": {"depth": 8, "margin": 1e-3, "csv": None, "budget": None},
    "marstrand": {
        **PAIR_SETTINGS,
        "n_lambdas": 200,
        "lambda_lo": 0.1,
        "lambda_hi": 3.0,
        "depth": 8,
        "res_exp_lo": 6,
        "res_exp_hi": 12,
        "theta": 0.1,
        "seed": 0,
        "csv": None,
        "budget": None,
    },
    "intersect": {**PAIR_SETTINGS, "t": 0.0, "depth": 8, "budget": None},
    "recur": {
        "set1": "middle-fifth",
        "set1_file": None,
        "set2": "middle-fifth",
        "set2_file": None,
        "s_lo": -0.75,
        "s_hi": 0.75,
        "t_lo": -2.25,
        "t_hi": 1.25,
        "ns": 120,
        "nt": 240,
        "margin": 1,
        "cert_out": None,
        "verify": None,
        "budget": None,
    },
    "dstable": {
        **PAIR_SETTINGS,
        "t": 0.0,
        "d": 0.3,
        "perturbations": 20,
        "radius": 0.01,
        "depth": 9,
        "seed": 0,
        "budget": None,
    },
    "density": {
        **PAIR_SETTINGS,
        "t0": 0.0,
        "delta_max": 0.5,
        "n_deltas": 8,
        "depth": 8,
        "csv": None,
        "budget": None,
    },
    "spectrum": {
        "period": None,
        "prefix": None,
        "window": 6,
        "sample": False,
        "max_period": 6,
        "digit_bound": 4,
        "csv": None,
        "budget": None,
    },
    "halfline": {"targets": (6.0, 7.0, 8.0, 9.5, 12.0, 20.0), "depth": 8},
    "horseshoe": {
        "contraction": Fraction(1, 4),
        "expansion": Fraction(5),
        "solve_unit": False,
    },
    "catmap": {"n": 10, "budget": None},
    "stdmap": {"lam": 0.0, "orbits": 100, "iterates": 2000, "seed": 0, "csv": None},
    "list-sets": {},
}
NO_CSV = ("thickness", "intersect", "recur", "dstable", "halfline", "horseshoe", "catmap", "list-sets")
NO_BUDGET = ("halfline", "horseshoe", "stdmap", "list-sets")


class TestCommandTable:
    def test_every_command_is_covered(self):
        assert set(cli.COMMANDS) == set(EXPECTED_SETTINGS)

    @pytest.mark.parametrize("command", sorted(EXPECTED_SETTINGS))
    def test_defaults_keep_their_values_and_types(self, command):
        expected = {**COMMON_SETTINGS, **EXPECTED_SETTINGS[command]}
        cfg = cli._effective_config(command, {})
        assert cfg == expected
        assert {k: type(v) for k, v in cfg.items()} == {k: type(v) for k, v in expected.items()}

    @pytest.mark.parametrize("command", sorted(EXPECTED_SETTINGS))
    def test_config_file_accepts_exactly_the_settings(self, command, tmp_path):
        keys = {"out": None, **EXPECTED_SETTINGS[command]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(keys, default=str))  # a Fraction as "1/4"
        assert cli._load_config(str(path), command) == keys
        for extra in ("config", "jobs", "csv", "budget"):
            if extra in keys:
                continue
            path.write_text(json.dumps({extra: None}))
            with pytest.raises(cli.ConfigInvalid, match=extra):
                cli._load_config(str(path), command)

    @pytest.mark.parametrize("command", NO_CSV)
    def test_csv_flag_only_where_a_csv_is_written(self, command, capsys, tmp_path):
        path = tmp_path / "x.csv"
        code, rec, _, err = run_cli([command, "--csv", str(path)], capsys)
        assert code == EXIT_INVALID
        assert rec is None
        assert "--csv" in err
        assert not path.exists()

    @pytest.mark.parametrize("command", NO_BUDGET)
    def test_budget_flag_only_where_a_budget_is_read(self, command, capsys):
        code, rec, _, err = run_cli([command, "--budget", "7"], capsys)
        assert code == EXIT_INVALID
        assert rec is None
        assert "--budget" in err

    def test_csv_config_key_rejected_where_no_csv_is_written(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"csv": str(path)}))
        code, rec, _, err = run_cli(["thickness", "--config", str(cfg)], capsys)
        assert code == EXIT_INVALID
        assert rec is None
        assert "csv" in err
        assert not path.exists()

    def test_bad_method_is_exit_three_as_flag_and_config_key(self, capsys, tmp_path):
        code, _, _, err = run_cli(["dim", "--method", "boxx"], capsys)
        assert code == EXIT_INVALID
        assert "boxx" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "boxx"}))
        code, _, _, err = run_cli(["dim", "--config", str(cfg)], capsys)
        assert code == EXIT_INVALID
        assert "boxx" in err

    @pytest.mark.parametrize("command", sorted(EXPECTED_SETTINGS))
    def test_help_is_exit_zero_for_every_command(self, command, capsys):
        code, _, out, _ = run_cli([command, "--help"], capsys)
        assert code == EXIT_OK
        assert f"usage: cantorlab {command}" in out
