import json
import math
import re

import numpy as np
import pytest

import mrpower as mp
from mrpower import cli, suites
from mrpower.cli import main
from mrpower.errors import NotDensity
from mrpower.powers import DEFAULT_CONVERSION_DIM_CAP
from mrpower.serialize import channel_to_dict, load_channel, save_channel


def write_channel(tmp_path, name, channel):
    path = tmp_path / name
    save_channel(str(path), channel)
    return str(path)


class TestPowerCommand:
    def test_g_channel_values(self, tmp_path, capsys):
        path = write_channel(tmp_path, "g.json", mp.example_channels()["g"])
        assert main(["power", path, "--what", "both"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["c"] == pytest.approx(1.0, abs=1e-9)
        assert out["cg"] == pytest.approx(0.0, abs=1e-9)

    def test_prep_channel_values(self, tmp_path, capsys):
        path = write_channel(tmp_path, "prep.json", mp.example_channels()["prep"])
        assert main(["power", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["c"] == pytest.approx(0.0, abs=1e-9)
        assert out["cg"] == pytest.approx(1.0, abs=1e-9)

    def test_single_quantity(self, tmp_path, capsys):
        path = write_channel(tmp_path, "g.json", mp.example_channels()["g"])
        assert main(["power", path, "--what", "c"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {"c"}

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["power", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["power", str(tmp_path / "nope.json")]) == 2

    def test_invalid_channel_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "dim_in": 2,
                    "dim_out": 2,
                    "kraus": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
                }
            )
        )
        assert main(["power", str(path)]) == 3
        assert "identity" in capsys.readouterr().err

    def test_non_square_channel_exits_3(self, tmp_path):
        rng = mp.SeededRng(601)
        rect = mp.measurement_as_channel(mp.random_povm(2, 3, False, rng))
        path = write_channel(tmp_path, "rect.json", rect)
        out = tmp_path / "out.json"
        out.write_text("an earlier result")
        for command in (
            ["power", path],
            ["power", path, "--what", "c"],
            ["power", path, "--what", "cg"],
            ["convert", path, "--out", str(out)],
        ):
            assert main(command) == 3, command
        assert out.read_text() == "an earlier result"


class TestConvertCommand:
    def test_g_channel_certificate(self, tmp_path, capsys):
        path = write_channel(tmp_path, "g.json", mp.example_channels()["g"])
        out_path = tmp_path / "converted.json"
        assert main(["convert", path, "--out", str(out_path)]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["cohering_power"] == pytest.approx(1.0, abs=1e-9)
        assert cert["avg_ere_lower_bound"] == pytest.approx(1.0, abs=1e-9)
        assert cert["gap"] <= 1e-9
        converted = load_channel(str(out_path))
        assert (converted.dim_in, converted.dim_out) == (4, 4)
        assert mp.classify_channel(converted).cptp

    def test_identity_channel(self, tmp_path, capsys):
        path = write_channel(tmp_path, "id.json", mp.identity_channel(2))
        assert main(["convert", path, "--out", str(tmp_path / "out.json")]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["cohering_power"] == pytest.approx(0.0, abs=1e-12)
        assert cert["avg_ere_lower_bound"] == pytest.approx(0.0, abs=1e-12)

    def test_dimension_cap_exits_3(self, tmp_path, capsys):
        path = write_channel(tmp_path, "big.json", mp.identity_channel(7))
        assert main(["convert", path, "--out", str(tmp_path / "out.json")]) == 3
        assert "cap" in capsys.readouterr().err


class TestVerifyCommand:
    def test_single_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--suite", "conversion_equality",
                "--dim", "2",
                "--trials", "20",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["suite"] == "conversion_equality"
        assert report["passed"] is True
        assert report["max_violation"] <= 1e-9
        assert len(report["trial_values"]) == 20
        summary = capsys.readouterr().out
        assert "conversion_equality" in summary and "PASS" in summary

    def test_report_schema_keys(self, tmp_path):
        out = tmp_path / "report.json"
        main(["verify", "--suite", "duality", "--trials", "5", "--out", str(out)])
        report = json.loads(out.read_text())
        assert list(report) == [
            "suite",
            "dim",
            "trials",
            "master_seed",
            "tolerance",
            "max_violation",
            "trial_values",
            "failures",
            "passed",
            "wall_time_ms",
        ]

    def test_oracle_requires_dim_2(self, capsys):
        assert main(["verify", "--suite", "cm_oracle", "--dim", "3", "--trials", "5"]) == 2

    def test_bad_trials_exits_2(self):
        assert main(["verify", "--suite", "duality", "--trials", "0"]) == 2

    def test_conversion_dim_cap_exits_2(self):
        assert main(["verify", "--suite", "conversion_equality", "--dim", "7"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_tolerance_must_be_positive_and_finite(self, tol, capsys):
        # --tol=-inf: a separate "-inf" would be read as an option by argparse
        assert main(["verify", "--suite", "duality", "--trials", "2", f"--tol={tol}"]) == 2
        streams = capsys.readouterr()
        assert "--tol" in streams.err
        assert streams.out == ""  # no suite ran

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
    def test_run_suite_rejects_a_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            mp.run_suite("duality", dim=2, trials=2, seed=1, tol=tol)

    def test_unexpected_exception_exits_5(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise RuntimeError("unexpected\nstate")

        monkeypatch.setattr(cli, "run_suite", crash)
        assert main(["verify", "--suite", "duality", "--trials", "2"]) == cli.EXIT_INTERNAL == 5
        err = capsys.readouterr().err
        assert err.startswith("error: internal error: RuntimeError: unexpected state (at ")
        assert err.endswith(" in crash)\n") and err.count("\n") == 1

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "nonsense"])
        assert info.value.code == 2

    def test_failure_exits_1(self, tmp_path):
        code = main(
            [
                "verify",
                "--suite", "dm_properties",
                "--trials", "3",
                "--tol", "1e-300",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["passed"] is False

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        main(
            [
                "verify",
                "--suite", "duality",
                "--trials", "4",
                "--out", str(out),
                "--format", "csv",
            ]
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "suite,dim,trials,master_seed,tolerance,trial,violation"
        assert len(lines) == 5  # header + one row per trial

    def test_reports_reproduce(self, tmp_path):
        args = ["verify", "--suite", "power_monotone", "--trials", "10", "--seed", "3"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        pattern = re.compile(r'"wall_time_ms": \d+')
        normalized_a = pattern.sub('"wall_time_ms": 0', first.read_text())
        normalized_b = pattern.sub('"wall_time_ms": 0', second.read_text())
        assert normalized_a == normalized_b


def write_nan_channel(tmp_path):
    wire = channel_to_dict(mp.dephasing_channel(2))
    wire["kraus"][0][0][0] = [math.nan, 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(wire))
    return str(path)


def write_overflow_channel(tmp_path):
    """A channel file whose first entry is an integer no float can hold."""
    text = json.dumps(channel_to_dict(mp.dephasing_channel(2)))
    path = tmp_path / "overflow.json"
    path.write_text(text.replace("1.0", "1" + "0" * 400, 1))
    return str(path)


def write_gram_overflow_channel(tmp_path):
    """A channel file of one Kraus operator whose finite entries overflow
    the Choi matrix to +-inf."""
    path = tmp_path / "gram_overflow.json"
    path.write_text(json.dumps({
        "dim_in": 2,
        "dim_out": 2,
        "kraus": [[[[1e155, 0.0], [1e155, 0.0]], [[1e155, 0.0], [-1e155, 0.0]]]],
    }))
    return str(path)


class TestInvalidInputExitCodes:
    def test_power_on_nan_entry_exits_3(self, tmp_path, capsys):
        assert main(["power", write_nan_channel(tmp_path)]) == 3
        assert "NaN" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_power_on_gram_overflow_exits_3(self, tmp_path):
        assert main(["power", write_gram_overflow_channel(tmp_path)]) == 3

    def test_convert_on_nan_entry_exits_3(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["convert", write_nan_channel(tmp_path), "--out", str(out)]) == 3

    def test_failed_convert_keeps_earlier_output(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("an earlier result")
        assert main(["convert", write_nan_channel(tmp_path), "--out", str(out)]) == 3
        assert main(["convert", str(tmp_path / "missing.json"), "--out", str(out)]) == 2
        assert out.read_text() == "an earlier result"

    def test_convert_in_place(self, tmp_path):
        path = write_channel(tmp_path, "g.json", mp.example_channels()["g"])
        expected = tmp_path / "expected.json"
        assert main(["convert", path, "--out", str(expected)]) == 0
        assert main(["convert", path, "--out", path]) == 0
        assert (tmp_path / "g.json").read_text() == expected.read_text()

    def test_error_after_load_exits_3(self, tmp_path, monkeypatch):
        def fail(channel):
            raise NotDensity("operator is not a density matrix")

        monkeypatch.setattr(cli, "measurement_cohering_power", fail)
        path = write_channel(tmp_path, "g.json", mp.example_channels()["g"])
        assert main(["power", path]) == 3

    def test_linalg_error_exits_3(self, tmp_path, monkeypatch):
        def fail(channel):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "conversion_channel", fail)
        path = write_channel(tmp_path, "g.json", mp.example_channels()["g"])
        assert main(["convert", path, "--out", str(tmp_path / "out.json")]) == 3

    def test_unwritable_output_exits_2(self, tmp_path):
        path = write_channel(tmp_path, "g.json", mp.example_channels()["g"])
        assert main(["convert", path, "--out", str(tmp_path / "missing" / "out.json")]) == 2

    def test_verify_to_unwritable_output_exits_2_before_any_suite(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert main(["verify", "--suite", "duality", "--trials", "1", "--out", str(out)]) == 2
        streams = capsys.readouterr()
        assert "cannot write" in streams.err
        assert streams.out == ""  # no suite ran

    def test_power_on_overflowing_integer_exits_3(self, tmp_path, capsys):
        assert main(["power", write_overflow_channel(tmp_path)]) == 3
        assert "kraus[0]" in capsys.readouterr().err

    def test_convert_on_overflowing_integer_keeps_earlier_output(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("an earlier result")
        assert main(["convert", write_overflow_channel(tmp_path), "--out", str(out)]) == 3
        assert out.read_text() == "an earlier result"

    @pytest.mark.parametrize("content", [
        # an integer past Python's digit limit for int parsing
        json.dumps(channel_to_dict(mp.dephasing_channel(2))).replace("1.0", "1" + "0" * 5000, 1)
        .encode(),
        b"\xff\xfe{}",  # not UTF-8
    ])
    def test_unparsable_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "unparsable.json"
        path.write_bytes(content)
        assert main(["power", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_boolean_entry_exits_2(self, tmp_path, capsys):
        text = json.dumps(channel_to_dict(mp.identity_channel(2))).replace("1.0", "true")
        path = tmp_path / "boolean.json"
        path.write_text(text)
        assert main(["power", str(path)]) == 2
        assert "[re, im] pair" in capsys.readouterr().err

    def test_dimension_cap_is_the_certificate_cap(self, capsys):
        dim = DEFAULT_CONVERSION_DIM_CAP + 1
        assert main(["verify", "--suite", "thm3_proxy", "--dim", str(dim)]) == 2
        assert f"dimension {DEFAULT_CONVERSION_DIM_CAP}" in capsys.readouterr().err


class TestConvertOutput:
    def test_full_rank_d4_writes_minimal_kraus_set(self, tmp_path, capsys):
        channel = mp.random_channel(4, 16, "general", mp.SeededRng(602))
        path = write_channel(tmp_path, "d4.json", channel)
        out = tmp_path / "converted.json"
        assert main(["convert", path, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["gap"] <= 1e-9
        wire = json.loads(out.read_text())
        kraus = np.array(wire["kraus"], dtype=float)
        kraus = kraus[..., 0] + 1j * kraus[..., 1]
        assert kraus.shape[0] <= 64  # Choi rank of the conversion channel is at most d^3
        gram = np.einsum("kab,kac->bc", kraus.conj(), kraus)
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-9


class TestNanViolations:
    def test_nan_trial_fails_the_suite(self, monkeypatch):
        monkeypatch.setitem(
            suites.SUITES, "duality", (lambda dim, rng, tol: (math.nan, None), 1e-8, 9)
        )
        report = mp.run_suite("duality", dim=2, trials=3, seed=1)
        assert report.passed is False
        assert report.max_violation == math.inf
        assert report.trial_values == [math.inf] * 3

    def test_nan_after_a_finite_violation_is_not_dropped(self):
        assert max(0.0, math.nan) == 0.0  # the fold that let NaN pass
        assert suites._worst(0.0, math.nan) == math.inf
        assert suites._worst(1e-3, math.nan, 0.0) == math.inf
        assert suites._worst(0.0, 2e-9) == 2e-9


class TestParserReuse:
    COMMANDS = (
        ["power", "{g}", "--what", "c"],
        ["power", "{g}"],
        ["verify", "--suite", "duality", "--trials", "3", "--seed", "5"],
        ["power", "{prep}", "--what", "cg"],
        ["verify", "--suite", "cm_oracle", "--trials", "2"],
        ["convert", "{g}", "--out", "{out}"],
    )

    def test_later_calls_match_fresh_parsers(self, tmp_path, capsys):
        paths = {
            "g": write_channel(tmp_path, "g.json", mp.example_channels()["g"]),
            "prep": write_channel(tmp_path, "prep.json", mp.example_channels()["prep"]),
            "out": str(tmp_path / "out.json"),
        }
        commands = [[arg.format(**paths) for arg in argv] for argv in self.COMMANDS]
        wall_time = re.compile(r"\(\d+ ms\)")

        def run(fresh):
            outputs = []
            for argv in commands:
                if fresh:
                    cli._parser.cache_clear()
                code = main(argv)
                outputs.append((code, wall_time.sub("", capsys.readouterr().out)))
            return outputs

        assert run(fresh=False) == run(fresh=True)
