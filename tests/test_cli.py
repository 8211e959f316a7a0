import json
import subprocess
import sys
from pathlib import Path

import pytest

from swarmchain.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write_config(tmp_path, name="config.json", **overrides):
    config = {"n": 12, "p": 0.4, "intervals": 3, "delta": 3, "seed": 99}
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def test_simulate_writes_trace(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "trace.json"
    assert main(["simulate", "--config", str(config), "--output", str(out)]) == 0
    assert out.exists()
    doc = json.loads(out.read_text())
    assert doc["format"] == "swarmchain-trace"
    assert doc["manifest"]["seed"] == 99
    assert "trace written" in capsys.readouterr().out


def test_simulate_rejects_bad_probability(tmp_path, capsys):
    config = _write_config(tmp_path, p=1.5)
    out = tmp_path / "trace.json"
    code = main(["simulate", "--config", str(config), "--output", str(out)])
    assert code != 0
    assert not out.exists()
    assert "'p'" in capsys.readouterr().err


def test_simulate_is_reproducible_bytewise(tmp_path):
    config = _write_config(tmp_path)
    out = tmp_path / "trace.json"
    main(["simulate", "--config", str(config), "--output", str(out)])
    first = out.read_bytes()
    main(["simulate", "--config", str(config), "--output", str(out)])
    assert out.read_bytes() == first


def test_simulate_seed_override_changes_trace(tmp_path):
    config = _write_config(tmp_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    main(["simulate", "--config", str(config), "--output", str(out_a), "--seed", "1"])
    main(["simulate", "--config", str(config), "--output", str(out_b), "--seed", "2"])
    assert json.loads(out_a.read_text())["graphs"] != json.loads(out_b.read_text())["graphs"]


def test_simulate_derives_seed_when_missing(tmp_path, capsys):
    config = _write_config(tmp_path, seed=None)
    out = tmp_path / "trace.json"
    assert main(["simulate", "--config", str(config), "--output", str(out)]) == 0
    assert "entropy-derived seed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command",
    [["simulate", "--output", "trace.json"], ["montecarlo", "--trials", "200", "--tolerance", "1"]],
    ids=["simulate", "montecarlo"],
)
def test_machine_output_of_a_seedless_config_is_json_lines(command, tmp_path, capsys):
    """The derived-seed notice goes to stderr; the record carries the seed."""
    config = _write_config(tmp_path, seed=None)
    argv = [command[0], "--config", str(config), "--format", "machine"] + [
        str(tmp_path / arg) if arg.endswith(".json") else arg for arg in command[1:]
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    (notice,) = captured.err.splitlines()
    assert notice.startswith("no seed given; using entropy-derived seed ")
    assert records and records[0]["seed"] == int(notice.rsplit(" ", 1)[1])


def test_analyze_clean_run_reports_zero_findings(tmp_path, capsys):
    config = _write_config(tmp_path)
    trace = tmp_path / "trace.json"
    main(["simulate", "--config", str(config), "--output", str(trace)])
    report = tmp_path / "report.json"
    code = main(["analyze", "--trace", str(trace), "--output", str(report)])
    assert code == 0
    assert "central audit: 0 findings" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["audit"]["clean"] is True
    assert doc["manifest"]["config"]["n"] == 12


def test_analyze_lists_disappeared_robot_with_last_seen(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        n=8,
        p=0.9,
        alpha=0.2,
        adversaries=[{"behavior": "disappear", "robots": [6], "from_t": 1, "to_t": 3}],
    )
    trace = tmp_path / "trace.json"
    main(["simulate", "--config", str(config), "--output", str(trace)])
    report = tmp_path / "report.json"
    main(["analyze", "--trace", str(trace), "--output", str(report)])
    text = capsys.readouterr().out
    assert "robot 6 disappeared (last seen interval 0)" in text
    doc = json.loads(report.read_text())
    assert {"robot": 6, "last_seen": 0} in doc["central"]["disappeared"]
    assert 6 in doc["audit"]["missing_heads"]


def test_analyze_flags_colluding_pair_with_probability(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        n=12,
        p=0.33,
        alpha=0.2,
        adversaries=[{"behavior": "collude", "robots": [3, 7]}],
    )
    trace = tmp_path / "trace.json"
    main(["simulate", "--config", str(config), "--output", str(trace)])
    report = tmp_path / "report.json"
    main(["analyze", "--trace", str(trace), "--output", str(report)])
    text = capsys.readouterr().out
    assert "pair (3, 7) co-met in 3 consecutive intervals" in text
    doc = json.loads(report.read_text())
    rows = [row for row in doc["central"]["collusion_suspects"] if row["pair"] == [3, 7]]
    assert rows and rows[0]["consecutive"] == 3
    assert rows[0]["probability"] == pytest.approx(0.33**3)


def test_analyze_machine_format_emits_json_lines(tmp_path, capsys):
    config = _write_config(tmp_path)
    trace = tmp_path / "trace.json"
    main(["simulate", "--config", str(config), "--output", str(trace)])
    capsys.readouterr()
    main(["analyze", "--trace", str(trace), "--format", "machine"])
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    records = [json.loads(line) for line in lines]
    kinds = {r["record"] for r in records}
    assert {"observer-report", "central-report", "central-audit"} <= kinds


def test_analyze_machine_records_are_the_report_document(tmp_path, capsys):
    """Each machine record is the ``--output`` document's observer report,
    central report or audit, in that order, with its record kind added."""
    config = _write_config(tmp_path, alpha=0.2, adversaries=[{"behavior": "refuse_record", "robots": [2]}])
    trace, report = tmp_path / "trace.json", tmp_path / "report.json"
    main(["simulate", "--config", str(config), "--output", str(trace)])
    capsys.readouterr()
    assert main(["analyze", "--trace", str(trace), "--format", "machine", "--output", str(report)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    doc = json.loads(report.read_text())
    expected = [
        *({"record": "observer-report", **observer} for observer in doc["observers"]),
        {"record": "central-report", **doc["central"]},
        {"record": "central-audit", **doc["audit"]},
    ]
    assert records == expected
    assert len(doc["observers"]) == 12


def test_analyze_rejects_corrupt_trace(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    code = main(["analyze", "--trace", str(path)])
    assert code == 2
    assert "trace error" in capsys.readouterr().err


def test_analyze_reports_position_of_first_failure(tmp_path, capsys):
    config = _write_config(tmp_path)
    trace = tmp_path / "trace.json"
    main(["simulate", "--config", str(config), "--output", str(trace)])
    doc = json.loads(trace.read_text())
    doc["links"][2] = doc["links"][2][:-2]  # one byte short
    trace.write_text(json.dumps(doc))
    code = main(["analyze", "--trace", str(trace)])
    assert code == 2
    assert "links[2]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option,value,p,code",
    [
        ("--delta", "0", 0.4, 2),
        ("--delta", "-3", 0.4, 2),
        ("--delta", "4", 0.4, 2),
        ("--delta", "1", 0.4, 0),
        ("--delta", "3", 0.4, 0),
        # at p=0 nobody meets, so no pairing verdict ever reads alpha
        ("--alpha", "1.0", 0.0, 2),
        ("--alpha", "-0.1", 0.0, 2),
        ("--alpha", "nan", 0.0, 2),
        ("--alpha", "0", 0.0, 0),
        ("--alpha", "0.99", 0.0, 0),
        ("--epsilon", "0", 0.4, 2),
        ("--epsilon", "1", 0.4, 2),
        ("--epsilon", "7", 0.4, 2),
        ("--epsilon", "nan", 0.4, 2),
        ("--epsilon", "0.5", 0.4, 0),
    ],
)
def test_analyze_refuses_out_of_range_overrides(option, value, p, code, tmp_path, capsys):
    config = _write_config(tmp_path, p=p)
    trace = tmp_path / "trace.json"
    main(["simulate", "--config", str(config), "--output", str(trace)])
    capsys.readouterr()
    assert main(["analyze", "--trace", str(trace), option, value]) == code
    err = capsys.readouterr().err
    assert (option in err) == (code == 2), err


def test_analyze_refuses_epsilon_before_loading_the_trace(tmp_path, capsys):
    assert main(["analyze", "--trace", str(tmp_path / "missing.json"), "--epsilon", "7"]) == 2
    err = capsys.readouterr().err
    assert "--epsilon" in err and "missing.json" not in err


def test_analyze_refuses_alpha_before_loading_the_trace(tmp_path, capsys):
    assert main(["analyze", "--trace", str(tmp_path / "missing.json"), "--alpha", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "--alpha must be in [0, 1), got 1.0" in err and "missing.json" not in err


@pytest.mark.parametrize(
    "option,value",
    [("--trials", "0"), ("--trials", "bound+1"), ("--runs", "-1"), ("--runs", "bound+1")],
)
def test_montecarlo_refuses_trials_and_runs_out_of_bounds_before_loading_the_config(option, value, tmp_path, capsys):
    from swarmchain import cli, prob

    bound = {"--trials": prob.MAX_MC_TRIALS, "--runs": cli.MAX_MC_RUNS}[option]
    value = str(bound + 1) if value == "bound+1" else value
    low = 1 if option == "--trials" else 0
    assert main(["montecarlo", "--config", str(tmp_path / "missing.json"), option, value]) == 2
    err = capsys.readouterr().err
    assert f"{option} must be in {low}..{bound}, got {value}" in err and "missing.json" not in err


@pytest.mark.parametrize("command", ["simulate", "analyze", "montecarlo"])
def test_an_unwritable_output_is_an_error_naming_the_path(command, tmp_path, capsys):
    config = _write_config(tmp_path)
    trace = tmp_path / "trace.json"
    assert main(["simulate", "--config", str(config), "--output", str(trace)]) == 0
    capsys.readouterr()
    out = tmp_path / "missing" / "out.json"
    inputs = {
        "simulate": ["--config", str(config)],
        "analyze": ["--trace", str(trace)],
        "montecarlo": ["--config", str(config), "--trials", "50", "--tolerance", "1"],
    }[command]
    assert main([command, *inputs, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: "), captured.err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing-directory", "directory", "empty"])
@pytest.mark.parametrize("command", ["simulate", "analyze", "montecarlo"])
def test_an_unwritable_output_is_refused_before_any_work(command, kind, tmp_path, capsys, monkeypatch):
    from swarmchain import cli

    config = _write_config(tmp_path)
    trace = tmp_path / "trace.json"
    assert main(["simulate", "--config", str(config), "--output", str(trace)]) == 0
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("worked before refusing the output")

    for name in ("run_simulation", "_load_trace", "mc_report_within"):
        monkeypatch.setattr(cli, name, never)
    out = {"missing-directory": tmp_path / "missing" / "out.json", "directory": tmp_path, "empty": ""}[kind]
    inputs = {
        "simulate": ["--config", str(config)],
        "analyze": ["--trace", str(trace)],
        "montecarlo": ["--config", str(config), "--trials", "50", "--tolerance", "1"],
    }[command]
    assert main([command, *inputs, "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("profile", [5, "ab"])
def test_a_non_object_adversary_profile_is_a_config_error(profile, tmp_path, capsys):
    config = _write_config(tmp_path, alpha=0.5, adversaries=[profile])
    out = tmp_path / "trace.json"
    assert main(["simulate", "--config", str(config), "--output", str(out)]) == 2
    assert "config error: field 'adversaries[0]': must be an object" in capsys.readouterr().err
    assert not out.exists()
    good = _write_config(tmp_path, name="good.json")
    assert main(["simulate", "--config", str(good), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["config"]["adversaries"] = [profile]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["analyze", "--trace", str(out)]) == 2
    assert "trace error: config.adversaries[0]: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "montecarlo"])
@pytest.mark.parametrize("where", ["config", "option"])
def test_a_negative_seed_is_refused_naming_the_field(command, where, tmp_path, capsys):
    config = _write_config(tmp_path, seed=-1 if where == "config" else 99)
    out = tmp_path / "out.json"
    seed = ["--seed", "-1"] if where == "option" else []
    assert main([command, "--config", str(config), "--output", str(out), *seed]) == 2
    assert "field 'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_prob_prints_reference_values(capsys):
    assert main(["prob", "--n", "25", "--p", "0.33", "--delta", "3"]) == 0
    text = capsys.readouterr().out
    assert "0.99998" in text
    assert "1.49" in text
    assert "0.035937" in text
    assert main(["prob", "--n", "48", "--p", "0.17", "--delta", "3", "--format", "machine"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert abs(record["report_within"] - 0.99403) <= 1e-5
    assert abs(record["pair_meets_all"] - 0.005) <= 5e-4


def test_prob_prints_exact_value_and_closed_form_bias(capsys):
    assert main(["prob", "--n", "48", "--p", "0.17", "--delta", "3", "--format", "machine"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["report_within_exact"] == pytest.approx(0.985571, abs=1e-6)
    assert record["closed_form_bias"] == pytest.approx(0.008455, abs=1e-6)
    assert record["closed_form_bias"] == record["report_within"] - record["report_within_exact"]
    assert main(["prob", "--n", "48", "--p", "0.17", "--delta", "3"]) == 0
    text = capsys.readouterr().out
    assert "exact value" in text and "0.98557" in text
    assert "+0.008455" in text


def test_prob_single_interval_is_p(capsys):
    assert main(["prob", "--n", "10", "--p", "0.25", "--delta", "1", "--format", "machine"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["report_within"] == pytest.approx(0.25)


def test_prob_rejects_invalid_parameters(capsys):
    assert main(["prob", "--n", "1", "--p", "0.5", "--delta", "3"]) == 2
    capsys.readouterr()


def test_montecarlo_within_tolerance(tmp_path, capsys):
    # the estimate is checked against the exact report probability
    config = _write_config(tmp_path, n=25, p=0.33, delta=3, intervals=3)
    out = tmp_path / "mc.json"
    code = main(
        ["montecarlo", "--config", str(config), "--trials", "4000", "--output", str(out)]
    )
    text = capsys.readouterr().out
    assert code == 0, text
    assert "PASS" in text
    doc = json.loads(out.read_text())
    assert doc["montecarlo"]["pass"] is True
    assert doc["montecarlo"]["trials"] == 4000


def test_montecarlo_n48_passes_against_exact_value(capsys):
    # the paper's closed form is 0.0085 above the exact value here, which
    # exceeds the default tolerance; the check must use the exact value
    assert main(["montecarlo", "--config", str(CONFIGS / "honest_n48.json")]) == 0
    text = capsys.readouterr().out
    assert "vs exact 0.985571" in text
    assert "paper closed form 0.994026 (bias vs exact +0.008455)" in text
    assert "PASS" in text


def test_montecarlo_machine_row_reports_exact_and_bias(tmp_path, capsys):
    config = _write_config(tmp_path, n=48, p=0.17, delta=3, intervals=3)
    assert main(["montecarlo", "--config", str(config), "--trials", "2000", "--format", "machine"]) == 0
    row = json.loads(capsys.readouterr().out.splitlines()[0])
    assert row["exact"] == pytest.approx(0.9855709, abs=1e-7)
    assert row["closed_form"] == pytest.approx(0.99403, abs=1e-5)
    assert row["closed_form_bias"] == pytest.approx(row["closed_form"] - row["exact"])
    assert row["abs_gap"] == pytest.approx(abs(row["point"] - row["exact"]))


def test_montecarlo_single_trial_boundary(tmp_path, capsys):
    config = _write_config(tmp_path, n=6, p=0.5, delta=2, intervals=2)
    code = main(
        [
            "montecarlo", "--config", str(config), "--trials", "1",
            "--tolerance", "1.0", "--format", "machine",
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["trials"] == 1
    assert record["std_error"] == 0.0


def test_montecarlo_impossible_tolerance_fails(tmp_path, capsys):
    config = _write_config(tmp_path, n=10, p=0.3, delta=2, intervals=2)
    code = main(["montecarlo", "--config", str(config), "--trials", "200", "--tolerance", "0"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize(
    "option,value,code",
    [
        ("--runs", "-3", 2),
        ("--runs", "-1", 2),
        ("--runs", "0", 0),
        ("--tolerance", "nan", 2),
        ("--tolerance", "-0.01", 2),
        ("--tolerance", "0.5", 0),
        ("--tolerance", "inf", 0),
        ("--epsilon", "0", 2),
        ("--epsilon", "1", 2),
        ("--epsilon", "7", 2),
        ("--epsilon", "-0.05", 2),
        ("--epsilon", "nan", 2),
        ("--epsilon", "0.5", 0),
    ],
)
def test_montecarlo_refuses_bad_flags(option, value, code, tmp_path, capsys):
    config = _write_config(tmp_path, n=6, p=0.5, delta=2, intervals=2)
    # the last --tolerance wins, so the rows of --runs pass the estimate check
    args = ["montecarlo", "--config", str(config), "--trials", "50", "--tolerance", "1", option, value]
    assert main(args) == code
    captured = capsys.readouterr()
    assert (option in captured.err) == (code == 2), captured.err
    assert ("PASS" in captured.out) == (code == 0), captured.out


def test_montecarlo_framing_suite_reports_zero_framed(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        n=12,
        p=0.5,
        alpha=0.34,
        adversaries=[{"behavior": "refuse_record", "robots": [1, 2, 3, 4]}],
    )
    code = main(
        ["montecarlo", "--config", str(config), "--trials", "2000", "--runs", "25"]
    )
    text = capsys.readouterr().out
    assert code == 0, text
    assert "honest robots framed: 0" in text


def test_rerunning_from_embedded_manifest_reproduces_trace(tmp_path):
    config = _write_config(tmp_path)
    trace = tmp_path / "trace.json"
    main(["simulate", "--config", str(config), "--output", str(trace)])
    doc = json.loads(trace.read_text())
    rebuilt_config = tmp_path / "from_manifest.json"
    rebuilt_config.write_text(json.dumps(doc["manifest"]["config"]))
    rebuilt_trace = tmp_path / "rebuilt.json"
    main(["simulate", "--config", str(rebuilt_config), "--output", str(rebuilt_trace)])
    rebuilt = json.loads(rebuilt_trace.read_text())
    for section in ("config", "graphs", "links", "heads", "exchanges", "credentials"):
        assert rebuilt[section] == doc[section]


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "swarmchain.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "swarmchain" in result.stdout
