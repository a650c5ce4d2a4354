import json

import pytest

from guessbound import cli


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--out", str(out)])
    return code, out


# small flags for every scenario
FAST = {
    "compex": ["--samples", "20"],
    "classical-lower-bound": ["--n", "3"],
    "bound-sweep": ["--samples", "4"],
    "hashing-lemma": ["--samples", "20"],
    "pa": ["--samples", "3"],
    "helstrom-demo": ["--samples", "100"],
    "appendix-verify": [],
}


def test_every_scenario_reports_satisfied(tmp_path):
    for scenario, extra in FAST.items():
        code, out = run_cli(tmp_path, scenario, "--no-timestamp", *extra)
        report = json.loads(out.read_text())
        assert code == 0, scenario
        assert report["schema"] == 1
        assert report["scenario"] == scenario
        assert report["seed"] == 1
        assert report["all_satisfied"] is True
        assert "generated_at" not in report


def test_reruns_are_byte_identical(tmp_path):
    for scenario, extra in FAST.items():
        args = [scenario, "--seed", "99", "--no-timestamp", *extra]
        _, first = run_cli(tmp_path, *args)
        blob1 = first.read_bytes()
        _, second = run_cli(tmp_path, *args)
        assert blob1 == second.read_bytes(), scenario

    csv_args = ["bound-sweep", "--samples", "3", "--format", "csv", "--no-timestamp"]
    _, first = run_cli(tmp_path, *csv_args)
    blob1 = first.read_bytes()
    assert blob1.startswith(b"scenario,label,n,s,k,dim,family,exact,bound,")
    _, second = run_cli(tmp_path, *csv_args)
    assert blob1 == second.read_bytes()


def test_seed_changes_sampled_rows(tmp_path):
    _, a = run_cli(tmp_path, "bound-sweep", "--samples", "3", "--seed", "1", "--no-timestamp")
    blob_a = a.read_bytes()
    _, b = run_cli(tmp_path, "bound-sweep", "--samples", "3", "--seed", "2", "--no-timestamp")
    assert blob_a != b.read_bytes()


def test_timestamp_present_by_default(tmp_path):
    _, out = run_cli(tmp_path, "appendix-verify")
    assert "generated_at" in json.loads(out.read_text())


def test_run_alias_matches_subcommand(tmp_path):
    _, direct = run_cli(tmp_path, "compex", "--samples", "5", "--no-timestamp")
    blob = direct.read_bytes()
    _, alias = run_cli(
        tmp_path, "run", "--scenario", "compex", "--samples", "5", "--no-timestamp"
    )
    assert blob == alias.read_bytes()


def test_config_file_precedence(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samples": 2, "seed": 7}))
    _, out = run_cli(tmp_path, "pa", "--config", str(config), "--no-timestamp")
    report = json.loads(out.read_text())
    assert report["seed"] == 7
    assert len(report["rows"]) == 3  # 2 encodings + classical comparison row

    # explicit flags beat the config file
    _, out = run_cli(
        tmp_path, "pa", "--config", str(config), "--samples", "1", "--no-timestamp"
    )
    assert len(json.loads(out.read_text())["rows"]) == 2


def test_pa_rows_include_serialized_encodings(tmp_path):
    _, out = run_cli(tmp_path, "pa", "--samples", "1", "--no-timestamp")
    report = json.loads(out.read_text())
    encoding = report["rows"][0]["encoding"]
    assert encoding["dim"] == 2
    assert len(encoding["states"]) == 16
    assert len(encoding["states"][0][0][0]) == 2  # [re, im] pairs


def test_unknown_scenario_exits_2(capsys):
    assert_rejected(capsys, ["no-such-scenario"])
    assert_rejected(capsys, [])


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["pa", "--help"])
    assert excinfo.value.code == 0
    assert "--samples" in capsys.readouterr().out


def test_invalid_configuration_exits_2(tmp_path, capsys):
    # argparse usage errors take the one-line path of configuration errors
    out = ["--out", str(tmp_path / "r.json")]
    assert_rejected(capsys, ["pa", "--exact", *out])
    assert_rejected(capsys, ["compex", "--exact", *out])
    assert_rejected(capsys, ["compex", "--bogus", *out])
    assert_rejected(capsys, ["pa", "--n", "x", *out])
    assert_rejected(capsys, ["pa", *config_file(tmp_path, {"exact": True})])
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.out").exists()


def test_enumeration_cap_exits_3(tmp_path, capsys):
    code = cli.main(
        ["pa", "--n", "5", "--family", "uniform-all", "--samples", "1",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 3
    assert "enumeration cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, kind",
    [
        ("pa --n 40", "affine-gf2"),
        ("pa --n 20", "affine-gf2"),
        ("pa --n 20 --family uniform-all", "uniform-all"),
        ("pa --n 40 --family uniform-all", "uniform-all"),
        ("bound-sweep --n 40 --family affine-gf2", "affine-gf2"),
        ("bound-sweep --n 40 --family uniform-all", "uniform-all"),
        ("bound-sweep --n 40", "uniform-balanced"),
        ("bound-sweep --n 40 --family inner-product", "inner-product"),
    ],
)
def test_cap_is_checked_before_any_state_is_built(tmp_path, capsys, monkeypatch, argv, kind):
    def no_states(*args, **kwargs):
        raise AssertionError("random_state_family called past the enumeration cap")

    monkeypatch.setattr(cli, "random_state_family", no_states)
    assert cli.main([*argv.split(), "--out", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err == (
        f"enumeration cap exceeded: {kind} family has more than 65536 members, "
        "the exact-enumeration cap\n"
    )


def test_unsatisfied_report_exits_1(tmp_path, monkeypatch):
    monkeypatch.setitem(
        cli.RUNNERS, "compex", lambda config: [{"label": "forced", "satisfied": False}]
    )
    code, out = run_cli(tmp_path, "compex", "--no-timestamp")
    assert code == 1
    assert json.loads(out.read_text())["all_satisfied"] is False


def test_stdout_output(capsys):
    code = cli.main(["appendix-verify", "--no-timestamp", "--out", "-"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["scenario"] == "appendix-verify"


def assert_rejected(capsys, argv):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ") and err.count("\n") == 1, err


def config_file(tmp_path, contents):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(contents))
    return ["--config", str(path), "--out", str(tmp_path / "r.out")]


def test_config_format_must_be_json_or_csv(tmp_path, capsys):
    assert_rejected(capsys, ["appendix-verify", *config_file(tmp_path, {"format": "xml"})])
    assert not (tmp_path / "r.out").exists()  # no report written in any format


@pytest.mark.parametrize("contents", [{"n": "4"}, {"samples": True}, {"seed": 1.0}])
def test_config_integers_reject_strings_bools_and_floats(tmp_path, capsys, contents):
    assert_rejected(capsys, ["pa", *config_file(tmp_path, contents)])


def test_config_unknown_key_exits_2(tmp_path, capsys):
    assert_rejected(capsys, ["compex", *config_file(tmp_path, {"sampels": 3})])


def test_negative_samples_exit_2(tmp_path, capsys):
    assert_rejected(capsys, ["compex", "--samples", "-5", "--out", str(tmp_path / "r.json")])
    assert_rejected(capsys, ["compex", *config_file(tmp_path, {"samples": -5})])


def test_seed_outside_64_bits_exits_2(tmp_path, capsys):
    out = ["--out", str(tmp_path / "r.json")]
    assert_rejected(capsys, ["compex", "--seed", "-1", *out])
    assert_rejected(capsys, ["compex", "--seed", str(2**64), *out])
    assert_rejected(capsys, ["compex", *config_file(tmp_path, {"seed": 2**64})])
    assert cli.main(["compex", "--samples", "1", "--seed", str(2**64 - 1), *out]) == 0


def test_scenario_keys_a_scenario_does_not_read_exit_2(tmp_path, capsys):
    out = ["--out", str(tmp_path / "r.json")]
    assert_rejected(capsys, ["compex", "--family", "bogus", "--n", "9", "--samples", "2", *out])
    assert_rejected(capsys, ["appendix-verify", "--samples", "3", *out])
    assert_rejected(capsys, ["helstrom-demo", *config_file(tmp_path, {"n": 3})])
    assert_rejected(capsys, ["pa", *config_file(tmp_path, {"dim": 2})])
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.out").exists()
    # hashing-lemma reads an optional n that has no default
    assert cli.main(["hashing-lemma", "--n", "4", "--samples", "2", *out]) == 0


def test_classical_lower_bound_needs_two_bits(tmp_path, capsys):
    # n = 1 leaves no storage size 1 <= s < n, so nothing would be checked
    out = tmp_path / "r.json"
    assert_rejected(capsys, ["classical-lower-bound", "--n", "1", "--out", str(out)])
    assert not out.exists()
    assert cli.main(["classical-lower-bound", "--n", "2", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["rows"]) == 1
