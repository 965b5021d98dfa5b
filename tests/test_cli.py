"""CLI behavior: files written, exit codes, and deterministic reruns."""

import dataclasses
import json

import pytest

from ptcsim.cli import build_parser, main
from ptcsim.config import DstConfig


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(["--out", str(out), *argv])
    return code, out


def test_validate_writes_effective_config(tmp_path, capsys):
    code, out = _run(tmp_path, "validate")
    assert code == 0
    obj = json.loads((out / "validate.json").read_text())
    assert obj["schema"] == "ptcsim-config-1"
    assert obj["effective_seed"] == 0
    assert obj["config"]["layout"]["l_h_um"] == 20.0
    assert '"schema"' in capsys.readouterr().out


def test_seed_resolution_through_cli(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 3}')
    _, out = _run(tmp_path, "--config", str(cfg), "validate")
    assert json.loads((out / "validate.json").read_text())["effective_seed"] == 3
    code = main(["--out", str(tmp_path / "o2"), "--config", str(cfg),
                 "--seed", "9", "validate"])
    assert code == 0
    obj = json.loads((tmp_path / "o2" / "validate.json").read_text())
    assert obj["effective_seed"] == 9


def test_report_json_and_csv(tmp_path, capsys):
    code, out = _run(tmp_path, "report")
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["schema"] == "ptcsim-report-1"
    assert "PAP" in capsys.readouterr().out
    code = main(["--out", str(tmp_path / "csv"), "--format", "csv", "report"])
    assert code == 0
    header = (tmp_path / "csv" / "report.csv").read_text().splitlines()[0]
    assert header == "l_s_um,l_g_um,accuracy,p_avg_w,area_mm2,pap_w_mm2"


def test_report_dump_coupling(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"arch": {"k1": 4, "k2": 4}}')
    code, out = _run(tmp_path, "--config", str(cfg), "report",
                     "--dump-coupling")
    assert code == 0
    lines = (out / "coupling.csv").read_text().splitlines()
    assert lines[0] == "victim,aggressor,g_pos,g_neg"
    assert len(lines) == 1 + 16 * 16


def test_sweep_csv(tmp_path, capsys):
    code, out = _run(tmp_path, "--format", "csv", "sweep")
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("layout.l_s_um,")
    assert len(lines) == 6
    assert "minimum PAP" in capsys.readouterr().out


def test_fast_commands_rerun_byte_identical(tmp_path):
    fast = [
        ("validate",),
        ("report",),
        ("sweep",),
        ("progressive",),
        ("simulate",),
        ("nmae", "--trials", "4", "--vectors", "2"),
    ]
    for argv in fast:
        a = tmp_path / argv[0] / "a"
        b = tmp_path / argv[0] / "b"
        assert main(["--out", str(a), "--seed", "0", *argv]) == 0
        assert main(["--out", str(b), "--seed", "0", *argv]) == 0
        files_a = sorted(p.name for p in a.iterdir())
        assert files_a == sorted(p.name for p in b.iterdir()) and files_a
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), \
                f"{argv[0]}/{name} differs between reruns"


def test_train_then_evaluate_roundtrip(tmp_path, capsys):
    code, out = _run(tmp_path, "train", "--dataset", "blobs", "--epochs", "1")
    assert code == 0
    assert (out / "checkpoint.json").exists()
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "epoch,loss,accuracy,density,power_w"
    assert len(metrics) == 2
    assert "trained 1 epochs on 'blobs'" in capsys.readouterr().out

    code = main(["--out", str(tmp_path / "ev"), "evaluate",
                 "--checkpoint", str(out / "checkpoint.json"),
                 "--trials", "1"])
    assert code == 0
    res = json.loads((tmp_path / "ev" / "evaluate.json").read_text())
    assert res["mode"] == "input_gating_lr"
    assert len(res["trial_accuracies"]) == 1
    assert res["noisy_accuracy_std"] is None      # no spread from one trial
    printed = capsys.readouterr().out
    assert "clean accuracy" in printed
    assert "+/-" not in printed


def test_train_records_the_dataset_it_loaded(tmp_path, capsys):
    try:
        import sklearn.datasets  # noqa: F401
        loaded = "digits"
    except ImportError:
        loaded = "blobs"
    code, out = _run(tmp_path, "train", "--epochs", "1")  # default: digits
    assert code == 0
    meta = json.loads((out / "checkpoint.json").read_text())["meta"]
    assert meta["dataset"] == loaded
    captured = capsys.readouterr()
    assert f"trained 1 epochs on '{loaded}'" in captured.out
    if loaded == "digits":
        assert captured.err == ""
    else:
        notes = captured.err.splitlines()
        assert len(notes) == 1
        assert "scikit-learn" in notes[0] and "'blobs'" in notes[0]


def test_bad_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "validate"]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"device": {"nope": 1}}')
    assert main(["--config", str(unknown), "validate"]) == 1
    # The heater width is a layout field only.
    heater = tmp_path / "heater.json"
    heater.write_text('{"device": {"ps_width_um": 7.0}}')
    assert main(["--config", str(heater), "validate"]) == 1
    assert main(["--config", str(tmp_path / "missing.json"), "validate"]) == 1
    err = capsys.readouterr().err
    assert err.count("config error") == 4
    # DST settings: an unknown key, a value the schedule rejects, and
    # train's flag overrides, which obey the same rules as the file.
    dst_seed, alpha0 = tmp_path / "dst_seed.json", tmp_path / "alpha0.json"
    dst_seed.write_text('{"dst": {"seed": 1}}')
    alpha0.write_text('{"dst": {"alpha0": 0}}')
    for argv in (("--config", str(dst_seed), "validate"),
                 ("--config", str(alpha0), "validate"),
                 ("train", "--dataset", "blobs", "--density", "1.5"),
                 ("train", "--dataset", "blobs", "--epochs", "0")):
        code, out = _run(tmp_path, *argv)
        assert code == 1, argv
        assert capsys.readouterr().err.startswith("config error:"), argv
        assert not (out / "checkpoint.json").exists()


def test_every_dst_setting_reaches_training(tmp_path, monkeypatch):
    """No dead settings: each non-default dst value reaches train or its
    schedule."""
    dst = {"density": 0.3, "epochs": 6, "batch_size": 17, "lr": 0.005,
           "alpha0": 0.7, "t_end_frac": 0.5, "pool_margin": 3}
    defaults = DstConfig()
    assert all(getattr(defaults, k) != v for k, v in dst.items())
    assert set(dst) == {f.name for f in dataclasses.fields(DstConfig)}
    seen = {}

    def fake_train(*args, **kwargs):
        seen.update(kwargs)
        raise RuntimeError("stop after capturing the arguments")

    monkeypatch.setattr("ptcsim.cli.train", fake_train)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dst": dst}))
    assert _run(tmp_path, "--config", str(cfg), "train", "--dataset", "blobs")[0] == 2
    schedule = seen["schedule"]
    assert (seen["s"], seen["epochs"], seen["batch_size"], seen["lr"]) == (
        0.3, 6, 17, 0.005)
    assert (schedule.alpha0, schedule.t_end, schedule.delta_m) == (0.7, 3, 3)


def test_runtime_failures_exit_two(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "evaluate",
                 "--checkpoint", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (("--trials", "1"), "--trials"),
    (("--trials", "0"), "--trials"),
    (("--vectors", "0"), "--vectors"),
])
def test_nmae_rejects_unusable_counts(tmp_path, capsys, argv, flag):
    code, out = _run(tmp_path, "nmae", *argv)
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not (out / "nmae.json").exists()


@pytest.mark.parametrize("vectors", ["0", "-2"])
def test_simulate_rejects_fewer_than_one_vector(tmp_path, capsys, vectors):
    code, out = _run(tmp_path, "simulate", "--vectors", vectors)
    assert code == 2
    assert "--vectors" in capsys.readouterr().err
    assert not (out / "simulate.json").exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", threads, "--out", str(tmp_path), "sweep"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "sweep.json").exists()


def test_nmae_output_does_not_depend_on_threads(tmp_path):
    outs = []
    for threads in ("1", "2"):
        code, out = _run(tmp_path / threads, "--threads", threads, "nmae",
                         "--trials", "5", "--vectors", "2")
        assert code == 0
        outs.append((out / "nmae.json").read_bytes())
    assert outs[0] == outs[1]


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--format", "xml", "report"])
    assert exc.value.code == 2


def test_parser_lists_all_commands():
    text = build_parser().format_help()
    for name in ("validate", "report", "sweep", "progressive", "nmae",
                 "simulate", "train", "evaluate"):
        assert name in text
