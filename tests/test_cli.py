import json

import pytest

import xorcast as xc
from xorcast.cli import main


@pytest.fixture()
def model_path(tmp_path, ref_model):
    path = tmp_path / "model.json"
    xc.save_model(ref_model, path)
    return str(path)


@pytest.fixture()
def lossless_path(tmp_path):
    path = tmp_path / "perfect.json"
    xc.save_model(xc.ChannelModel([[1.0]], [[1.0, 0.0, 0.0, 0.0]]), path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_region_sweep_csv(capsys, model_path):
    code, out, _ = run(capsys, ["region", "--model", model_path, "--L", "1",
                                "--sweep", "9"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,R1,R2,status"
    assert len(lines) >= 3
    r1s = [float(l.split(",")[1]) for l in lines[1:]]
    assert r1s == sorted(r1s)
    assert all(l.endswith("Optimal") for l in lines[1:])


def test_region_single_lambda(capsys, model_path, tmp_path):
    wit_path = tmp_path / "wit.json"
    code, out, _ = run(capsys, ["region", "--model", model_path, "--L", "1",
                                "--lambda", "0.5", "--witness-out", str(wit_path)])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    lam, r1, r2, status = lines[1].split(",")
    assert lam == "0.5" and status == "Optimal"
    assert abs(float(r1) - 0.36792503941820875) < 1e-9
    wit = json.loads(wit_path.read_text())
    assert wit["lambda"] == 0.5
    assert len(wit["x"]) == 4 and len(wit["y"]) == 4


def test_region_sandwich(capsys, tmp_path, memoryless_model):
    path = tmp_path / "memless.json"
    xc.save_model(memoryless_model, path)
    code, out, _ = run(capsys, ["region", "--model", str(path), "--L", "1",
                                "--lambda", "0.5", "--sandwich"])
    assert code == 0
    lines = out.strip().splitlines()
    kinds = [l.split(",")[3] for l in lines[1:]]
    assert kinds == ["inner", "nominal", "outer"]
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert max(vals) - min(vals) < 1e-9  # forgetting is immediate here


def test_simulate_maxweight_summary(capsys, model_path, tmp_path):
    out_path = tmp_path / "summary.json"
    code, out, _ = run(capsys, ["simulate", "--model", model_path,
                                "--scheduler", "maxweight", "--rates", "0.2,0.2",
                                "--slots", "2000", "--seed", "7",
                                "--out", str(out_path)])
    assert code == 0 and out == ""
    summary = json.loads(out_path.read_text())
    assert summary["scheduler"] == "maxweight"
    assert summary["slots"] == 2000
    assert summary["verdict"] is None  # too short for a verdict
    assert sum(summary["action_counts"].values()) == 2000


def test_simulate_probabilistic_from_lambda(capsys, model_path):
    code, out, _ = run(capsys, ["simulate", "--model", model_path,
                                "--scheduler", "probabilistic", "--rates", "0.3,0.3",
                                "--slots", "2000", "--seed", "1",
                                "--lambda", "0.5", "--L", "1"])
    assert code == 0
    summary = json.loads(out)
    assert summary["delivered"][0] > 0 and summary["delivered"][1] > 0


def test_simulate_needs_dist_or_lambda(capsys, model_path):
    code, _, err = run(capsys, ["simulate", "--model", model_path,
                                "--scheduler", "probabilistic",
                                "--rates", "0.3,0.3", "--slots", "100"])
    assert code == 2
    assert "--dist or both --lambda and --L" in err


def test_simulate_trace_then_verify(capsys, model_path, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    csv_path = tmp_path / "slots.csv"
    code, _, _ = run(capsys, ["simulate", "--model", model_path,
                              "--scheduler", "probabilistic", "--rates", "0.3,0.3",
                              "--slots", "2000", "--seed", "2",
                              "--lambda", "0.5", "--L", "1",
                              "--trace", str(trace_path), "--csv", str(csv_path)])
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "slot,action,z1,z2,totalQ,delivered1,delivered2"

    code, out, _ = run(capsys, ["verify", "--trace", str(trace_path)])
    assert code == 0
    assert json.loads(out)["ok"] is True

    # append a delivery nobody could decode; exit code flips to 1
    with open(trace_path, "a", encoding="utf-8") as f:
        f.write(json.dumps({"slot": 99999, "action": 1, "combo": [424242],
                            "received_rx1": False, "received_rx2": False,
                            "delivered": [[1, 424242]]}) + "\n")
    code, out, _ = run(capsys, ["verify", "--trace", str(trace_path)])
    assert code == 1
    summary = json.loads(out)
    assert summary["ok"] is False
    assert summary["failures"][0]["packet"] == 424242


def test_forgetting_csv(capsys, model_path):
    code, out, _ = run(capsys, ["forgetting", "--model", model_path, "--L", "3",
                                "--horizon", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,tv,bound,method"
    assert len(lines) == 4
    tvs = [float(l.split(",")[1]) for l in lines[1:]]
    assert tvs == sorted(tvs, reverse=True)
    assert all(l.split(",")[3] == "exhaustive" for l in lines[1:])


def test_forgetting_rejects_bad_counts(capsys, model_path):
    base = ["forgetting", "--model", model_path]
    for samples in ("0", "-3"):
        code, out, err = run(capsys, base + ["--L", "2", "--horizon", "12",
                                             "--samples", samples])
        assert code == 2 and out == "" and "error:" in err
    for cmd in (base, ["dump-window-table", "--model", model_path]):
        code, out, err = run(capsys, cmd + ["--L", "0"])
        assert code == 2 and out == ""
        assert "window length must be at least 1" in err


def test_canonicalize_roundtrip(capsys, model_path, tmp_path, ref_model):
    t = xc.window_table(ref_model, 1)
    wit = xc.solve_region(t, 1.0, 1.0)
    dist_path = tmp_path / "dist.json"
    xc.save_dist(xc.xy_to_actions(wit), dist_path)
    code, out, _ = run(capsys, ["canonicalize", "--model", model_path,
                                "--dist", str(dist_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "I"
    assert abs(payload["theta"] - 0.8607652964762408) < 1e-9
    assert set(payload["cuts_after"]) == {"a", "b", "c", "d"}
    back = xc.dist_from_dict({"L": payload["L"], "actions": payload["actions"]})
    assert back.L == 1


def test_dump_window_table(capsys, model_path):
    code, out, _ = run(capsys, ["dump-window-table", "--model", model_path,
                                "--L", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "window,prob,eps1,eps2,eps12,eps_n12,eps1_n2"
    assert len(lines) == 1 + 16


def test_config_file_with_flag_override(capsys, model_path, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model_path, "L": 1}))
    code, out, _ = run(capsys, ["dump-window-table", "--config", str(cfg)])
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 4
    # explicit flag beats the config value
    code, out, _ = run(capsys, ["dump-window-table", "--config", str(cfg),
                                "--L", "2"])
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 16


def test_exit_codes(capsys, tmp_path, model_path):
    code, _, err = run(capsys, ["region", "--model", str(tmp_path / "nope.json"),
                                "--L", "1"])
    assert code == 2 and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, ["region", "--model", str(bad), "--L", "1"])
    assert code == 3

    bad_dist = tmp_path / "dist.json"
    bad_dist.write_text('{"L": 1}')
    code, _, err = run(capsys, ["canonicalize", "--model", model_path,
                                "--dist", str(bad_dist)])
    assert code == 3

    code, _, err = run(capsys, ["region", "--L", "1"])
    assert code == 2 and "--model" in err

    bad_cfg = tmp_path / "cfg.json"
    bad_cfg.write_text("[1, 2]")
    code, _, err = run(capsys, ["region", "--config", str(bad_cfg), "--L", "1"])
    assert code == 2 and "config" in err


def test_bad_numbers_exit_2(capsys, tmp_path, model_path):
    base = ["simulate", "--model", model_path, "--scheduler", "maxweight"]
    for extra, option in ((["--rates", "0.3,abc", "--slots", "100"], "--rates"),
                          (["--rates", "0.3,0.3", "--slots", "ten"], "--slots"),
                          (["--rates", "0.3,0.3", "--slots", "100", "--seed", "1.5"],
                           "--seed")):
        code, out, err = run(capsys, base + extra)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and option in err, err
    # config values go through the same parser
    cfg = tmp_path / "cfg.json"
    for bad, option in (({"L": "two"}, "--L"), ({"L": True}, "--L"),
                        ({"L": 1, "lambda": "nan"}, "--lambda")):
        cfg.write_text(json.dumps(bad))
        code, _, err = run(capsys, ["region", "--model", model_path, "--config", str(cfg)])
        assert code == 2 and option in err, err


def test_simulate_deterministic_output(capsys, model_path):
    argv = ["simulate", "--model", model_path, "--scheduler", "maxweight",
            "--rates", "0.25,0.2", "--slots", "3000", "--seed", "13"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "xorcast" in capsys.readouterr().out


def test_region_witness_out_matches_rows(capsys, tmp_path, model_path):
    # a sweep has no single witness: the flag is refused before any output
    wit_path = tmp_path / "w.json"
    code, out, err = run(capsys, ["region", "--model", model_path, "--L", "2",
                                  "--sweep", "5", "--witness-out", str(wit_path)])
    assert code == 2 and out == "" and "--witness-out" in err
    assert not wit_path.exists()
    # with --lambda the witness is the solve behind the CSV row
    code, out, _ = run(capsys, ["region", "--model", model_path, "--L", "2",
                                "--lambda", "0.3", "--witness-out", str(wit_path)])
    assert code == 0
    lam, r1, r2, _ = out.strip().splitlines()[1].split(",")
    wit = json.loads(wit_path.read_text())
    assert wit["lambda"] == 0.3
    assert (f"{wit['R1']:.12g}", f"{wit['R2']:.12g}") == (r1, r2)
    # with --sandwich it is the nominal point
    code, out, _ = run(capsys, ["region", "--model", model_path, "--L", "2",
                                "--lambda", "0.3", "--sandwich",
                                "--witness-out", str(wit_path)])
    assert code == 0
    nominal = [l.split(",") for l in out.strip().splitlines()[1:] if l.endswith("nominal")]
    assert json.loads(wit_path.read_text()) == wit
    assert (nominal[0][1], nominal[0][2]) == (r1, r2)
