import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import xorcast as xc
from xorcast.cli import main

BENCH_MODEL = Path(__file__).resolve().parents[1] / "bench" / "ref_model.json"


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
    assert [l.split(",")[3] for l in lines[1:]] == ["inner", "outer"]
    # one state: the refined contexts are the windows, so the rows agree
    assert lines[1].split(",")[:3] == lines[2].split(",")[:3]


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
    # 4^(horizon - 1) histories outgrow the exhaustive sum at horizon 10
    code, out, _ = run(capsys, ["forgetting", "--model", model_path, "--L", "2",
                                "--horizon", "10", "--samples", "32", "--seed", "3"])
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["1", "2"]
    assert all(r[3] == "empirical" and 0.0 <= float(r[1]) <= 2.0 for r in rows)


def test_forgetting_rejects_bad_counts(capsys, model_path):
    base = ["forgetting", "--model", model_path]
    for samples in ("0", "-3"):
        code, out, err = run(capsys, base + ["--L", "2", "--horizon", "12",
                                             "--samples", samples])
        assert code == 2 and out == "" and "error:" in err
    for cmd in (base, ["dump-window-table", "--model", model_path]):
        code, out, err = run(capsys, cmd + ["--L", "0"])
        assert code == 2 and out == ""
        assert "L: expected a positive integer" in err


def test_forgetting_sample_cap_exits_2(capsys, model_path, monkeypatch):
    # 256 default histories of 10**8 slots: refused before a double is drawn
    def no_draw(*args):
        raise AssertionError("drew a path past the cap")
    monkeypatch.setattr(xc.filtering, "_draw_codes", no_draw)
    code, out, err = run(capsys, ["forgetting", "--model", model_path, "--L", "1",
                                  "--horizon", "100000000"])
    assert code == 2 and out == "" and "exceed the cap" in err


def test_negative_seed_exits_2(capsys, model_path):
    # a negative seed would replay its positive twin
    for cmd in (["simulate", "--model", model_path, "--scheduler", "maxweight",
                 "--rates", "0.2,0.2", "--slots", "100", "--seed", "-3"],
                ["forgetting", "--model", model_path, "--L", "2", "--horizon", "10",
                 "--samples", "8", "--seed", "-4"]):
        code, out, err = run(capsys, cmd)
        assert code == 2 and out == ""
        assert "seed -" in err and "negative" in err, err


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
    # the output reads back: its report keys are the ones a distribution
    # file may carry, and only those
    assert set(payload) == {"L", "actions"} | xc.region._REPORT_KEYS
    canon = tmp_path / "canon.json"
    canon.write_text(out)
    code, again, _ = run(capsys, ["canonicalize", "--model", model_path, "--dist", str(canon)])
    assert code == 0 and json.loads(again)["actions"] == payload["actions"]
    code, out, _ = run(capsys, ["simulate", "--model", model_path,
                                "--scheduler", "probabilistic", "--rates", "0.2,0.2",
                                "--slots", "1000", "--seed", "1", "--dist", str(canon)])
    assert code == 0 and sum(json.loads(out)["action_counts"].values()) == 1000
    canon.write_text(json.dumps(dict(payload, note="x")))
    code, _, err = run(capsys, ["canonicalize", "--model", model_path, "--dist", str(canon)])
    assert code == 3 and "unknown key 'note'" in err


def test_canonicalize_golden(capsys, model_path, tmp_path):
    # sha256 of the whole file written for a fixed L=2 distribution
    rng = random.Random(5)
    rows = [[rng.random() for _ in range(5)] for _ in range(16)]
    dist_path = tmp_path / "dist.json"
    xc.save_dist(xc.ActionDistribution(2, [[v / sum(r) for v in r] for r in rows]), dist_path)
    code, out, _ = run(capsys, ["canonicalize", "--model", model_path,
                                "--dist", str(dist_path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "83485a43cabf8e4782b0a68fc13c1840fed25e7f604eb1948d1c2f18002ca553")


def test_forgetting_sampled_golden(capsys):
    # sha256 of the CSV of a sampled run: a reordered draw changes its TVs
    code, out, _ = run(capsys, ["forgetting", "--model", str(BENCH_MODEL), "--L", "3",
                                "--horizon", "12", "--seed", "5", "--samples", "64"])
    assert code == 0 and out.count("empirical") == 3
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "11850624557eec68a934ced220a3c24ddfb77ff49745a7976e9cba312066bf5d")


def test_forgetting_exhaustive_golden(capsys):
    # sha256 of the CSV of an exhaustive run over all 4**8 histories
    code, out, _ = run(capsys, ["forgetting", "--model", str(BENCH_MODEL), "--L", "4",
                                "--horizon", "9"])
    assert code == 0 and out.count("exhaustive") == 4
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a5574a5f06b3e9a525200cf9eec7346ebd53b151285ee4c00b3db7a4c7fed064")


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_forgetting_exhaustive_golden_in_blocks(capsys, monkeypatch, chunk):
    # the same digest when every level of the tables is stepped a few
    # parents at a time
    monkeypatch.setattr(xc.filtering, "_CHUNK", chunk)
    test_forgetting_exhaustive_golden(capsys)


def test_forgetting_work_is_shared_across_L(capsys, monkeypatch):
    # every L of a run reads one full table, or one draw of histories
    built, drawn = [], []
    table, draw = xc.filtering.window_table, xc.filtering._draw_codes
    monkeypatch.setattr(xc.filtering, "window_table",
                        lambda model, L: built.append(L) or table(model, L))
    monkeypatch.setattr(xc.filtering, "_draw_codes",
                        lambda *args: drawn.append(args[1:]) or draw(*args))
    base = ["forgetting", "--model", str(BENCH_MODEL), "--L", "4"]
    code, _, _ = run(capsys, base + ["--horizon", "9"])
    assert code == 0 and sorted(built) == [1, 2, 3, 4, 8]
    code, _, _ = run(capsys, base + ["--horizon", "12", "--samples", "64"])
    assert code == 0 and drawn == [(11, 0, 64)]


def test_dump_window_table(capsys, model_path):
    code, out, _ = run(capsys, ["dump-window-table", "--model", model_path,
                                "--L", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "window,prob,eps1,eps2,eps12,eps_n12,eps1_n2"
    assert len(lines) == 1 + 16


def test_region_sandwich_from_config(capsys, tmp_path, model_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model_path, "L": 1, "lambda": 0.5,
                               "sandwich": True}))
    code, out, _ = run(capsys, ["region", "--config", str(cfg)])
    assert code == 0
    kinds = [l.split(",")[3] for l in out.strip().splitlines()[1:]]
    assert kinds == ["inner", "outer"]
    # a string is not a switch: "false" must not turn the sandwich on
    cfg.write_text(json.dumps({"model": model_path, "L": 1, "lambda": 0.5,
                               "sandwich": "false"}))
    code, out, err = run(capsys, ["region", "--config", str(cfg)])
    assert code == 2 and out == "" and "--sandwich expects true or false" in err
    code, out, err = run(capsys, ["region", "--model", model_path, "--L", "1", "--sandwich"])
    assert code == 2 and out == "" and "--sandwich needs --lambda" in err


def test_numerical_failure_prints_diagnostics(capsys, model_path, monkeypatch):
    monkeypatch.setattr(xc.region, "solve", lambda lp: xc.LpSolution("Infeasible", None, None))
    code, out, err = run(capsys, ["simulate", "--model", model_path,
                                  "--scheduler", "probabilistic", "--rates", "0.3,0.3",
                                  "--slots", "100", "--lambda", "0.5", "--L", "2"])
    assert code == 1 and out == ""
    assert err == "error: robust witness solve failed (status=Infeasible)\n"


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

    one_label = tmp_path / "labels.json"
    one_label.write_text(json.dumps(dict(xc.model_to_dict(xc.load_model(model_path)),
                                         labels=["calm"])))
    code, _, err = run(capsys, ["region", "--model", str(one_label), "--L", "1"])
    assert code == 3 and "labels: expected a list of 2 strings" in err

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
    bad_cfg.write_text('{"L": 1,\n "model": }')
    code, out, err = run(capsys, ["region", "--config", str(bad_cfg)])
    assert code == 2 and out == "" and err.startswith("error: config: line 2")


def test_window_cap_exits_2(capsys, model_path):
    # a window length above the cap is a configuration problem, not a
    # numerical failure
    for cmd in ("dump-window-table", "region"):
        code, out, err = run(capsys, [cmd, "--model", model_path, "--L", "11"])
        assert code == 2 and out == ""
        assert "cap of 10" in err and err.count("\n") == 1, err


def test_sandwich_window_length_below_1_exits_2(capsys):
    for L in ("-1", "-2", "0"):
        code, out, err = run(capsys, ["region", "--model", str(BENCH_MODEL), "--L", L,
                                      "--lambda", "0.5", "--sandwich"])
        assert code == 2 and out == ""
        assert "L: expected a positive integer" in err and err.count("\n") == 1, err


def test_sandwich_window_length_above_cap_exits_2(capsys):
    # refused before 4**L is formed, which takes seconds at L = 10**8
    for L in ("11", "10000000"):
        code, out, err = run(capsys, ["region", "--model", str(BENCH_MODEL), "--L", L,
                                      "--lambda", "0.5", "--sandwich"])
        assert code == 2 and out == ""
        assert "cap of 10" in err and err.count("\n") == 1, err


def test_simulate_verdict_from_10_4_slots(capsys, model_path, tmp_path):
    # the summary holds a verdict from the shortest run stability_verdict classifies
    out_path = tmp_path / "summary.json"
    for slots, kind in ((9_999, type(None)), (10_000, str)):
        code, out, _ = run(capsys, ["simulate", "--model", model_path,
                                    "--scheduler", "maxweight", "--rates", "0.2,0.2",
                                    "--slots", str(slots), "--out", str(out_path)])
        assert code == 0 and out == ""
        assert type(json.loads(out_path.read_text())["verdict"]) is kind, slots


def test_bad_numbers_exit_2(capsys, tmp_path, model_path):
    base = ["simulate", "--model", model_path, "--scheduler", "maxweight"]
    for extra, option in ((["--rates", "0.3,abc", "--slots", "100"], "--rates"),
                          (["--rates", "0.3", "--slots", "100"], "--rates"),
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


def test_path_options_from_config_must_be_strings(capsys, tmp_path, model_path):
    # a number would open a file descriptor and a list would escape as a
    # TypeError; every path option is checked before any file is opened
    cfg = tmp_path / "cfg.json"
    sim = ["simulate", "--model", model_path, "--scheduler", "maxweight",
           "--rates", "0.1,0.1", "--slots", "10"]
    cases = (
        (["region", "--L", "1"], {"model": 0}, "--model"),
        (["region", "--L", "1"], {"model": ["x"]}, "--model"),
        (["dump-window-table", "--model", model_path, "--L", "1"], {"out": True}, "--out"),
        (["canonicalize", "--model", model_path], {"dist": 5}, "--dist"),
        (["verify"], {"trace": 1.5}, "--trace"),
        (sim, {"csv": ["x"]}, "--csv"),
        (["region", "--model", model_path, "--L", "1", "--lambda", "0.5"],
         {"witness_out": {"path": "w.json"}}, "--witness-out"),
    )
    for argv, bad, option in cases:
        cfg.write_text(json.dumps(bad))
        code, out, err = run(capsys, argv + ["--config", str(cfg)])
        assert code == 2 and out == "", (bad, err)
        assert err.count("\n") == 1 and option in err, err


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
    # the module entry point runs the same parser
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xc.__file__)))
    proc = subprocess.run([sys.executable, "-m", "xorcast", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"xorcast {xc.__version__}"


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
    # with --sandwich it is the inner point
    code, out, _ = run(capsys, ["region", "--model", model_path, "--L", "2",
                                "--lambda", "0.3", "--sandwich",
                                "--witness-out", str(wit_path)])
    assert code == 0
    inner = [l.split(",") for l in out.strip().splitlines()[1:] if l.endswith("inner")]
    assert json.loads(wit_path.read_text()) == wit
    assert (inner[0][1], inner[0][2]) == (r1, r2)


SIM_ARGS = ["simulate", "--scheduler", "maxweight", "--rates", "0.2,0.2",
            "--slots", "500", "--seed", "3"]


def test_simulate_csv_to_stdout_needs_out_file(capsys, model_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = SIM_ARGS + ["--model", model_path, "--csv", "-"]
    summary = tmp_path / "summary.json"
    # the summary would follow the CSV on stdout: refused before any output
    for extra in ([], ["--out", "-"], ["--trace", "-", "--out", str(summary)]):
        code, out, err = run(capsys, base + extra)
        assert code == 2 and out == "" and "stdout" in err, extra
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
    code, out, _ = run(capsys, base + ["--out", str(summary)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "slot,action,z1,z2,totalQ,delivered1,delivered2"
    assert len(lines) == 1 + 500
    assert json.loads(summary.read_text())["slots"] == 500


def test_simulate_trace_to_stdout_needs_out_file(capsys, model_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = SIM_ARGS + ["--model", model_path]
    for extra in (["--trace", "-"], ["--trace", "-", "--out", "-"]):
        code, out, err = run(capsys, base + extra)
        assert code == 2 and out == "" and "stdout" in err, extra
    assert not (tmp_path / "-").exists()   # once written as a file of that name
    summary = tmp_path / "summary.json"
    code, out, _ = run(capsys, base + ["--trace", "-", "--out", str(summary)])
    assert code == 0
    trace_path = tmp_path / "trace.jsonl"
    assert run(capsys, base + ["--trace", str(trace_path), "--out", str(summary)])[0] == 0
    assert out == trace_path.read_text() and out
    assert not (tmp_path / "-").exists()


def test_files_that_are_not_utf8_exit_with_their_code(capsys, tmp_path, model_path):
    # UTF-16 text starts with the bytes ff fe, which UTF-8 never does
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    for argv, want, what in (
            (["dump-window-table", "--model", str(bad), "--L", "1"], 3, "error: not UTF-8"),
            (["canonicalize", "--model", model_path, "--dist", str(bad)], 3, "error: not UTF-8"),
            (["verify", "--trace", str(bad)], 3, "error: line 1: not UTF-8"),
            (["region", "--config", str(bad)], 2, "error: config: not UTF-8")):
        code, out, err = run(capsys, argv)
        assert code == want and out == "", argv
        assert err.startswith(what) and err.count("\n") == 1, err


def test_deeply_nested_trace_line_exits_3(capsys, tmp_path):
    # the decoder gives up on deep nesting with RecursionError, not a
    # JSONDecodeError; it is a malformed line all the same
    deep = tmp_path / "deep.jsonl"
    deep.write_text('{"slot": 0, "action": 1, "combo": [1], "received_rx1": true, '
                    '"received_rx2": false, "delivered": []}\n' + "[" * 100_000 + "\n")
    code, out, err = run(capsys, ["verify", "--trace", str(deep)])
    assert code == 3 and out == ""
    assert err == "error: line 2: JSON value nested too deeply\n"
    with pytest.raises(xc.TraceFormatError) as e:
        xc.load_trace(deep)
    assert e.value.line == 2


def test_deeply_nested_json_files_exit_with_their_code(capsys, tmp_path, model_path):
    # models, distributions and --config share one JSON reader
    deep = tmp_path / "deep.json"
    deep.write_text('{"states": ' + "[" * 100_000)
    for argv, want, what in (
            (["region", "--model", str(deep), "--L", "1"], 3, "error: JSON value nested"),
            (["canonicalize", "--model", model_path, "--dist", str(deep)], 3,
             "error: JSON value nested"),
            (["region", "--config", str(deep)], 2, "error: config: JSON value nested")):
        code, out, err = run(capsys, argv)
        assert code == want and out == "", argv
        assert err.startswith(what) and err.count("\n") == 1, err


def test_non_finite_and_huge_numbers_exit_3(capsys, tmp_path, model_path):
    # nan compares false with everything, so a range check must be written
    # to fail on it; an integer too large for a float is out of range
    model = xc.model_to_dict(xc.load_model(model_path))
    model["transition"][0][0] = "@"
    dist = {"L": 1, "actions": [["@", 0, 0, 0, 0]] + [[1, 0, 0, 0, 0]] * 3}
    bad_model, bad_dist = tmp_path / "bad_model.json", tmp_path / "bad_dist.json"
    for literal in ("NaN", "Infinity", "-Infinity", "1" + "0" * 399):
        bad_model.write_text(json.dumps(model).replace('"@"', literal))
        bad_dist.write_text(json.dumps(dist).replace('"@"', literal))
        for argv, field in (
                (["region", "--model", str(bad_model), "--L", "1", "--lambda", "0.5"],
                 "transition"),
                (["canonicalize", "--model", model_path, "--dist", str(bad_dist)], "actions")):
            code, out, err = run(capsys, argv)
            assert code == 3 and out == "", (literal, argv)
            assert field in err and err.count("\n") == 1, err


def test_integers_beyond_the_digit_limit_exit_with_their_code(capsys, tmp_path, model_path):
    # json refuses to convert them with a ValueError, not a JSONDecodeError
    huge = "1" + "0" * 5000
    bad = tmp_path / "huge.json"
    trace = tmp_path / "huge.jsonl"
    bad.write_text('{"L": ' + huge + "}")
    trace.write_text('{"slot": 0, "action": 1, "combo": [' + huge + '], "received_rx1": true, '
                     '"received_rx2": false, "delivered": []}\n')
    for argv, want, what in (
            (["region", "--model", str(bad), "--L", "1"], 3, "error: integer longer"),
            (["canonicalize", "--model", model_path, "--dist", str(bad)], 3,
             "error: integer longer"),
            (["verify", "--trace", str(trace)], 3, "error: line 1: integer longer"),
            (["region", "--config", str(bad)], 2, "error: config: integer longer")):
        code, out, err = run(capsys, argv)
        assert code == want and out == "", argv
        assert err.startswith(what) and err.count("\n") == 1, err


def test_distribution_window_length_above_cap_exits_2(capsys, tmp_path, model_path):
    # refused before any 4**L is formed: 4**10000 has more digits than an
    # error message may print, and 4**(10**9) would take hours to compute
    dist = tmp_path / "dist.json"
    for L in (11, 10_000, 10 ** 9):
        dist.write_text(json.dumps({"L": L, "actions": []}))
        code, out, err = run(capsys, ["canonicalize", "--model", model_path,
                                      "--dist", str(dist)])
        assert code == 2 and out == ""
        assert "cap of 10" in err and err.count("\n") == 1, err
        with pytest.raises(xc.ResourceLimit):
            xc.ActionDistribution(L=L, table=[])


def test_config_keys_must_be_options(capsys, tmp_path, model_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lamda": 0.5, "L": 1, "model": model_path}))
    code, out, err = run(capsys, ["region", "--config", str(cfg)])
    assert code == 2 and out == "" and "'lamda'" in err and err.count("\n") == 1
    # one file may hold the options of several subcommands
    cfg.write_text(json.dumps({"model": model_path, "L": 1, "lambda": 0.5,
                               "scheduler": "maxweight", "rates": "0.2,0.2",
                               "slots": 500}))
    assert run(capsys, ["region", "--config", str(cfg)])[0] == 0
    assert run(capsys, ["simulate", "--config", str(cfg)])[0] == 0


def test_verify_takes_no_model(capsys, tmp_path, model_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", "/nonexistent.json", "--trace", str(trace)])
    assert exc.value.code == 2
    assert "--model" in capsys.readouterr().err
    # a config file's model key stays valid: other subcommands read it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model_path, "trace": str(trace)}))
    code, out, _ = run(capsys, ["verify", "--config", str(cfg)])
    assert code == 0 and json.loads(out)["transmissions"] == 0


def test_sandwich_without_forgetting_rate(capsys, tmp_path):
    # a zero emission entry in a two-state model leaves no forgetting rate,
    # and the bracket needs none: both rows, nothing on stderr
    path = tmp_path / "zero.json"
    xc.save_model(xc.ChannelModel([[0.9, 0.1], [0.2, 0.8]],
                                  [[1.0, 0.0, 0.0, 0.0], [0.5, 0.2, 0.2, 0.1]]), path)
    code, out, err = run(capsys, ["region", "--model", str(path), "--L", "1",
                                  "--lambda", "0.5", "--sandwich"])
    assert code == 0
    lines = out.strip().splitlines()
    assert [l.split(",")[3] for l in lines[1:]] == ["inner", "outer"]
    assert float(lines[1].split(",")[1]) <= float(lines[2].split(",")[1])
    assert err == ""
