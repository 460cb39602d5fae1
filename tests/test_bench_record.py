import importlib.util
import json
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                                 "bench_record.py"))
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _run_file(tree, workload, seed, wall_ref_s, env_extra=None):
    env = {"python": "3", "numpy": "2", "git_commit": "abc", "seed": seed, **(env_extra or {})}
    record = {
        "workload": workload, "seconds": 40.0, "trace": 0, "env": env, "fail_frac": 0.0,
        "spread": {"wall_s": {"median": 2 * wall_ref_s}},
        "metrics": {"wall_ref_s": {"value": wall_ref_s, "unit": "s"},
                    "setup_s": {"value": 0.01, "unit": "s"}},
        "passes": [{"cal_s": 0.05}, {"cal_s": 0.07}, {"cal_s": 0.06}],
    }
    out = os.path.join(tree, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{workload}-seed{seed}-trace0.json"), "w") as fh:
        json.dump(record, fh)


def test_bench_record_folds_runs_by_workload(tmp_path):
    tree = str(tmp_path)
    os.makedirs(os.path.join(tree, "src", "pkg"))
    with open(os.path.join(tree, "src", "pkg", "m.py"), "w") as fh:
        fh.write("x = 1\n")
    for seed, value in enumerate((1.0, 3.0, 2.0, 5.0), start=1):
        _run_file(tree, "w1", seed, value)
    out = os.path.join(tree, "BENCH_3.json")
    assert bench_record.main(["3", "--tree", tree, "--out", out]) == 0
    with open(out) as fh:
        rec = json.load(fh)
    assert rec["k"] == 3 and rec["commit"] == "abc" and "seed" not in rec["env"]
    assert rec["src_sha256"] == bench_record.src_sha256(tree)
    w = rec["workloads"]["w1"]
    assert [run["seed"] for run in w["runs"]] == [1, 2, 3, 4]
    assert w["metrics"]["wall_ref_s"]["median"] == 2.5
    assert w["metrics"]["wall_ref_s"]["iqr"] == pytest.approx(
        w["metrics"]["wall_ref_s"]["q3"] - w["metrics"]["wall_ref_s"]["q1"])
    assert w["metrics"]["wall_s"]["median"] == 5.0
    assert w["metrics"]["cal_s"]["median"] == 0.06 and w["metrics"]["cal_s"]["n"] == 4


def test_bench_record_refuses_mixed_environments(tmp_path):
    tree = str(tmp_path)
    _run_file(tree, "w1", 1, 1.0)
    _run_file(tree, "w1", 2, 1.0, env_extra={"numpy": "1"})
    assert bench_record.main(["4", "--tree", tree,
                              "--out", os.path.join(tree, "B.json")]) == 2
    assert not os.path.exists(os.path.join(tree, "B.json"))


def _record(tmp_path, name, walls, setups):
    tree = str(tmp_path / name)
    for seed, (wall, setup) in enumerate(zip(walls, setups), start=1):
        _run_file(tree, "w1", seed, wall)
        path = os.path.join(tree, ".perfbench_out", f"w1-seed{seed}-trace0.json")
        with open(path) as fh:
            record = json.load(fh)
        record["metrics"]["setup_s"]["value"] = setup
        with open(path, "w") as fh:
            json.dump(record, fh)
    out = os.path.join(tree, "BENCH.json")
    assert bench_record.main(["1", "--tree", tree, "--out", out]) == 0
    return out


def test_bench_record_diff_pairs_runs_by_seed(tmp_path, capsys):
    old = _record(tmp_path, "old", [1.0, 1.1, 1.2, 1.3, 1.0, 1.1, 1.2, 1.3, 1.0, 1.1],
                  [0.01] * 10)
    # wall_ref_s: nine wins and one loss, the medians 0.525 s apart against
    # an IQR of 0.225 s; setup_s: one win, eight ties, one loss
    new = _record(tmp_path, "new", [0.5, 0.6, 0.55, 0.65, 0.5, 0.6, 0.55, 0.65, 0.5, 1.2],
                  [0.009] + [0.01] * 8 + [0.02])
    with open(old) as fh_old, open(new) as fh_new:
        rows = {r["metric"]: r for r in bench_record.diff_rows(json.load(fh_old),
                                                               json.load(fh_new))}
    assert set(rows) == {"wall_ref_s", "setup_s", "wall_s", "cal_s"}
    wall = rows["wall_ref_s"]
    assert wall["wtl"] == (9, 0, 1) and wall["met"]
    assert wall["old_iqr"] == pytest.approx(0.225)
    assert wall["change"] == pytest.approx((0.575 - 1.1) / 1.1)
    assert rows["setup_s"]["wtl"] == (1, 8, 1) and not rows["setup_s"]["met"]
    assert rows["cal_s"]["wtl"] == (0, 10, 0) and not rows["cal_s"]["met"]
    row = ("| w1 | wall_ref_s | 1.1 [1, 1.225] | 0.575 [0.5, 0.65] | -47.7 % | 9/0/1 "
           "| 0.225 | met |")
    capsys.readouterr()
    assert bench_record.main(["--diff", old, new]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("| workload | metric | parent | change |")
    assert any(line.startswith(row) for line in lines)
    # the bound column, against a declaration of known bounds
    with open(old) as fh_old, open(new) as fh_new:
        bench_record.print_diff(json.load(fh_old), json.load(fh_new),
                                bounds=bench_record.load_bounds(_benchmark(tmp_path)))
    assert row + " within (21 %) |" in capsys.readouterr().out.splitlines()


def test_bench_record_diff_needs_more_than_the_parent_iqr(tmp_path):
    # ten wins, but the medians differ by less than the parent's spread
    old = _record(tmp_path, "old", [1.0, 2.0, 3.0, 4.0], [0.01] * 4)
    new = _record(tmp_path, "new", [0.9, 1.9, 2.9, 3.9], [0.01] * 4)
    with open(old) as fh_old, open(new) as fh_new:
        rows = {r["metric"]: r for r in bench_record.diff_rows(json.load(fh_old),
                                                               json.load(fh_new))}
    assert rows["wall_ref_s"]["wtl"] == (4, 0, 0) and not rows["wall_ref_s"]["met"]


def _benchmark(tmp_path):
    path = str(tmp_path / "BENCHMARK.json")
    with open(path, "w") as fh:
        json.dump({"end_to_end": [
            {"name": "wall_ref_s", "unit": "s", "better": "lower", "bound": 0.21},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}, fh)
    return path


def test_bench_record_diff_reads_the_bounds(tmp_path):
    benchmark = _benchmark(tmp_path)
    with open(benchmark) as fh:
        declared = fh.read()
    bounds = bench_record.load_bounds(benchmark)
    # setup_s worse by 30 % against a 25 % bound, with no spread in the
    # parent; wall_ref_s 5 % worse, inside its 21 %
    old = _record(tmp_path, "old", [1.0] * 4, [0.01] * 4)
    new = _record(tmp_path, "new", [1.05] * 4, [0.013] * 4)
    with open(old) as fh_old, open(new) as fh_new:
        rows = {r["metric"]: r for r in bench_record.diff_rows(json.load(fh_old),
                                                               json.load(fh_new), bounds)}
    assert rows["wall_ref_s"]["verdict"] == "within" and rows["wall_ref_s"]["bound"] == 0.21
    assert rows["setup_s"]["verdict"] == "beyond"
    assert rows["wall_s"]["verdict"] is None and rows["cal_s"]["bound"] is None
    # a parent whose IQR is larger than the bound cannot tell either way,
    # even when the change's median reads better
    old = _record(tmp_path, "wide", [1.0, 2.0, 3.0, 4.0], [0.01] * 4)
    new = _record(tmp_path, "narrow", [0.9, 1.9, 2.9, 3.9], [0.01] * 4)
    with open(old) as fh_old, open(new) as fh_new:
        rows = {r["metric"]: r for r in bench_record.diff_rows(json.load(fh_old),
                                                               json.load(fh_new), bounds)}
    assert rows["wall_ref_s"]["verdict"] == "unresolved"
    assert rows["setup_s"]["verdict"] == "within"
    # ... unless every run of the change reads better than every parent run
    new = _record(tmp_path, "below", [0.5, 0.6, 0.7, 0.8], [0.01] * 4)
    with open(old) as fh_old, open(new) as fh_new:
        rows = {r["metric"]: r for r in bench_record.diff_rows(json.load(fh_old),
                                                               json.load(fh_new), bounds)}
    assert rows["wall_ref_s"]["verdict"] == "within"
    with open(benchmark) as fh:
        assert fh.read() == declared
