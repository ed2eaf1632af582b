"""CLI surface: generation, decomposition, marginals, solving, bench."""

import json

import numpy as np
import pytest

from caradec.cli import main


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_gen_and_solve_coverage(workdir):
    rc = main([
        "gen", "--kind", "random-uniform", "--name", "cov", "--n-sets", "30",
        "--n-elements", "60", "--count", "2", "--seed", "4", "--out", "insts",
    ])
    assert rc == 0
    files = sorted((workdir / "insts").glob("*.json"))
    assert len(files) == 2

    rc = main([
        "solve", "--instance", str(files[0]), "--k", "4", "--method", "greedy",
        "--out", "greedy.json",
    ])
    assert rc == 0
    res = json.loads((workdir / "greedy.json").read_text())
    assert len(res["set"]) == 4

    rc = main([
        "solve", "--instance", str(files[0]), "--k", "4",
        "--method", "direct+local", "--steps", "20", "--seed", "1",
        "--out", "direct.json",
    ])
    assert rc == 0
    res2 = json.loads((workdir / "direct.json").read_text())
    assert len(res2["set"]) == 4
    assert res2["objective"] >= res2["extension"] - 1e-9
    assert res2["iterations"] > 20  # the direct steps plus the multi-scale steps


def test_gen_determinism(workdir):
    for d in ("a", "b"):
        main(["gen", "--kind", "random-uniform", "--name", "x", "--n-sets", "10",
              "--n-elements", "40", "--count", "1", "--seed", "9", "--out", d])
    assert (workdir / "a/x_000.json").read_text() == (workdir / "b/x_000.json").read_text()


def test_decompose_and_validate(workdir):
    rng = np.random.default_rng(0)
    z = rng.random(8)
    mu = z.mean()
    s = min((3 / 8) / mu, (5 / 8) / (1 - mu))
    x = s * (z - mu) + 3 / 8
    (workdir / "p.json").write_text(json.dumps(x.tolist()))
    rc = main(["decompose", "--constraint", "card", "--k", "3",
               "--point", "p.json", "--out", "d.json"])
    assert rc == 0
    dec = json.loads((workdir / "d.json").read_text())
    assert abs(sum(p["p"] for p in dec["pairs"]) - 1) < 1e-9
    recon = np.zeros(8)
    for pair in dec["pairs"]:
        recon[pair["set"]] += pair["p"]
    assert np.max(np.abs(recon - x)) < 1e-9

    # invalid point -> exit 1
    (workdir / "bad.json").write_text(json.dumps([0.9] * 8))
    rc = main(["decompose", "--constraint", "card", "--k", "3", "--point", "bad.json"])
    assert rc == 1


def test_decompose_scales_list(workdir, capsys):
    (workdir / "p.json").write_text(json.dumps([0.7, 0.6, 0.4, 0.3]))
    rc = main(["decompose", "--constraint", "card", "--k", "2",
               "--point", "p.json", "--scales", "1.0,0.5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and payload[0]["scale"] == 1.0


def test_marginals(workdir, capsys):
    (workdir / "g.edges").write_text("3 3\n0 1\n0 2\n1 2\n")
    rc = main(["marginals", "--graph", "g.edges"])
    assert rc == 0
    mu = json.loads(capsys.readouterr().out)
    assert np.allclose(mu, 2 / 3)


def test_solve_maxcut_and_indset(workdir):
    rc = main(["gen", "--kind", "er", "--name", "g", "--n-nodes", "10", "--p", "0.3",
               "--count", "1", "--seed", "3", "--out", "graphs"])
    assert rc == 0
    rc = main(["solve", "--graph", "graphs/g_000.edges", "--constraint", "card",
               "--k", "3", "--method", "direct", "--steps", "20", "--seed", "0",
               "--out", "cut.json"])
    assert rc == 0
    rc = main(["solve", "--graph", "graphs/g_000.edges", "--constraint", "indset",
               "--method", "direct", "--steps", "15", "--seed", "0",
               "--out", "ind.json"])
    assert rc == 0


def test_infeasible_exit_code(workdir):
    rc = main(["gen", "--kind", "random-uniform", "--n-sets", "5",
               "--n-elements", "4", "--count", "1", "--seed", "0", "--out", "z"])
    assert rc == 2


def test_size_limit_exit_code(workdir, capsys):
    # 21 edges: one more than the graphic oracle's brute-force cutoff
    edges = "".join(f"{u} {(u + 1) % 21}\n" for u in range(21))
    (workdir / "ring.edges").write_text(f"21 21\n{edges}")
    rc = main(["solve", "--graph", "ring.edges", "--constraint", "forest",
               "--method", "direct", "--steps", "2", "--seed", "0"])
    assert rc == 2
    assert "infeasible configuration" in capsys.readouterr().err


def test_bench(workdir):
    cfg = {
        "seed": 0,
        "k": [4],
        "methods": ["greedy", "random", "direct"],
        "random_trials": 200,
        "steps": 15,
        "datasets": [
            {"name": "cov", "kind": "random-uniform", "count": 2,
             "n_sets": 25, "n_elements": 50},
        ],
    }
    (workdir / "bench.json").write_text(json.dumps(cfg))
    rc = main(["bench", "--config", "bench.json", "--out", "rows.csv",
               "--plot-data", "plots"])
    assert rc == 0
    lines = (workdir / "rows.csv").read_text().strip().splitlines()
    assert lines[0] == "instance_id,method,k,objective,extension,time_ms,seed,iterations"
    assert len(lines) == 1 + 2 * 3
    assert (workdir / "plots/plot_greedy.csv").exists()

    # identical rerun -> identical CSV up to the wall-time column
    rc = main(["bench", "--config", "bench.json", "--out", "rows2.csv"])
    assert rc == 0

    def strip_times(text):
        out = []
        for line in text.strip().splitlines():
            cols = line.split(",")
            out.append(",".join(cols[:5] + cols[6:]))
        return out

    assert strip_times((workdir / "rows.csv").read_text()) == strip_times(
        (workdir / "rows2.csv").read_text()
    )


def test_bench_exit_codes(workdir):
    base = {
        "seed": 0, "k": [100], "methods": ["greedy"], "random_trials": 10,
        "datasets": [{"name": "c", "kind": "random-uniform", "count": 1,
                      "n_sets": 10, "n_elements": 40}],
    }
    (workdir / "bad_k.json").write_text(json.dumps(base))
    assert main(["bench", "--config", "bad_k.json"]) == 2

    missing = dict(base, k=[2], datasets=[
        {"name": "f", "kind": "coverage-files", "paths": ["nope.json"]}
    ])
    (workdir / "missing.json").write_text(json.dumps(missing))
    assert main(["bench", "--config", "missing.json"]) == 1


def test_bench_worker_pool(workdir):
    cfg = {
        "seed": 0, "k": [3], "methods": ["greedy", "random"], "random_trials": 64,
        "workers": 2,
        "datasets": [{"name": "c", "kind": "random-uniform", "count": 4,
                      "n_sets": 20, "n_elements": 50}],
    }
    (workdir / "w.json").write_text(json.dumps(cfg))
    assert main(["bench", "--config", "w.json", "--out", "w2.csv"]) == 0
    cfg["workers"] = 1
    (workdir / "w1.json").write_text(json.dumps(cfg))
    assert main(["bench", "--config", "w1.json", "--out", "w1.csv"]) == 0

    def strip_times(text):
        return [",".join(l.split(",")[:5] + l.split(",")[6:])
                for l in text.strip().splitlines()]

    assert strip_times((workdir / "w1.csv").read_text()) == strip_times(
        (workdir / "w2.csv").read_text())


def test_solve_csv_format(workdir):
    main(["gen", "--kind", "random-uniform", "--name", "c", "--n-sets", "20",
          "--n-elements", "50", "--count", "1", "--seed", "2", "--out", "d"])
    rc = main(["solve", "--instance", "d/c_000.json", "--k", "3",
               "--method", "greedy", "--format", "csv", "--out", "g.csv"])
    assert rc == 0
    lines = (workdir / "g.csv").read_text().strip().splitlines()
    assert lines[0].startswith("instance_id,method,k,")
    assert lines[1].split(",")[1] == "greedy"


def test_random_zero_trials_exit_code(workdir, capsys):
    main(["gen", "--kind", "random-uniform", "--name", "c", "--n-sets", "20",
          "--n-elements", "50", "--count", "1", "--seed", "2", "--out", "d"])
    rc = main(["solve", "--instance", "d/c_000.json", "--k", "3",
               "--method", "random", "--trials", "0"])
    assert rc == 1
    assert "trials must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["random", "direct"])
def test_non_finite_edge_weight_exit_code(workdir, capsys, method):
    (workdir / "nan.edges").write_text("3 2\n0 1 nan\n1 2 1.0\n")
    rc = main(["solve", "--graph", "nan.edges", "--constraint", "card", "--k", "1",
               "--method", method, "--trials", "5", "--steps", "2"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "weights must be positive and finite" in captured.err
