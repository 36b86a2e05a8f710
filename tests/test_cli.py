"""End-to-end command tests: exit codes, file outputs, report contents."""

import json
import os
import subprocess
import sys

import pytest

from hgsparse.cli import run

REPORT_FIELDS = {"n", "m", "k", "t", "method", "seed", "kept_edges", "ratio",
                 "per_type_kept", "duplicates_dropped", "coverage_violations",
                 "isolated_nodes"}


@pytest.fixture
def star_file(tmp_path):
    # node 0 fans out to 1..6 over two etypes; k=1 leaves real choices
    path = tmp_path / "link.dat"
    lines = [f"0\t{v}\t0" for v in range(1, 7)] + [f"0\t{v}\t1" for v in range(1, 7)]
    path.write_text("".join(line + "\n" for line in lines))
    return path


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.dat"
    path.write_text("".join(f"{i}\t{i + 1}\t0\n" for i in range(8)))
    return path


@pytest.fixture
def k33_file(tmp_path):
    # complete bipartite 3x3: k=1 leaves the sampler real choices
    path = tmp_path / "k33.dat"
    path.write_text("".join(f"{u}\t{v}\t0\n"
                            for u in (1, 2, 3) for v in (4, 5, 6)))
    return path


def test_sparsify_happy_path(star_file, tmp_path, capsys):
    out = tmp_path / "sparse.dat"
    report = tmp_path / "r.json"
    code = run(["sparsify", "--links", str(star_file), "--k", "1", "--seed", "42",
                "--out", str(out), "--report", str(report), "--deterministic"])
    assert code == 0
    assert "ratio" in capsys.readouterr().out
    assert out.exists()
    payload = json.loads(report.read_text())
    assert set(payload) == REPORT_FIELDS
    assert payload["coverage_violations"] == []
    assert payload["isolated_nodes"] == []
    assert payload["method"] == "per-type"
    assert 0 < payload["ratio"] <= 1


def test_report_timestamp_toggle(star_file, tmp_path):
    out = tmp_path / "s.dat"
    report = tmp_path / "r.json"
    run(["sparsify", "--links", str(star_file), "--k", "1",
         "--out", str(out), "--report", str(report)])
    assert "generated_at" in json.loads(report.read_text())


def test_sparsify_reruns_are_byte_identical(star_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.dat"
        rep = tmp_path / f"{name}.json"
        assert run(["sparsify", "--links", str(star_file), "--k", "1",
                    "--seed", "7", "--out", str(out), "--report", str(rep),
                    "--deterministic"]) == 0
        outs.append((out.read_bytes(), rep.read_bytes()))
    assert outs[0] == outs[1]


def test_sparsify_seed_changes_selection(k33_file, tmp_path):
    picks = set()
    for seed in range(6):
        out = tmp_path / f"s{seed}.dat"
        run(["sparsify", "--links", str(k33_file), "--k", "1",
             "--seed", str(seed), "--out", str(out)])
        kept = len(out.read_text().splitlines())
        assert 3 <= kept <= 6
        picks.add(out.read_bytes())
    assert len(picks) > 1


def test_usage_errors_exit_one(star_file, tmp_path):
    out = str(tmp_path / "x.dat")
    assert run(["sparsify", "--links", str(star_file), "--k", "0",
                "--out", out]) == 1
    assert run(["sparsify", "--links", str(star_file), "--k", "1"]) == 1
    assert run(["sparsify", "--links", str(star_file), "--k", "1",
                "--out", out, "--method", "random"]) == 1
    assert run(["no-such-command"]) == 1


def test_malformed_input_exits_two(tmp_path):
    bad = tmp_path / "bad.dat"
    bad.write_text("1\t2\n")
    assert run(["stats", "--links", str(bad)]) == 2
    bad.write_text("1\t2\t0\t1.5\n")
    assert run(["stats", "--links", str(bad)]) == 2  # weight without --weighted


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def test_k_beyond_int64_exits_one(star_file, tmp_path, capsys):
    out = tmp_path / "x.dat"
    big = str(2**63)
    assert run(["sparsify", "--links", str(star_file), "--k", big,
                "--out", str(out)]) == 1
    assert not out.exists()
    assert run(["verify", "--links", str(star_file), "--sparse", str(star_file),
                "--k", big]) == 1
    assert run(["eval", "--links", str(star_file), "--k", big]) == 1
    assert "--k" in capsys.readouterr().err
    assert run(["sparsify", "--links", str(star_file), "--k", str(2**63 - 1),
                "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 12


def test_unallocatable_negatives_exit_two(star_file, capsys):
    # both sizes fail numpy's shape checks before any memory is taken
    for per_pos in (2**62, 2**63):
        assert run(["eval", "--links", str(star_file),
                    "--negatives-per-positive", str(per_pos)]) == 2
        assert "negatives" in _one_line_error(capsys)


def test_undecodable_files_exit_two(tmp_path, capsys):
    links = tmp_path / "link.dat"
    nodes = tmp_path / "node.dat"
    spec = tmp_path / "spec.txt"
    links.write_bytes(b"1\t2\t0\n\xff\xfe\t3\t0\n")
    assert run(["stats", "--links", str(links)]) == 2
    assert str(links) in _one_line_error(capsys)
    links.write_text("1\t2\t0\n")
    nodes.write_bytes(b"1\ta\t0\n2\tb\xe9\t0\n")
    assert run(["stats", "--links", str(links), "--nodes", str(nodes)]) == 2
    assert str(nodes) in _one_line_error(capsys)
    spec.write_bytes(b"node_types = 3\n# caf\xe9\nedges 0 0 2 0.0\n")
    assert run(["generate", "--spec", str(spec), "--out",
                str(tmp_path / "g.dat")]) == 2
    assert str(spec) in _one_line_error(capsys)


def test_ids_beyond_int64_exit_two(tmp_path, capsys):
    links = tmp_path / "link.dat"
    nodes = tmp_path / "node.dat"
    for line in (f"{2**63}\t2\t0", f"1\t{2**64}\t0", f"1\t2\t{2**63}"):
        links.write_text(f"1\t2\t0\n{line}\n")
        assert run(["stats", "--links", str(links)]) == 2
        assert "line 2" in _one_line_error(capsys)
    links.write_text("1\t2\t0\n")
    for line in (f"{2**63}\tb\t0", f"2\tb\t{2**63}"):
        nodes.write_text(f"1\ta\t0\n{line}\n")
        assert run(["stats", "--links", str(links), "--nodes", str(nodes)]) == 2
        assert "line 2" in _one_line_error(capsys)
    links.write_text(f"{2**63 - 1}\t2\t0\n")
    assert run(["stats", "--links", str(links)]) == 0


def test_stats_output(star_file, tmp_path, capsys):
    report = tmp_path / "stats.json"
    assert run(["stats", "--links", str(star_file), "--report", str(report),
                "--deterministic"]) == 0
    text = capsys.readouterr().out
    assert "nodes:          7" in text
    assert "edges:          12" in text
    assert "edge types:     2" in text
    payload = json.loads(report.read_text())
    assert payload["m"] == 12 and payload["max_bucket"] == 6
    assert payload["duplicates_dropped"] == 0


def test_stats_reads_node_file(star_file, tmp_path, capsys):
    nodes = tmp_path / "node.dat"
    nodes.write_text("".join(f"{u}\tn{u}\t{1 if u else 0}\n" for u in range(8)))
    assert run(["stats", "--links", str(star_file), "--nodes", str(nodes)]) == 0
    assert "node types:     2" in capsys.readouterr().out


def test_weighted_and_delimiter_flags(tmp_path):
    src = tmp_path / "w.csv"
    src.write_text("1,2,0,0.5\n2,3,0,1.25\n")
    out = tmp_path / "w_sparse.csv"
    assert run(["sparsify", "--links", str(src), "--weighted", "--delimiter", ",",
                "--k", "1", "--out", str(out)]) == 0
    assert out.read_text() == "1\t2\t0\t0.5\n2\t3\t0\t1.25\n"


def test_generate_from_flags(tmp_path, capsys):
    out = tmp_path / "gen.dat"
    nodes_out = tmp_path / "gen_nodes.dat"
    report = tmp_path / "gen.json"
    code = run(["generate", "--node-types", "20 10", "--edge", "0:1:40:1.0",
                "--edge", "1:0:30", "--seed", "3", "--out", str(out),
                "--nodes-out", str(nodes_out), "--report", str(report),
                "--deterministic"])
    assert code == 0
    assert "n=30 m=70 t=2" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 70
    assert len(nodes_out.read_text().splitlines()) == 30
    payload = json.loads(report.read_text())
    assert payload["m"] == 70 and payload["seed"] == 3


def test_generate_from_spec_file(tmp_path):
    spec = tmp_path / "g.spec"
    spec.write_text("node_types = 12\nseed = 5\nedges 0 0 20 0.5\n")
    out = tmp_path / "g.dat"
    assert run(["generate", "--spec", str(spec), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 20
    # --seed overrides the file seed
    other = tmp_path / "g2.dat"
    assert run(["generate", "--spec", str(spec), "--seed", "6",
                "--out", str(other)]) == 0
    assert other.read_text() != out.read_text()


def test_generate_flag_conflicts(tmp_path):
    spec = tmp_path / "g.spec"
    spec.write_text("node_types = 4\nedges 0 0 2 0\n")
    out = str(tmp_path / "x.dat")
    assert run(["generate", "--spec", str(spec), "--edge", "0:0:1",
                "--out", out]) == 1
    assert run(["generate", "--out", out]) == 1
    assert run(["generate", "--node-types", "4", "--out", out]) == 1


def test_generate_infeasible_exits_two(tmp_path):
    assert run(["generate", "--node-types", "4", "--edge", "0:0:20",
                "--out", str(tmp_path / "x.dat")]) == 2


def test_generate_unallocatable_size_exits_two(tmp_path, capsys):
    # numpy rejects a 2**62-node table before any memory is taken
    assert run(["generate", "--node-types", str(2**62), "--edge", "0:0:1:0",
                "--out", str(tmp_path / "x.dat")]) == 2
    assert str(2**62) in _one_line_error(capsys)
    assert not (tmp_path / "x.dat").exists()


def test_verify_accepts_own_output(chain_file, tmp_path, capsys):
    sparse = tmp_path / "sparse.dat"
    run(["sparsify", "--links", str(chain_file), "--k", "1", "--out", str(sparse)])
    assert run(["verify", "--links", str(chain_file), "--sparse", str(sparse),
                "--k", "1"]) == 0
    assert "ok:" in capsys.readouterr().out


def test_verify_tampered_exits_three(chain_file, tmp_path, capsys):
    # every chain bucket is a singleton, so dropping any line must be caught
    sparse = tmp_path / "sparse.dat"
    run(["sparsify", "--links", str(chain_file), "--k", "1", "--out", str(sparse)])
    lines = sparse.read_text().splitlines()
    sparse.write_text("".join(line + "\n" for line in lines[1:]))
    report = tmp_path / "v.json"
    code = run(["verify", "--links", str(chain_file), "--sparse", str(sparse),
                "--k", "1", "--report", str(report), "--deterministic"])
    assert code == 3
    captured = capsys.readouterr()
    assert "violation: node" in captured.out
    assert "verification failed" in captured.err
    payload = json.loads(report.read_text())
    assert payload["coverage_violations"] != []


def test_verify_rejects_alien_edges(chain_file, tmp_path):
    sparse = tmp_path / "sparse.dat"
    # unknown node and known-nodes-but-unknown-edge both break subsetness
    sparse.write_text(chain_file.read_text() + "99\t98\t0\n")
    assert run(["verify", "--links", str(chain_file), "--sparse", str(sparse),
                "--k", "1"]) == 3
    sparse.write_text(chain_file.read_text() + "1\t0\t0\n")
    assert run(["verify", "--links", str(chain_file), "--sparse", str(sparse),
                "--k", "1"]) == 3


def test_eval_full_and_sparsified(star_file, tmp_path, capsys):
    report = tmp_path / "e.json"
    code = run(["eval", "--links", str(star_file), "--holdout", "0.25",
                "--seed", "1", "--negatives-per-positive", "2",
                "--report", str(report), "--deterministic"])
    assert code == 0
    assert "auc" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["k"] is None and payload["method"] is None
    assert 0.0 <= payload["auc"] <= 1.0

    code = run(["eval", "--links", str(star_file), "--holdout", "0.25",
                "--seed", "1", "--negatives-per-positive", "2", "--k", "2",
                "--report", str(report), "--deterministic"])
    assert code == 0
    assert json.loads(report.read_text())["method"] == "per-type"


def test_eval_holdout_range_enforced(star_file):
    assert run(["eval", "--links", str(star_file), "--holdout", "1.5"]) == 1
    assert run(["eval", "--links", str(star_file), "--holdout", "0"]) == 1


def test_fallback_mode_matches_compiled(k33_file, tmp_path):
    """The pure-python path must pick the exact same edges as the kernels."""
    fast = tmp_path / "fast.dat"
    run(["sparsify", "--links", str(k33_file), "--k", "1", "--seed", "11",
         "--out", str(fast)])
    assert len(fast.read_text().splitlines()) < 9  # a real selection happened
    slow = tmp_path / "slow.dat"
    env = dict(os.environ, HGSPARSE_NO_NUMBA="1")
    proc = subprocess.run(
        [sys.executable, "-m", "hgsparse", "sparsify", "--links", str(k33_file),
         "--k", "1", "--seed", "11", "--out", str(slow)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert slow.read_bytes() == fast.read_bytes()
