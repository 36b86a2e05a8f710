"""End-to-end command tests: exit codes, file outputs, report contents."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hgsparse import (ALL_TYPES, PER_TYPE, GenSpec, evaluate, generate, write_link_file,
                      write_node_file)
from hgsparse import cli, evalproxy
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


@pytest.mark.parametrize("argv, message", [
    (["stats", "--links", "/nonexistent"],
     "Invalid value for '--links': File '/nonexistent' does not exist."),
    (["sparsify", "--links", "{links}", "--k", "0", "--out", "x.dat"],
     "Invalid value for '--k': 0 is not in the range 1<=x<=9223372036854775807."),
    (["sparsify", "--links", "{links}", "--k", "1"], "Missing option '--out'."),
    (["no-such-command"], "No such command 'no-such-command'."),
])
def test_usage_errors_print_one_line(star_file, capsys, argv, message):
    assert run([arg.format(links=star_file) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"Error: {message}\n")


def test_malformed_input_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.dat"
    bad.write_text("1\t2\n")
    assert run(["stats", "--links", str(bad)]) == 2
    bad.write_text("\n1\t2\t0\n2\t3\t0\n3\t4\t0\t1.5\n")  # a weight on one row only
    capsys.readouterr()
    assert run(["stats", "--links", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line 4: unexpected weight column (line 2 has none)\n")


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


HUGE_ETYPE = 2**62


@pytest.fixture
def huge_etype_file(tmp_path):
    # per-type counts go by each type's rank, not by its value
    path = tmp_path / "huge.dat"
    path.write_text(f"1\t2\t{HUGE_ETYPE}\n1\t3\t{HUGE_ETYPE}\n2\t3\t0\n")
    return path


def test_sparsify_report_with_huge_edge_type(huge_etype_file, tmp_path, capsys):
    report = tmp_path / "r.json"
    assert run(["sparsify", "--links", str(huge_etype_file), "--k", "1",
                "--out", str(tmp_path / "sparse.dat"), "--report", str(report),
                "--deterministic"]) == 0
    assert json.loads(report.read_text())["per_type_kept"] == {"0": 1, str(HUGE_ETYPE): 2}
    assert "Traceback" not in capsys.readouterr().err


def test_verify_report_with_huge_edge_type(huge_etype_file, tmp_path, capsys):
    report = tmp_path / "v.json"
    assert run(["verify", "--links", str(huge_etype_file), "--sparse",
                str(huge_etype_file), "--k", "1", "--report", str(report),
                "--deterministic"]) == 0
    assert json.loads(report.read_text())["per_type_kept"] == {"0": 1, str(HUGE_ETYPE): 2}
    assert "Traceback" not in capsys.readouterr().err


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


def test_node_file_ids_follow_link_grammar(tmp_path, capsys):
    # int() would read "1_0" as node 10, which the link file names
    links = tmp_path / "link.dat"
    links.write_text("10\t2\t0\n")
    nodes = tmp_path / "node.dat"
    for bad in ("1_0\tx\t0", " 10\tx\t0", "+10\tx\t0", "10\tx\t+0", "\u0661\tx\t0"):
        nodes.write_text(f"2\ty\t0\n{bad}\n")
        assert run(["stats", "--links", str(links), "--nodes", str(nodes)]) == 2
        assert f"{nodes}: line 2: invalid integer" in _one_line_error(capsys)
    nodes.write_text("2\ty\t0\n010\tx\t0\n")
    assert run(["stats", "--links", str(links), "--nodes", str(nodes)]) == 0


def test_node_file_warning_prints_one_line(tmp_path, capsys):
    links = tmp_path / "link.dat"
    links.write_text("1\t2\t0\n")
    nodes = tmp_path / "node.dat"
    nodes.write_text("1\ta\t0\tx\n2\tb\t0\n")
    assert run(["stats", "--links", str(links), "--nodes", str(nodes)]) == 0
    assert capsys.readouterr().err == (
        f"warning: {nodes}: node file line 1: ignoring 1 attribute column(s)\n")


def test_node_file_warning_then_error_print_one_line_each(tmp_path, capsys):
    links = tmp_path / "link.dat"
    links.write_text("1\t2\t0\n")
    nodes = tmp_path / "node.dat"
    nodes.write_text("1\ta\t0\tx\n1\tb\t0\n2\tb\t0\n")
    assert run(["stats", "--links", str(links), "--nodes", str(nodes)]) == 2
    assert capsys.readouterr().err == (
        f"warning: {nodes}: node file line 1: ignoring 1 attribute column(s)\n"
        f"error: {nodes}: line 2: duplicate node id 1\n")


def test_empty_node_table_exits_two(star_file, tmp_path, capsys):
    nodes = tmp_path / "node.dat"
    nodes.write_text("")
    links = ["--links", str(star_file), "--nodes", str(nodes)]
    for argv in (["stats", *links],
                 ["sparsify", *links, "--k", "1", "--out", str(tmp_path / "o.dat")],
                 ["eval", *links]):
        assert run(argv) == 2
        assert _one_line_error(capsys) == "error: edge source 0 is not in the node table\n"


def test_unwritable_outputs_exit_two(star_file, tmp_path, capsys):
    missing = tmp_path / "no" / "such"
    ok = str(tmp_path / "ok.dat")
    links = ["--links", str(star_file)]
    gen = ["generate", "--node-types", "5,5", "--edge", "0:1:10"]
    for argv in (
        ["sparsify", *links, "--k", "1", "--out", str(missing / "o.dat")],
        ["sparsify", *links, "--k", "1", "--out", ok, "--report", str(missing / "r.json")],
        ["stats", *links, "--report", str(missing / "r.json")],
        gen + ["--out", str(missing / "g.dat")],
        gen + ["--out", ok, "--nodes-out", str(missing / "n.dat")],
        gen + ["--out", ok, "--report", str(missing / "r.json")],
    ):
        assert run(argv) == 2
        err = _one_line_error(capsys)
        assert err.startswith(f"error: {missing}")


def test_internal_error_exits_four(star_file, tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("stage failed")

    # sparsify runs its checks only for the report it writes
    monkeypatch.setattr(cli, "coverage_report", broken)
    assert run(["sparsify", "--links", str(star_file), "--k", "1",
                "--out", str(tmp_path / "o.dat"), "--report", str(tmp_path / "r.json")]) == 4
    assert _one_line_error(capsys) == "internal error: RuntimeError: stage failed\n"


def test_weighted_and_delimiter_flags(tmp_path):
    src = tmp_path / "w.csv"
    src.write_text("1,2,0,0.5\n2,3,0,1.25\n")
    out = tmp_path / "w_sparse.csv"
    assert run(["sparsify", "--links", str(src), "--delimiter", ",",
                "--k", "1", "--out", str(out)]) == 0
    assert out.read_text() == "1\t2\t0\t0.5\n2\t3\t0\t1.25\n"


def test_verify_reads_sparse_output_of_any_delimiter(tmp_path):
    # sparsify writes tabs whatever --delimiter says; verify, given the
    # same flags, reads the sparse file as written
    src = tmp_path / "w.txt"
    src.write_text("1→2→0→0.5\n2→3→0→-0.0\n")
    out = tmp_path / "w_sparse.dat"
    flags = ["--links", str(src), "--delimiter", "→", "--k", "1"]
    assert run(["sparsify", *flags, "--out", str(out)]) == 0
    assert run(["verify", *flags, "--sparse", str(out)]) == 0


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


def test_generate_spec_errors_name_the_file(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    for text, message in (("node_types = 4\nfoo = 1\n", "line 2: unknown key 'foo'"),
                          ("node_types = 4\n", "spec file declares no edge types"),
                          ("node_types = 0\nedges 0 0 1 0\n",
                           "node type sizes must be positive")):
        spec.write_text(text)
        assert run(["generate", "--spec", str(spec), "--out", str(tmp_path / "g.dat")]) == 2
        assert _one_line_error(capsys) == f"error: {spec}: {message}\n"


def test_generate_flag_conflicts(tmp_path):
    spec = tmp_path / "g.spec"
    spec.write_text("node_types = 4\nedges 0 0 2 0\n")
    out = str(tmp_path / "x.dat")
    assert run(["generate", "--spec", str(spec), "--edge", "0:0:1",
                "--out", out]) == 1
    assert run(["generate", "--out", out]) == 1
    assert run(["generate", "--node-types", "4", "--out", out]) == 1


@pytest.mark.parametrize("flags, message", [
    (["--node-types", "4", "--edge", "0:0"],
     "--edge must be src_type:dst_type:count[:alpha], got '0:0'"),
    (["--node-types", "4", "--edge", "0:0:x"], "invalid number in --edge '0:0:x'"),
    (["--node-types", "4 x", "--edge", "0:0:2"], "invalid --node-types '4 x'"),
])
def test_generate_malformed_flags_exit_one(tmp_path, capsys, flags, message):
    out = tmp_path / "x.dat"
    assert run(["generate", *flags, "--out", str(out)]) == 1
    assert _one_line_error(capsys) == f"Error: {message}\n"
    assert not out.exists()


def test_generate_infeasible_exits_two(tmp_path):
    assert run(["generate", "--node-types", "4", "--edge", "0:0:20",
                "--out", str(tmp_path / "x.dat")]) == 2


def test_generate_unallocatable_size_exits_two(tmp_path, capsys):
    # numpy rejects a 2**62-node table before any memory is taken
    assert run(["generate", "--node-types", str(2**62), "--edge", "0:0:1:0",
                "--out", str(tmp_path / "x.dat")]) == 2
    assert str(2**62) in _one_line_error(capsys)
    assert not (tmp_path / "x.dat").exists()


# Runs the CLI on argv[2:] with at most argv[1] bytes of address space.
# The limit acts on this child process only; it makes an allocation fail
# at once even on a host that would overcommit memory to it.
_LIMITED_RUN = """
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from hgsparse.cli import run
sys.exit(run(sys.argv[2:]))
"""


def _run_limited(limit: int, argv: list[str]) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", _LIMITED_RUN, str(limit), *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_generate_unallocatable_edge_count_exits_two(tmp_path):
    # 10**12 edges fit between two populations of 2 million nodes, but
    # their draws do not fit in memory
    out = tmp_path / "g.dat"
    proc = _run_limited(4 << 30, ["generate", "--node-types", "2000000 2000000",
                                  "--edge", "0:1:1000000000000", "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: edge type 0: cannot allocate ")
    assert not out.exists()


def test_generate_unallocatable_rank_weights_exit_two(tmp_path):
    # the 40-million-node table fits in 768 MiB, but the rank weights of
    # that population, built beside it, do not
    out = tmp_path / "g.dat"
    proc = _run_limited(768 << 20, ["generate", "--node-types", "40000000 1",
                                    "--edge", "0:1:1", "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: edge type 0: cannot allocate rank weights ")
    assert not out.exists()


def test_eval_out_of_memory_exits_two(tmp_path):
    # the 200 x 100,000 negative matrix fits in 512 MiB, but the stages
    # after it need more than 1 GiB; an input that does not fit is bad
    # input, not a fault of the program
    links, nodes = str(tmp_path / "link.dat"), str(tmp_path / "node.dat")
    assert run(["generate", "--node-types", "50 50", "--edge", "0:1:1000:0.5", "--seed", "1",
                "--out", links, "--nodes-out", nodes]) == 0
    proc = _run_limited(512 << 20, ["eval", "--links", links, "--nodes", nodes,
                                    "--negatives-per-positive", "100000"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: out of memory: ")


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


def test_verify_subset_messages_and_empty_sparse(chain_file, tmp_path, capsys):
    sparse = tmp_path / "sparse.dat"
    prefix = "verification failed: sparse file is not a subset of the graph: "
    for line, reason in (("99\t98\t0", "node 99 is not in the graph"),
                         ("1\t0\t0", "(1, 0, 0) is not an edge"),
                         ("1\t2\t5", "(1, 2, 5) is not an edge")):
        sparse.write_text(f"0\t1\t0\n{line}\n")
        assert run(["verify", "--links", str(chain_file), "--sparse", str(sparse),
                    "--k", "1"]) == 3
        assert _one_line_error(capsys) == prefix + reason + "\n"
    # an empty sparse file keeps no edge, so every node is isolated
    sparse.write_text("")
    report = tmp_path / "v.json"
    assert run(["verify", "--links", str(chain_file), "--sparse", str(sparse),
                "--k", "1", "--report", str(report), "--deterministic"]) == 3
    payload = json.loads(report.read_text())
    assert payload["kept_edges"] == 0 and payload["ratio"] == 0.0
    assert payload["isolated_nodes"] == list(range(9))
    assert payload["per_type_kept"] == {"0": 0}


def test_verify_rejects_a_repeated_line(tmp_path, capsys):
    # every edge is in the sparse file, and two of them twice; the first
    # repeat in file order is named, not the lowest edge repeated
    links, sparse = tmp_path / "link.dat", tmp_path / "sparse.dat"
    links.write_text("1\t2\t0\n1\t3\t0\n1\t4\t1\n")
    sparse.write_text("1\t3\t0\n1\t2\t0\n1\t4\t1\n1\t3\t0\n1\t2\t0\n")
    assert run(["verify", "--links", str(links), "--sparse", str(sparse), "--k", "1"]) == 3
    assert capsys.readouterr().err == "verification failed: sparse file repeats edge (1, 3, 0)\n"
    sparse.write_text("1\t3\t0\n1\t2\t0\n1\t4\t1\n")
    assert run(["verify", "--links", str(links), "--sparse", str(sparse), "--k", "1"]) == 0


def test_bad_link_options_exit_one(star_file, capsys):
    for flag, value, reason in (("--comment-prefix", "0", "comment_prefix must not be a digit"),
                                ("--delimiter", "7", "delimiter must not be a digit"),
                                ("--delimiter", "::", "delimiter must be a single character")):
        assert run(["stats", "--links", str(star_file), flag, value]) == 1
        assert _one_line_error(capsys) == f"Error: {reason}\n"


@pytest.mark.parametrize("delimiter", ["\n", "\r"])
def test_line_break_delimiter_exits_one(star_file, capsys, delimiter):
    assert run(["stats", "--links", str(star_file), "--delimiter", delimiter]) == 1
    assert _one_line_error(capsys) == "Error: delimiter must not be a line break\n"


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


@pytest.mark.parametrize("k, method", [(None, PER_TYPE), (2, PER_TYPE), (2, ALL_TYPES)])
def test_eval_matches_the_library(tmp_path, k, method):
    # evaluate, given the command's seed, k and method, reports what the command does
    g = generate(GenSpec((40, 30), ((0, 1, 200, 0.8), (1, 0, 150, 0.5), (0, 0, 100, 0.0)),
                         seed=4))
    links, nodes, report = tmp_path / "link.dat", tmp_path / "node.dat", tmp_path / "e.json"
    write_link_file(g, links)
    write_node_file(nodes, g.node_ids, g.node_types)
    flags = [] if k is None else ["--k", str(k), "--method", method]
    assert run(["eval", "--links", str(links), "--nodes", str(nodes), "--seed", "3",
                *flags, "--report", str(report), "--deterministic"]) == 0
    payload = json.loads(report.read_text())
    rep = evaluate(g, seed=3, k=k, method=method)
    assert (payload["auc"], payload["mrr"], payload["positives"]) == (rep.auc, rep.mrr,
                                                                      rep.positives)


@pytest.mark.parametrize("method", [PER_TYPE, ALL_TYPES])
def test_eval_sweeps_its_train_edges_as_sparsify_does(tmp_path, monkeypatch, method):
    # eval keeps of its train edges what sparsify, given the same seed, k,
    # method and node file, keeps of a file of those edges
    g = generate(GenSpec((40, 30), ((0, 1, 200, 0.8), (1, 0, 150, 0.5), (0, 0, 100, 0.0)),
                         seed=4))
    links, nodes, train_links = tmp_path / "link.dat", tmp_path / "node.dat", tmp_path / "t.dat"
    write_link_file(g, links)
    write_node_file(nodes, g.node_ids, g.node_types)
    sweeps, sweep = [], evalproxy.sparsify

    def captured(train, params):
        result = sweep(train, params)
        sweeps.append((train, result.mask))
        return result

    monkeypatch.setattr(evalproxy, "sparsify", captured)
    flags = ["--nodes", str(nodes), "--seed", "5", "--k", "2", "--method", method]
    assert run(["eval", "--links", str(links), *flags]) == 0
    [(train, mask)] = sweeps
    assert 0 < mask.sum() < train.m
    write_link_file(train, train_links)
    write_link_file(train, tmp_path / "eval.out", mask)
    assert run(["sparsify", "--links", str(train_links), *flags,
                "--out", str(tmp_path / "sparsify.out")]) == 0
    assert (tmp_path / "eval.out").read_bytes() == (tmp_path / "sparsify.out").read_bytes()


def test_eval_holdout_range_enforced(star_file):
    assert run(["eval", "--links", str(star_file), "--holdout", "1.5"]) == 1
    assert run(["eval", "--links", str(star_file), "--holdout", "0"]) == 1


def test_import_is_silent_and_loads_no_numba():
    # the package has one execution path: importing it warns about
    # nothing and pulls in no JIT compiler
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import sys, hgsparse, hgsparse.cli; assert 'numba' not in sys.modules"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
