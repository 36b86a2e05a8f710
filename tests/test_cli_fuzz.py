"""Property tests of the CLI: small link files through sparsify, verify, stats and eval.

Every input maps to a documented exit code with at most one line on
stderr, never to exit 4, and a sparsify output that the command accepted
passes verify.  In the first and third properties, ids and types come
from the values where int32, int63 and int64 handling can break: 0,
2**31, 2**62 and 2**63 - 1.  The second draws the file dialects the
reader accepts or rejects: ids past int64 and uint64, weights, blank and
comment lines and a non-ASCII delimiter.  The third runs eval with its
flags at the ends of their ranges, the fourth runs generate with
sizes, alphas and counts at the ends of theirs, the fifth gives
sparsify, verify, stats and eval a node file, and the sixth gives
sparsify, verify and eval each flag at the ends of its range and just
past them.
"""

import contextlib
import io
import resource
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgsparse import METHODS, SCORERS
from hgsparse.cli import run

VALUES = (0, 2**31, 2**62, 2**63 - 1)


@st.composite
def link_texts(draw) -> str:
    """Up to 8 edges over VALUES, some repeated, with LF or CRLF line ends.

    The file may be empty and may lack its last line end; four values
    make self-loops and repeated pairs frequent.
    """
    value = st.sampled_from(VALUES)
    edges = draw(st.lists(st.tuples(value, value, value), max_size=8))
    edges += edges[:draw(st.integers(0, len(edges)))]  # duplicates
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(f"{s}\t{d}\t{t}{end}" for s, d, t in edges)
    return text.removesuffix(end) if draw(st.booleans()) else text


@contextlib.contextmanager
def address_space(extra: int):
    """Cap this process's address space at its current size plus ``extra`` bytes.

    Only the soft limit changes, so the old one comes back on exit.  An
    allocation sized by an id value then fails with MemoryError, which
    the CLI reports as exit 2, instead of taking the host's memory.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as statm:
        size = int(statm.read().split()[0]) * resource.getpagesize()
    cap = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@given(text=link_texts(), k=st.sampled_from([1, 2, 2**63 - 1]),
       method=st.sampled_from(METHODS))
@settings(max_examples=150, deadline=None)
def test_cli_exit_codes_on_small_link_files(text, k, method):
    with tempfile.TemporaryDirectory() as tmp, address_space(1 << 30):
        links, sparse, report = (str(Path(tmp, name))
                                 for name in ("link.dat", "sparse.dat", "r.json"))
        Path(links).write_bytes(text.encode())
        flags = ["--k", str(k), "--method", method, "--report", report]
        outcomes = [_run(["sparsify", "--links", links, "--out", sparse, *flags])]
        sparsified = outcomes[0][0] == 0
        if sparsified:
            outcomes.append(_run(["verify", "--links", links, "--sparse", sparse, *flags]))
        outcomes.append(_run(["verify", "--links", links, "--sparse", links, *flags]))
        outcomes.append(_run(["stats", "--links", links, "--report", report]))
    for code, err in outcomes:
        assert code in (0, 1, 2, 3), err
        assert err.count("\n") <= 1, err
    if sparsified:
        assert outcomes[1][0] == 0, outcomes[1][1]


# ids and types where the columnar reader's range check and digit copy
# can break: past int64, past uint64, and 20 digits with leading zeros
EDGE_IDS = ("0", "1", "2", str(2**63 - 1), str(2**63), str(2**64),
            "0" * 19 + "1", "0" * 10 + "1234567890")
WEIGHTS = ("nan", "inf", "1e308", "-0.0", "0.5")
BLANKS = ("", " ", "\t", " \t ")


@st.composite
def dialect_texts(draw) -> tuple[str, list[str]]:
    """A link file and its reading flags: weights, blank and comment lines, delimiters.

    Edges repeat and mostly use small ids, so some files sparsify; a
    comment line is only skipped when the flags name ``#``.
    """
    weighted = draw(st.booleans())
    delimiter = draw(st.sampled_from(["\t", "→"]))
    comment = draw(st.booleans())
    small = st.sampled_from(EDGE_IDS[:3])
    field = st.one_of(small, small, st.sampled_from(EDGE_IDS))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["edge"] * 4 + ["blank", "comment"]))
        if kind == "edge":
            fields = [draw(field) for _ in range(3)]
            if weighted:
                fields.append(draw(st.sampled_from(WEIGHTS)))
            lines.append(delimiter.join(fields))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(BLANKS)))
        else:
            lines.append("# " + draw(st.sampled_from(EDGE_IDS)))
    lines += lines[:draw(st.integers(0, len(lines)))]  # duplicates
    flags = ["--delimiter", delimiter]
    if weighted:
        flags.append("--weighted")
    if comment:
        flags += ["--comment-prefix", "#"]
    return "".join(line + "\n" for line in lines), flags


@given(case=dialect_texts())
@settings(max_examples=200, deadline=None)
def test_cli_exit_codes_on_link_file_dialects(case):
    text, flags = case
    with tempfile.TemporaryDirectory() as tmp, address_space(1 << 30):
        links, sparse = (str(Path(tmp, name)) for name in ("link.dat", "sparse.dat"))
        Path(links).write_bytes(text.encode())
        common = ["--links", links, *flags, "--k", "1"]
        outcomes = [_run(["sparsify", *common, "--out", sparse])]
        sparsified = outcomes[0][0] == 0
        if sparsified:
            outcomes.append(_run(["verify", *common, "--sparse", sparse]))
        outcomes.append(_run(["stats", "--links", links, *flags]))
    for code, err in outcomes:
        assert code in (0, 1, 2, 3), err
        assert err.count("\n") <= 1, err
    if sparsified:
        assert outcomes[1][0] == 0, outcomes[1][1]


@given(text=link_texts(), holdout=st.sampled_from(["0.01", "0.5", "0.99"]),
       k=st.sampled_from([None, 1, 2**63 - 1]), method=st.sampled_from(METHODS),
       scorer=st.sampled_from(SCORERS), per_pos=st.sampled_from([1, 19]),
       seed=st.sampled_from([0, 2**64 - 1]))
@settings(max_examples=150, deadline=None)
def test_cli_exit_codes_on_eval(text, holdout, k, method, scorer, per_pos, seed):
    with tempfile.TemporaryDirectory() as tmp, address_space(1 << 30):
        links, report = (str(Path(tmp, name)) for name in ("link.dat", "r.json"))
        Path(links).write_bytes(text.encode())
        flags = ["--holdout", holdout, "--scorer", scorer, "--seed", str(seed),
                 "--negatives-per-positive", str(per_pos), "--report", report]
        if k is not None:
            flags += ["--k", str(k), "--method", method]
        code, err = _run(["eval", "--links", links, *flags])
    assert code in (0, 1, 2, 3), err
    assert err.count("\n") <= 1, err


# each spec holds at most one kind of fault, and most hold none
FAULTS = (None, None, None, "size", "type", "count", "alpha")


@st.composite
def generate_specs(draw) -> tuple[list[str], str | None]:
    """generate's flags, or a spec file's text and no flags.

    Node type sizes are 1 to 3, counts 1 or the pair count of their
    populations, and alphas 0, 0.5 or 1e308, unless the spec's fault
    makes some sizes 2**63 - 1, an endpoint type undeclared, a count
    above the pair count or 2**63 - 1, or an alpha nan or inf.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    fault = draw(st.sampled_from(FAULTS))
    if fault == "size":  # two or more can wrap an int64 sum
        for i in draw(st.lists(st.integers(0, len(sizes) - 1), min_size=1)):
            sizes[i] = 2**63 - 1
    seed = draw(st.sampled_from([0, 2**64 - 1]))
    edges = []
    for _ in range(draw(st.integers(1, 3))):
        src, dst = (draw(st.integers(0, len(sizes) - 1)) for _ in range(2))
        count = draw(st.sampled_from([1, sizes[src] * sizes[dst]]))
        edges.append([src, dst, count, draw(st.sampled_from(["0", "0.5", "1e308"]))])
    edge = draw(st.sampled_from(edges))
    if fault == "type":
        edge[draw(st.integers(0, 1))] = len(sizes)
    elif fault == "count":
        edge[2] = draw(st.sampled_from([sizes[edge[0]] * sizes[edge[1]] + 1, 2**63 - 1]))
    elif fault == "alpha":
        edge[3] = draw(st.sampled_from(["nan", "inf"]))
    if draw(st.booleans()):
        text = f"node_types = {' '.join(map(str, sizes))}\nseed = {seed}\n"
        text += "".join(f"edges {s} {d} {c} {a}\n" for s, d, c, a in edges)
        return [], text
    flags = ["--node-types", ",".join(map(str, sizes)), "--seed", str(seed)]
    for s, d, c, a in edges:
        flags += ["--edge", f"{s}:{d}:{c}:{a}"]
    return flags, None


@given(case=generate_specs())
@example(case=(["--node-types", f"{2**63 - 1},3,{2**63 - 1}", "--edge", "1:1:1"], None))
@settings(max_examples=100, deadline=None)
def test_cli_exit_codes_on_generate(case):
    flags, spec = case
    with tempfile.TemporaryDirectory() as tmp, address_space(1 << 30):
        out, nodes, report, spec_path = (str(Path(tmp, name)) for name in
                                         ("g.dat", "node.dat", "r.json", "spec.txt"))
        if spec is not None:
            Path(spec_path).write_text(spec)
            flags = ["--spec", spec_path]
        outcomes = [_run(["generate", *flags, "--out", out, "--nodes-out", nodes,
                          "--report", report])]
        generated = outcomes[0][0] == 0
        if generated:
            outcomes.append(_run(["stats", "--links", out, "--nodes", nodes]))
    for code, err in outcomes:
        assert code in (0, 1, 2, 3), err
        assert err.count("\n") <= 1, err
    if generated:
        assert outcomes[1][0] == 0, outcomes[1][1]


# a node file holds at most one fault, and most hold none; a bad id or
# type is past int64 or uint64, empty, signed or non-ASCII
NODE_FAULTS = (None, None, None, "id", "type", "repeat", "missing")
NODE_FIELDS = (str(2**63), str(2**64), "", "-1", "+2", "١", "é")
NAMES = ("", "n1", "7", "é→")
WIDE_BLANKS = ("", " ", "\t\t\t", " \t\u3000\t\t ")


@st.composite
def node_cases(draw) -> tuple[str, str]:
    """A link file over ids 0-2 and a node file of ids 0-2 and 2**63 - 1.

    Names may be empty, a line may have extra columns, and wide blank
    lines fall between the lines.  The fault, if any, puts a value of
    NODE_FIELDS in an id or a type, repeats an id, or drops a link
    endpoint from the table.
    """
    names = st.sampled_from(NAMES)
    types = st.sampled_from(["0", "1", str(2**63 - 1)])
    rows = [[node, draw(names), draw(types), *draw(st.lists(names, max_size=2))]
            for node in ("0", "1", "2", str(2**63 - 1))]
    fault = draw(st.sampled_from(NODE_FAULTS))
    if fault in ("id", "type"):
        rows[draw(st.integers(0, 3))][0 if fault == "id" else 2] = draw(
            st.sampled_from(NODE_FIELDS))
    elif fault == "repeat":
        rows.append([draw(st.sampled_from(rows))[0], draw(names), draw(types)])
    elif fault == "missing":
        del rows[draw(st.integers(0, 2))]
    lines = ["\t".join(row) for row in draw(st.permutations(rows))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(WIDE_BLANKS)))
    edges = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
                          min_size=2, max_size=8))
    return ("".join(f"{s}\t{d}\t{t}\n" for s, d, t in edges),
            "".join(line + "\n" for line in lines))


@given(case=node_cases())
@example(case=("0\t1\t0\n", f"0\tn\t{2**63}\n{2**64}\t\t1\t\tx\n \t\t\t\n1\tn\t0\n"))
@example(case=("0\t1\t0\n", "\tn\t0\n-1\tn\t0\n١\tn\t0\n1\t\t0\n"))
@example(case=("0\t1\t0\n1\t0\t0\n", "0\tn\t0\n1\tn\t1\t\n0\tm\t1\n"))
@example(case=("0\t2\t0\n", "0\t\t0\n1\tn\t0\n"))
@settings(max_examples=150, deadline=None)
def test_cli_exit_codes_with_node_files(case):
    links_text, nodes_text = case
    with tempfile.TemporaryDirectory() as tmp, address_space(1 << 30):
        links, nodes, sparse = (str(Path(tmp, name))
                                for name in ("link.dat", "node.dat", "sparse.dat"))
        Path(links).write_bytes(links_text.encode())
        Path(nodes).write_bytes(nodes_text.encode())
        common = ["--links", links, "--nodes", nodes]
        outcomes = [_run(["sparsify", *common, "--k", "1", "--out", sparse])]
        sparsified = outcomes[0][0] == 0
        if sparsified:
            outcomes.append(_run(["verify", *common, "--k", "1", "--sparse", sparse]))
        outcomes.append(_run(["stats", *common]))
        outcomes.append(_run(["eval", *common, "--holdout", "0.5", "--k", "1"]))
    for code, err in outcomes:
        assert code in (0, 1, 2, 3), err
        warned = [line.startswith("warning:") for line in err.splitlines()]
        assert sum(warned) <= 1 and len(warned) - sum(warned) <= 1, err
    if sparsified:
        assert outcomes[1][0] == 0, outcomes[1][1]


# per flag: the ends of its range, values just inside them, and values
# just past them, which click rejects with exit 1.  nan passes click's
# FloatRange, whose bound checks are false for it.
FLAG_ENDS = {
    "--holdout": ("5e-324", "1e-300", "0.5", "0.9999999999999999", "0", "1", "nan", "-inf"),
    "--negatives-per-positive": ("1", "1000", str(2**31), str(2**63 - 1), str(2**64), "0"),
    "--k": ("1", str(2**31), str(2**63 - 1), str(2**63), "0", "-1"),
    "--seed": ("0", str(2**64 - 1), str(2**64), "-1"),
}
COMMAND_FLAGS = {"sparsify": ("--k", "--seed"), "verify": ("--k",),
                 "eval": ("--holdout", "--negatives-per-positive", "--k", "--seed")}


@st.composite
def flag_cases(draw) -> tuple[str, list[str]]:
    """A command and a value from FLAG_ENDS for each of its flags."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    return command, [part for flag in COMMAND_FLAGS[command]
                     for part in (flag, draw(st.sampled_from(FLAG_ENDS[flag])))]


@given(text=link_texts(), case=flag_cases())
@example(text="0\t1\t0\n1\t0\t0\n", case=("eval", ["--holdout", "nan"]))
@settings(max_examples=150, deadline=None)
def test_cli_exit_codes_with_flags_at_range_ends(text, case):
    command, flags = case
    with tempfile.TemporaryDirectory() as tmp, address_space(1 << 30):
        links, out = (str(Path(tmp, name)) for name in ("link.dat", "out.dat"))
        Path(links).write_bytes(text.encode())
        outputs = {"sparsify": ["--out", out], "verify": ["--sparse", links], "eval": []}
        code, err = _run([command, "--links", links, *outputs[command], *flags])
    assert code in (0, 1, 2, 3), err
    assert err.count("\n") <= 1, err
