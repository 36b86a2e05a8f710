"""Property tests of the CLI: small link files through sparsify, verify, stats and eval.

Every input maps to a documented exit code with at most one line on
stderr, never to exit 4, and a sparsify output that the command accepted
passes verify.  In the first and third properties, ids and types come
from the values where int32, int63 and int64 handling can break: 0,
2**31, 2**62 and 2**63 - 1.  The second draws the file dialects the
reader accepts or rejects: ids past int64 and uint64, weights, blank and
comment lines and a non-ASCII delimiter.  The third runs eval with its
flags at the ends of their ranges.
"""

import contextlib
import io
import resource
import tempfile
from pathlib import Path

from hypothesis import given, settings
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
    the CLI reports as exit 4, instead of taking the host's memory.
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
