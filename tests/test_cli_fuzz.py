"""Property test of the CLI: small link files through sparsify, verify and stats.

Every input maps to a documented exit code with at most one line on
stderr, never to exit 4, and a sparsify output that the command accepted
passes verify.  Ids and types come from the values where int32, int63
and int64 handling can break: 0, 2**31, 2**62 and 2**63 - 1.
"""

import contextlib
import io
import resource
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hgsparse import METHODS
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
