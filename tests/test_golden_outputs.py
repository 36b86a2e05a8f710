"""Golden digests of every file and ``--deterministic`` report the commands write.

Each command runs once on small fixed inputs, and the sha256 of each
output is pinned.  A refactor that leaves these digests alone has left
the bytes users see alone; a deliberate output change re-pins them in
its own commit.
"""

import hashlib

import pytest

from hgsparse.cli import run

# 15 nodes with sparse ids, three edge types, a weight on every line, the
# rows out of canonical order and one repeated identity
LINKS = "".join(f"{7 * ((3 * u + 1 + j) % 15) + 2}\t{7 * u + 2}\t{(u + j) % 3}\t{0.25 * (u + j)}\n"
                for u in reversed(range(15)) for j in range(7)) + "9\t2\t0\t3.5\n"
# the table declares one node that no edge touches
NODES = "".join(f"{7 * u + 2}\tn{u}\t{u % 3}\n" for u in range(16))
SPEC = "node_types = 12 8\nseed = 5\nedges 0 1 30 0.5\nedges 1 0 20 0.0\n"

GOLDEN = {
    "sparsify-per-type.out":
        "c0505bba792430fecedf5a6b5f75fbec35aafc3bcafe19a229f6bd35742c0e6a",
    "sparsify-per-type.json":
        "e96f36a86bc1ce4c825b1bdbd24603db9091f10512d570fd16c5cf7e10d78af3",
    "sparsify-all-types.out":
        "56228721cc73819ed083556ede7b4ce05067675a12a122fcb69c89d0ea8c88fd",
    "sparsify-all-types.json":
        "8acc0dc32636eae68f03ac51655eb6c73c10d61f9f75c0e8697fd33832b6a0d6",
    "verify-pass.json":
        "ec47cd0f3a242c361587827f3679b800a430db3da44a48855dae49d3e6847e98",
    "verify-fail.json":
        "176c437adcbef5312457b9c82ca9ac4016d64601fd24062c68c2707babc555b6",
    "stats.json":
        "90ba04a3fd7e4db56c5f1b5aef9fc04f791ba34b37f0eede7de104fa73a0130e",
    "stats-nodes.json":
        "802acfac4099cdeb2c8d09b0c47275f21dff39edf9fcbccd6bcda9a53a89e816",
    "generate-spec.out":
        "df62a8bf81c7da970727a441edeb1aae0e176948e5014dccec9153fe03822e44",
    "generate-spec.nodes":
        "0d25efaa2b5993bf01e901ddec87ed2e07175edc0cada93f3cefb3451308de8c",
    "generate-spec.json":
        "dfa5cc254126ca53435b7faed5b127cb8f0a9bfd4d75d48532939b9410fb0aab",
    "generate-flags.out":
        "ac581b79b5adabd136e47eb8a9334c01929d6544681f6773b44677c0a1bfb4c7",
    "generate-flags.nodes":
        "5fc7e6c4f1db23013de6a81604e439ee678badc3904b1a6ed6eb0aa0d7cfecdf",
    "generate-flags.json":
        "8261d41190d22284752fd7ea428c3a12fa657c9e595ba24d42506c0fce405871",
    "eval-full.json":
        "5d7fb874f006be301239955b9300b924bb7e99fb78a28085b84a39f2d11e3cf7",
    "eval-k.json":
        "68b62e720da5a4f1a599859ff0b71e072aa8721d6f64244ff2db562c487cdde6",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every output the commands below write, by name."""
    d = tmp_path_factory.mktemp("golden")
    links, nodes, spec = d / "link.dat", d / "node.dat", d / "g.spec"
    links.write_text(LINKS)
    nodes.write_text(NODES)
    spec.write_text(SPEC)
    graph = ["--links", str(links), "--nodes", str(nodes)]
    runs = []
    for method in ("per-type", "all-types"):
        name = f"sparsify-{method}"
        runs.append((["sparsify", *graph, "--k", "2", "--method", method, "--seed", "9",
                      "--out", str(d / f"{name}.out"), "--report", str(d / f"{name}.json")], 0))
    runs += [
        (["verify", *graph, "--sparse", str(d / "sparsify-per-type.out"), "--k", "2",
          "--report", str(d / "verify-pass.json")], 0),
        # all-types at k=2 leaves some buckets under per-type's floor at k=3
        (["verify", *graph, "--sparse", str(d / "sparsify-all-types.out"), "--k", "3",
          "--report", str(d / "verify-fail.json")], 3),
        (["stats", "--links", str(links), "--report", str(d / "stats.json")], 0),
        (["stats", *graph, "--report", str(d / "stats-nodes.json")], 0),
        (["generate", "--spec", str(spec), "--out", str(d / "generate-spec.out"),
          "--nodes-out", str(d / "generate-spec.nodes"),
          "--report", str(d / "generate-spec.json")], 0),
        (["generate", "--node-types", "20,10", "--edge", "0:1:40:1.0", "--edge", "1:0:30",
          "--seed", "3", "--out", str(d / "generate-flags.out"),
          "--nodes-out", str(d / "generate-flags.nodes"),
          "--report", str(d / "generate-flags.json")], 0),
        (["eval", *graph, "--holdout", "0.3", "--seed", "4", "--negatives-per-positive", "3",
          "--report", str(d / "eval-full.json")], 0),
        (["eval", *graph, "--holdout", "0.3", "--seed", "4", "--negatives-per-positive", "3",
          "--k", "1", "--method", "all-types", "--report", str(d / "eval-k.json")], 0),
    ]
    for argv, code in runs:
        assert run([*argv, "--deterministic"]) == code, argv
    return {name: (d / name).read_bytes() for name in GOLDEN}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == GOLDEN[name]
