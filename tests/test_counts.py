import difflib
from pathlib import Path

import counts


def test_counts_match_the_committed_table(capsys):
    # every count of one objective or step per configuration, against
    # tests/counts.txt; a change that moves counts on purpose regenerates
    # the file (see tests/counts.py) and its diff is the review
    counts.main()
    got = capsys.readouterr().out.splitlines()
    want = (Path(__file__).parent / "counts.txt").read_text().splitlines()
    diff = difflib.unified_diff(want, got, "tests/counts.txt", "tests/counts.py", n=0, lineterm="")
    assert got == want, "\n".join(diff)


def test_every_op_node_is_reached():
    # an op node the loss never reaches costs its forward and records
    # nothing the backward uses: every tape node is a parameter or reached
    table = {}
    for line in (Path(__file__).parent / "counts.txt").read_text().splitlines():
        *label, counter, value = line.split()
        table.setdefault(" ".join(label), {})[counter] = int(value)
    assert len(table) == 34
    for label, c in table.items():
        if not label.endswith(" evaluate"):     # an evaluation records no tape
            assert c["nodes"] == c.get("nodes.param", 0) + c["reached"], label
