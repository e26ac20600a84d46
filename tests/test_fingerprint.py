import fingerprint


def test_fingerprint_prints_one_distinct_line_per_configuration(capsys):
    # every kind on cubic-toy (11), every kind but blr on criterion 14's data
    # (10), and bnn-gi under prior: scale on both (2)
    fingerprint.main()
    lines = capsys.readouterr().out.splitlines()
    digests = [line.split(" ", 1)[0] for line in lines]
    assert len(lines) == 23
    assert len(set(digests)) == 23 and all(len(d) == 64 for d in digests)
    assert len({line.split(" ", 1)[1] for line in lines}) == 23
