import fingerprint


def _lines(capsys, argv=()):
    fingerprint.main(argv)
    return capsys.readouterr().out.splitlines()


def test_fingerprint_prints_one_distinct_line_per_configuration(capsys):
    # every kind on cubic-toy (11), every kind but blr on criterion 14's data
    # (10), and bnn-gi under prior: scale on both (2)
    lines = _lines(capsys)
    digests = [line.split(" ", 1)[0] for line in lines]
    assert len(lines) == 23
    assert len(set(digests)) == 23 and all(len(d) == 64 for d in digests)
    assert len({line.split(" ", 1)[1] for line in lines}) == 23


def test_fingerprint_values_prints_one_distinct_line_per_configuration_without_gradients(capsys):
    # the same 23 configurations, each hashed without its gradients
    lines = _lines(capsys, ("--values",))
    digests = [line.split(" ", 1)[0] for line in lines]
    assert len(lines) == 23
    assert len(set(digests)) == 23 and all(len(d) == 64 for d in digests)
    full = _lines(capsys)
    assert [line.split(" ", 1)[1] for line in full] == [line.split(" ", 1)[1] for line in lines]
    assert not {line.split(" ", 1)[0] for line in full} & set(digests)
