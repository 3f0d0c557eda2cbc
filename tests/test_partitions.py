from cellform.partitions import iter_set_partitions

BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877}


def test_counts_match_bell_numbers():
    for n in range(1, 8):
        assert sum(1 for _ in iter_set_partitions(n)) == BELL[n]


def test_strings_are_restricted_growth():
    for labels in iter_set_partitions(6):
        assert labels[0] == 0
        top = 0
        for lab in labels:
            assert 0 <= lab <= top + 1
            top = max(top, lab)


def test_enumeration_has_no_duplicates():
    seen = set(tuple(x) for x in iter_set_partitions(6))
    assert len(seen) == BELL[6]


def test_lexicographic_order():
    got = [tuple(x) for x in iter_set_partitions(3)]
    assert got == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]

