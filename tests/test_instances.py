import random

import pytest

from cellform.instances import (
    FormatError,
    Instance,
    load_instance,
    parse_instance,
    validate_instance,
    write_instance,
)

from helpers import random_instance


GOOD = """\
# name: tiny
# a comment line
2 3
1 0 1
0 1 0
"""


def test_parse_basic():
    inst = parse_instance(GOOD)
    assert inst.name == "tiny"
    assert (inst.m, inst.p) == (2, 3)
    assert inst.a == ((1, 0, 1), (0, 1, 0))
    assert inst.n1 == 3


def test_name_comment_beats_argument():
    assert parse_instance(GOOD, name="other").name == "tiny"
    assert parse_instance("1 1\n1\n", name="other").name == "other"


def test_blank_lines_and_comments_ignored():
    inst = parse_instance("\n# x\n2 2\n\n1 1\n# mid\n0 1\n\n")
    assert inst.a == ((1, 1), (0, 1))


@pytest.mark.parametrize("text,line", [
    ("2 3\n1 0 1\n0 1\n", 3),          # short row
    ("2 3\n1 0 1 1\n0 1 0\n", 2),      # long row
    ("2 3\n1 0 2\n0 1 0\n", 2),        # non-binary value
    ("x y\n", 1),                      # bad header
    ("2\n", 1),                        # header arity
    ("0 3\n", 1),                      # zero dimension
    ("2 2\n1 1\n0 1\n1 0\n", 4),       # too many rows
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert err.value.line == line
    assert f"line {line}" in str(err.value)


def test_parse_errors_without_line():
    with pytest.raises(FormatError) as err:
        parse_instance("# only comments\n")
    assert err.value.line is None
    with pytest.raises(FormatError):
        parse_instance("2 3\n1 0 1\n")  # missing last row


def test_instance_constructor_checks_shape():
    with pytest.raises(ValueError):
        Instance(name="", m=2, p=2, a=((1, 0),))
    with pytest.raises(ValueError):
        Instance(name="", m=1, p=2, a=((1, 2),))


def test_write_then_parse_round_trip():
    rng = random.Random(3)
    for _ in range(40):
        inst = random_instance(rng, rng.randrange(1, 7), rng.randrange(1, 7),
                               rng.choice((0.2, 0.5, 0.8)), name="rt")
        text = write_instance(inst)
        again = parse_instance(text)
        assert again == inst
        # second render is byte-identical
        assert write_instance(again) == text


def test_write_minimal():
    assert write_instance(Instance("", 1, 1, ((0,),))) == "1 1\n0\n"


def test_load_uses_stem_as_fallback_name(tmp_path):
    f = tmp_path / "widget.cfp"
    f.write_text("1 2\n1 0\n")
    assert load_instance(f).name == "widget"
    f.write_text("# name: override\n1 2\n1 0\n")
    assert load_instance(f).name == "override"


def test_validation_flags_empty_rows_and_columns():
    inst = parse_instance("3 3\n1 0 0\n0 0 0\n1 0 1\n")
    rep = validate_instance(inst)
    assert rep.zero_rows == [2]
    assert rep.zero_cols == [2]
    assert any("machine 2" in w for w in rep.warnings)
    assert any("part 2" in w for w in rep.warnings)
    assert rep.n1 == 3
    assert str(rep.density) == "3/9"


def test_validation_clean_matrix_has_no_warnings(ref_instance):
    rep = validate_instance(ref_instance)
    assert not rep.warnings
    assert rep.n1 == 20
    assert str(rep.density) == "20/35"
