import pytest

from piclass.catalog import (
    build,
    census_specs,
    cyclic,
    dihedral,
    parse_group_file,
    parse_name,
    product,
    quaternion,
    serialize_group_file,
)
from piclass.classes import conjugacy_classes
from piclass.config import Config
from piclass.errors import CapExceededError, GroupFileError


def test_family_orders_closed_form():
    for spec in census_specs():
        g = build(spec)
        assert (g.order, g.degree) == (spec.order, spec.degree)


def test_dihedral_of_order_8_class_count():
    d8 = build(dihedral(8))
    assert d8.order == 8
    assert conjugacy_classes(d8).k == 5


def test_product_is_disjoint_union_action(named):
    g = named("D8 x C3")
    assert g.degree == 4 + 3
    assert g.order == 24


def test_trivial_cyclic():
    assert build(cyclic(1)).order == 1


def test_build_degree_cap():
    with pytest.raises(CapExceededError):
        build(cyclic(200))
    with pytest.raises(CapExceededError):
        build(cyclic(100), max_degree=64)
    with pytest.raises(CapExceededError, match="^degree: needs 8, cap is 7$"):
        build(quaternion(), max_degree=7)
    with pytest.raises(CapExceededError, match="^degree: needs 7, cap is 6$"):
        build(product(dihedral(8), cyclic(3)), max_degree=6)


def test_quaternion_regular_representation(named):
    q8 = named("Q8")
    assert q8.degree == 8
    assert q8.order == 8
    table = conjugacy_classes(q8)
    assert table.k == 5
    assert sorted(table.sizes()) == [1, 1, 2, 2, 2]
    # exactly one involution (the central -1)
    assert sum(1 for e in q8.element_list() if e.order() == 2) == 1


def test_parse_name_variants():
    assert parse_name("S4").name == "S4"
    assert parse_name("D8 x C3").name == "D8 x C3"
    assert parse_name("D8xC3").name == "D8 x C3"
    with pytest.raises(ValueError):
        parse_name("E8")


def test_group_file_simple():
    g = parse_group_file("degree 3\n(0 1 2)\n")
    assert g.order == 3


def test_group_file_comments_and_blanks():
    text = "# a comment\n\ndegree 4\n\n(0 1)\n# another\n(0 1 2 3)\n"
    assert parse_group_file(text).order == 24


def test_group_file_point_out_of_range():
    with pytest.raises(GroupFileError) as err:
        parse_group_file("degree 4\n(0 5)\n")
    assert "line 2" in str(err.value)
    assert "out of range" in str(err.value)


def test_group_file_duplicate_point():
    with pytest.raises(GroupFileError):
        parse_group_file("degree 4\n(0 1)(1 2)\n")


def test_group_file_missing_header():
    with pytest.raises(GroupFileError):
        parse_group_file("(0 1 2)\n")


def test_group_file_degree_cap():
    with pytest.raises(CapExceededError):
        parse_group_file("degree 4\n(0 1)\n", max_degree=3)


def test_round_trip_over_census(census_entries):
    for name, g in census_entries[:40]:
        text = serialize_group_file(g)
        reparsed = parse_group_file(text)
        assert reparsed.generators == g.generators
        assert serialize_group_file(reparsed) == text


def test_census_contains_required_groups(census_entries):
    names = [name for name, _ in census_entries]
    for want in ["S3", "S4", "A4", "A5", "D8", "Q8", "D8 x C3", "A5 x C3"]:
        assert want in names


def test_census_order_cap():
    names = [s.name for s in census_specs(Config(max_order=100))]
    assert "A5 x C3" not in names
    assert "A5" in names


def test_census_is_deterministic():
    first = [s.name for s in census_specs()]
    second = [s.name for s in census_specs()]
    assert first == second
    assert len(first) == len(set(first))


def test_census_groups_under_order_cap(census_entries):
    assert all(g.order <= 2000 for _, g in census_entries)


def test_class_count_multiplicative_on_products(named):
    for a_name, b_name in [("D8", "C3"), ("S3", "S3"), ("Q8", "C5"), ("A4", "C2")]:
        a, b = named(a_name), named(b_name)
        prod = build(product(parse_name(a_name), parse_name(b_name)))
        assert conjugacy_classes(prod).k == conjugacy_classes(a).k * conjugacy_classes(b).k
