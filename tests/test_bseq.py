import itertools

from hypothesis import given, settings, strategies as st

from keyseries.bseq import (
    enum_A,
    enum_A_set,
    format_seq,
    moved_levels,
    si_image,
    split_A,
    w_upper,
)
from keyseries.permutation import Permutation, all_permutations, parse_permutation

W = parse_permutation("42531")


def test_w_upper_golden():
    assert w_upper(W, 2) == (2, 4)
    assert w_upper(W, 3) == (2, 4, 5)
    assert w_upper(Permutation.identity(5), 4) == (1, 2, 3, 4)


def test_enum_A_golden():
    assert [format_seq(a) for a in enum_A(W, 3)] == [
        "123", "124", "125", "134", "135", "145", "234", "235", "245",
    ]
    assert [format_seq(a) for a in enum_A(W, 2)] == ["12", "13", "14", "23", "24"]
    assert w_upper(W, 3) in enum_A(W, 3)
    assert enum_A(W, 5) == ((1, 2, 3, 4, 5),)


def test_enum_A_identity_is_singleton():
    for l in range(1, 5):
        assert enum_A(Permutation.identity(1), l) == (tuple(range(1, l + 1)),)


def test_enum_A_members_bounded_and_sorted():
    for w in all_permutations(4):
        for l in range(1, 5):
            seqs = enum_A(w, l)
            assert list(seqs) == sorted(seqs)
            bound = w_upper(w, l) if l <= w.n else tuple(
                sorted(w(j) for j in range(1, l + 1))
            )
            for a in seqs:
                assert all(x < y for x, y in zip(a, a[1:]))
                assert all(x <= b for x, b in zip(a, bound))


def test_enum_A_stable_under_embedding():
    w = parse_permutation("321")
    wplus = parse_permutation("3214")
    for l in range(1, 4):
        assert enum_A(w, l) == enum_A(wplus, l)


def test_moved_levels():
    assert list(moved_levels(W, 2)) == [2, 3]
    assert list(moved_levels(W, 1)) == []
    assert list(moved_levels(Permutation.identity(3), 2)) == [2]


def test_split_A_golden():
    fixed, moved = split_A(W, 3, 2)
    assert [format_seq(a) for a in moved] == ["245"]
    assert set(fixed) | set(moved) == set(enum_A(W, 3))
    fixed2, moved2 = split_A(W, 2, 2)
    assert [format_seq(a) for a in moved2] == ["24"]


def test_moved_part_nonempty_exactly_on_moved_range():
    for w in all_permutations(4):
        for i in range(1, 4):
            rng = set(moved_levels(w, i))
            for l in range(1, 5):
                _, moved = split_A(w, l, i)
                assert bool(moved) == (l in rng)


def test_level_set_grows_by_moved_images_at_ascent():
    # A_l(s_i w) is the disjoint union of A_l(w) and the images of the moved part
    for w in all_permutations(5):
        for i in range(1, 5):
            if not w.is_ascent(i):
                continue
            sw = w.left_mul_s(i)
            for l in range(1, 6):
                old = enum_A_set(w, l)
                _, moved = split_A(w, l, i)
                images = {si_image(i, a) for a in moved}
                assert not images & old
                assert enum_A_set(sw, l) == old | images


def test_fixed_part_closed_under_si_image():
    for w in all_permutations(4):
        for i in range(1, 4):
            for l in range(1, 5):
                fixed, _ = split_A(w, l, i)
                members = enum_A_set(w, l)
                for a in fixed:
                    assert si_image(i, a) in members


def test_size_depends_only_on_upper_bound():
    sizes = {}
    for w in all_permutations(4):
        for l in range(1, 5):
            key = w_upper(w, l)
            size = len(enum_A(w, l))
            assert sizes.setdefault(key, size) == size


def test_si_image():
    assert si_image(2, (2, 4, 5)) == (3, 4, 5)
    assert si_image(2, (1, 2, 3)) == (1, 2, 3)
    assert si_image(4, (1, 2, 5)) == (1, 2, 4)


def test_parse_format_roundtrip():
    assert format_seq((2, 4, 5)) == "245"
    assert format_seq((2, 4, 11)) == "2,4,11"
    assert format_seq((9,)) == "9" and format_seq((10,)) == "10"
    assert format_seq(()) == ""


@given(st.permutations(range(1, 6)).map(Permutation), st.integers(1, 5))
@settings(max_examples=60)
def test_enum_A_against_bruteforce(w, l):
    bound = sorted(w(j) for j in range(1, l + 1))
    brute = {
        a
        for a in itertools.combinations(range(1, bound[-1] + 1), l)
        if all(x <= b for x, b in zip(a, bound))
    }
    assert set(enum_A(w, l)) == brute
