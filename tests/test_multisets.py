import itertools

import pytest
from hypothesis import given, settings, strategies as st

import keyseries
from keyseries import multisets
from keyseries.bseq import enum_A, format_seq, w_upper
from keyseries.config import InvariantError, ResourceCapError
from keyseries.multisets import (
    enum_B,
    enum_Btilde,
    enum_C,
    enum_Ctilde,
    eta_minus,
    eta_parts,
    extremal_presentation,
    presentations,
    presentations_direct,
    restricted_A,
    restricted_max,
    sum_seqs,
)
from keyseries.permutation import Permutation, all_permutations, parse_permutation

W = parse_permutation("42531")


def _ms(digits):
    """The multiset written as single digits, e.g. "11234", as a sorted tuple."""
    return tuple(sorted(map(int, digits)))


B23 = [_ms(s) for s in (
    "11234 11235 11245 11345 12234 12235 12245 "
    "12334 12335 12344 12345 12445 22345".split()
)]
B23_EXTRA = [_ms(s) for s in (
    "11223 11224 11225 11233 11244 11334 11335 11344 "
    "11445 12233 12244 22334 22335 22344 22445".split()
)]


def test_sum_and_parts():
    assert sum_seqs((1, 2), (1, 3, 4)) == (1, 1, 2, 3, 4)
    assert sum_seqs((2, 3, 5), (1, 4)) == (1, 2, 3, 4, 5)
    assert sum_seqs((1, 3), (1, 3, 4)) == (1, 1, 3, 3, 4)
    eta1, eta2 = eta_parts((1, 1, 3, 3, 4))
    assert eta1 == (4,) and eta2 == (1, 3)
    assert eta_parts((1, 2, 3)) == ((1, 2, 3), ())


def test_eta_minus():
    assert eta_minus((1, 1, 2, 3, 4), (1, 2, 4)) == (1, 3)
    assert eta_minus((1, 1, 2, 3, 4), (1, 3, 4)) == (1, 2)


def test_parse_format_roundtrip():
    # multisets print with the sequence formatter, repeats kept
    assert format_seq(_ms("11234")) == "11234"
    assert format_seq((2, 11)) == "2,11"
    assert format_seq((9, 9, 10)) == "9,9,10"


def test_B23_golden():
    assert list(enum_B(W, 2, 3)) == sorted(B23)
    assert list(enum_Btilde(W, 2, 3)) == sorted(B23 + B23_EXTRA)


def test_Btilde_identity_and_w0():
    ident = Permutation.identity(3)
    assert enum_Btilde(ident, 2, 3) == (sum_seqs((1, 2), (1, 2, 3)),)
    w0 = parse_permutation("321")
    assert enum_Btilde(w0, 1, 1) == (
        (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
    )


def test_membership_golden():
    members = enum_B(W, 2, 3)
    assert _ms("11234") in members
    assert _ms("12345") in members
    assert _ms("22345") in members
    assert _ms("11334") not in members


def test_presentations_golden():
    ps = presentations(W, 2, 3, _ms("12345"))
    assert ps.pairs == (
        ((1, 3, 5), (2, 4)),
        ((1, 4, 5), (2, 3)),
        ((2, 3, 5), (1, 4)),
        ((2, 4, 5), (1, 3)),
    )
    ps = presentations(W, 2, 3, _ms("11234"))
    assert ps.pairs == (
        ((1, 2, 3), (1, 4)),
        ((1, 2, 4), (1, 3)),
        ((1, 3, 4), (1, 2)),
    )
    ps = presentations(W, 2, 3, _ms("11334"))
    assert ps.pairs == (((1, 3, 4), (1, 3)),)


def test_restricted_sets_golden():
    assert restricted_A(W, 2, _ms("11234")) == ((1, 2), (1, 3), (1, 4))
    assert len(restricted_A(W, 3, _ms("12345"))) == 9
    assert restricted_max(W, 3, _ms("12345")) == (2, 4, 5)
    assert restricted_max(W, 2, _ms("45")) is None


def test_extremal_golden():
    ext = extremal_presentation(W, 2, 3, _ms("12345"))
    assert (ext.alpha_max, ext.beta_min) == ((2, 4, 5), (1, 3))
    assert (ext.beta_max, ext.alpha_min) == ((2, 4), (1, 3, 5))
    assert ext.in_Btilde
    gone = extremal_presentation(W, 2, 3, _ms("33445"))
    assert gone is None or not gone.in_Btilde


def test_extremal_invariants_raise(monkeypatch):
    # Both are structural facts, so a violation is an InvariantError, not an assert.
    eta = _ms("12345")
    real = multisets.enum_A_set
    monkeypatch.setattr(multisets, "enum_A_set",
                        lambda w, m: frozenset() if m == 3 else real(w, m))
    with pytest.raises(InvariantError, match="complement membership"):
        extremal_presentation(W, 2, 3, eta)
    monkeypatch.setattr(multisets, "restricted_A", lambda w, m, eta: ((1, 4), (2, 3)))
    with pytest.raises(InvariantError, match="no entrywise maximum"):
        restricted_max(W, 2, eta)


def test_extremal_containments():
    # beta_max inside alpha_max; the two extremal betas overlap exactly in eta2
    for w in all_permutations(4):
        for k in range(1, 4):
            for l in range(k, 4):
                for eta in enum_Btilde(w, k, l):
                    ext = extremal_presentation(w, k, l, eta)
                    assert ext is not None and ext.in_Btilde
                    assert set(ext.beta_max) <= set(ext.alpha_max)
                    _, eta2 = eta_parts(eta)
                    assert tuple(
                        sorted(set(ext.beta_min) & set(ext.beta_max))
                    ) == eta2


def test_doubled_part_lies_in_both_summands():
    for w in all_permutations(4):
        for k in range(1, 4):
            for l in range(k, 4):
                for eta in enum_Btilde(w, k, l):
                    _, eta2 = eta_parts(eta)
                    for alpha, beta in presentations(w, k, l, eta).pairs:
                        assert set(eta2) <= set(alpha) & set(beta)


def test_size_bound_on_doubled_part():
    for w in all_permutations(4):
        for k in range(1, 4):
            for l in range(k, 4):
                for eta in enum_B(w, k, l):
                    _, eta2 = eta_parts(eta)
                    assert len(eta2) < k - (1 if k == l else 0)
                    assert len(eta) == k + l


def test_B11_is_always_empty():
    for w in all_permutations(4):
        assert enum_B(w, 1, 1) == ()


def _strata(n):
    return [(k, l) for k in range(1, n + 1) for l in range(k, n + 1)]


def _presentation_agreement(n):
    for w in all_permutations(n):
        for k, l in _strata(n):
            for eta in enum_Btilde(w, k, l):
                fast = presentations(w, k, l, eta)
                slow = presentations_direct(w, k, l, eta)
                assert fast.pairs == slow.pairs
                assert fast.count >= 1
                for alpha, beta in fast.pairs:
                    assert sum_seqs(alpha, beta) == eta


def _membership_agreement(n):
    for w in all_permutations(n):
        for k, l in _strata(n):
            members = set(enum_B(w, k, l))
            for eta in enum_Btilde(w, k, l):
                direct = len(presentations_direct(w, k, l, eta).pairs) >= 2
                assert (eta in members) == direct


def test_presentation_oracle_agreement_s4():
    _presentation_agreement(4)


def test_membership_oracle_agreement_s4():
    _membership_agreement(4)


@pytest.mark.slow
def test_presentation_oracle_agreement_s5():
    _presentation_agreement(5)


@pytest.mark.slow
def test_membership_oracle_agreement_s5():
    _membership_agreement(5)


def test_nonempty_presentations_iff_in_Btilde():
    for w in all_permutations(4):
        for k, l in _strata(4):
            for eta in enum_Btilde(w, k, l):
                assert presentations(w, k, l, eta).count >= 1
            top = max(v for eta in enum_Btilde(w, k, l) for v in eta)
            outside = tuple(range(top + 1, top + 1 + k + l))
            assert presentations(w, k, l, outside).count == 0


def test_C_golden_31425():
    got = enum_C(parse_permutation("31425"), 1, 2, 3)
    assert [format_seq(t) for t in got] == ["112234", "112334"]


def test_C_golden_4123():
    got = enum_C(parse_permutation("4123"), 1, 2, 3)
    assert _ms("112234") in got
    assert _ms("112344") in got


def test_C_subset_of_Ctilde():
    for w in all_permutations(4):
        for p in range(1, 4):
            for k in range(p, 4):
                for l in range(k, 4):
                    cset = set(enum_C(w, p, k, l))
                    ctilde = set(enum_Ctilde(w, p, k, l))
                    assert cset <= ctilde
                    for tau in ctilde:
                        assert len(tau) == p + k + l
                        assert max(
                            sum(1 for v in tau if v == u) for u in tau
                        ) <= 3


def _C_by_triples(w, p, k, l):
    # Every triple (alpha, beta, gamma) at levels (l, k, p); tau is kept when
    # each of its three partial sums lands in the matching B for some triple.
    b_kl = set(enum_B(w, k, l))
    b_pl = set(enum_B(w, p, l))
    b_pk = set(enum_B(w, p, k))
    flags = {}
    for alpha in enum_A(w, l):
        for beta in enum_A(w, k):
            for gamma in enum_A(w, p):
                f = flags.setdefault(sum_seqs(alpha, beta, gamma), [False] * 3)
                f[0] |= sum_seqs(alpha, beta) in b_kl
                f[1] |= sum_seqs(alpha, gamma) in b_pl
                f[2] |= sum_seqs(beta, gamma) in b_pk
    return tuple(sorted(tau for tau, f in flags.items() if all(f)))


def test_enum_C_matches_triple_enumeration():
    # The second call of each stratum is answered from the memo table.
    keyseries.clear_caches()
    for n in (4, 5):
        levels = list(itertools.combinations_with_replacement(range(1, n + 1), 3))
        for w in all_permutations(n):
            for p, k, l in levels:
                expected = _C_by_triples(w, p, k, l)
                assert enum_C(w, p, k, l) == expected, (w.one_line(), p, k, l)
                assert enum_C(w, p, k, l) == expected, (w.one_line(), p, k, l)


def _sums_by_definition(w, n):
    """B-tilde, B and C of w at every level choice up to n + 1 by their
    definitions, with tuple sums (sum_seqs) and eta_parts; memoised on the
    bounds of the levels, through which alone the sets depend on w."""
    levels = range(1, n + 2)
    bound = {m: w_upper(w, m) for m in levels}
    btilde, b = {}, {}
    for k, l in itertools.combinations_with_replacement(levels, 2):
        key = (bound[k], bound[l])
        if key not in btilde:
            btilde[key] = tuple(sorted({
                sum_seqs(alpha, beta) for alpha in enum_A(w, l) for beta in enum_A(w, k)
            }))
            cap = k - (1 if k == l else 0)
            b[key] = tuple(eta for eta in btilde[key] if len(eta_parts(eta)[1]) < cap)
    c = {}
    for p, k, l in itertools.combinations_with_replacement(levels, 3):
        key = (bound[p], bound[k], bound[l])
        if key not in c:
            sums = [
                {sum_seqs(eta, gamma) for eta in b[(bound[x], bound[y])] for gamma in enum_A(w, z)}
                for x, y, z in ((k, l, p), (p, l, k), (p, k, l))
            ]
            c[key] = tuple(sorted(set.intersection(*sums)))
    return bound, btilde, b, c


@pytest.mark.parametrize("n", [4, 5])
def test_packed_sums_match_tuple_sums(n):
    # Every level choice, including one past n where values are fixed points.
    keyseries.clear_caches()
    for w in all_permutations(n):
        bound, btilde, b, c = _sums_by_definition(w, n)
        for k, l in itertools.combinations_with_replacement(range(1, n + 2), 2):
            key = (bound[k], bound[l])
            assert enum_Btilde(w, k, l) == btilde[key], (w.one_line(), k, l)
            assert enum_B(w, k, l) == b[key], (w.one_line(), k, l)
        for p, k, l in itertools.combinations_with_replacement(range(1, n + 2), 3):
            assert enum_C(w, p, k, l) == c[(bound[p], bound[k], bound[l])], (
                w.one_line(), p, k, l)


def test_sums_past_x9_are_resource_errors():
    # A level past 9 brings in the value 10, which no packed key can hold.
    for enum in (enum_Btilde, enum_B):
        with pytest.raises(ResourceCapError, match="x10"):
            enum(W, 2, 10)
    with pytest.raises(ResourceCapError, match="x10"):
        enum_C(W, 1, 2, 10)


def test_level_ordering_enforced():
    with pytest.raises(ValueError):
        enum_C(W, 2, 1, 3)
    with pytest.raises(ValueError):
        enum_Ctilde(W, 1, 3, 2)
    with pytest.raises(ValueError):
        presentations_direct(W, 2, 3, (1, 2, 3))


perm5 = st.permutations(range(1, 6)).map(Permutation)


@given(perm5, st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_swap_lemmas_on_random_strata(w, k, data):
    # eta with both presentations containing the doubled part behaves per the
    # extremal interval: every beta between beta_min and beta_max works
    l = data.draw(st.integers(k, 5))
    etas = enum_Btilde(w, k, l)
    eta = data.draw(st.sampled_from(etas))
    ps = presentations(w, k, l, eta)
    ext = extremal_presentation(w, k, l, eta)
    betas = {beta for _, beta in ps.pairs} | {alpha for alpha, _ in ps.pairs if k == l}
    assert ext is not None
    for beta in betas:
        assert all(a <= b <= c for a, b, c in zip(ext.beta_min, beta, ext.beta_max))
