import pytest
from hypothesis import given, strategies as st

import oracles
from alglen import bounds, identities, spans
from alglen.canonical import canonical_flex_form
from alglen.errors import DomainError
from alglen.words import word_length


def test_alt_min_dim_table():
    assert [bounds.alt_min_dim(n) for n in range(2, 11)] \
        == [2, 5, 10, 19, 36, 69, 134, 263, 520]
    with pytest.raises(DomainError):
        bounds.alt_min_dim(1)


def test_flex_min_dim_table():
    # piecewise: n, then 2n-1, then 3*2^(n-4) + n - 3
    assert [bounds.flex_min_dim(n) for n in range(1, 9)] \
        == [1, 2, 5, 7, 9, 15, 28, 53]
    assert bounds.flex_min_dim(6) == 15
    with pytest.raises(DomainError):
        bounds.flex_min_dim(0)


def test_alt_max_length_values():
    assert [bounds.alt_max_length(d) for d in (3, 4, 8, 9, 16)] == [2, 2, 3, 4, 4]
    with pytest.raises(DomainError):
        bounds.alt_max_length(2)


def test_flex_max_length_values():
    assert bounds.flex_max_length(3) == 2
    assert bounds.flex_max_length(5) == 3
    assert bounds.flex_max_length(10) == 5
    assert bounds.flex_max_length(11) == 5  # least n with 3*2^(n-3) >= 11
    assert bounds.flex_max_length(12) == 5
    assert bounds.flex_max_length(13) == 6
    with pytest.raises(DomainError):
        bounds.flex_max_length(2)


def test_strong_forms_tighter():
    # the piecewise dimension bound beats the convenient logarithmic cap
    assert bounds.flex_max_length_strong(13) == 5 < bounds.flex_max_length(13)
    assert bounds.flex_max_length_strong(15) == 6 == bounds.flex_max_length(15)
    assert oracles.alt_max_length_strong(5) == 3
    for d in range(3, 200):
        assert bounds.flex_max_length_strong(d) <= bounds.flex_max_length(d)
        assert oracles.alt_max_length_strong(d) <= bounds.alt_max_length(d) + 1


def test_quick_set_bounds():
    assert bounds.quick_set_bounds(2, "alt") == 4
    assert bounds.quick_set_bounds(2, "flex") == 5
    assert bounds.quick_set_bounds(0, "alt") == 0
    assert bounds.quick_set_bounds(0, "flex") == 0
    with pytest.raises(DomainError):
        bounds.quick_set_bounds(-1, "alt")


def test_alt_word_dim_bound():
    assert oracles.alt_word_dim_bound(3, 1) == 5
    assert oracles.alt_word_dim_bound(4, 2) == 11
    assert oracles.alt_word_dim_bound(2, 1) == 2
    with pytest.raises(DomainError):
        oracles.alt_word_dim_bound(3, 3)


def test_monotonicity():
    for n in range(2, 20):
        assert bounds.alt_min_dim(n + 1) > bounds.alt_min_dim(n)
    for n in range(1, 20):
        assert bounds.flex_min_dim(n + 1) > bounds.flex_min_dim(n)


@given(st.integers(min_value=3, max_value=10**6))
def test_alt_max_length_is_ceil_log2(d):
    n = bounds.alt_max_length(d)
    assert 2**n >= d and 2 ** (n - 1) < d


@given(st.integers(min_value=11, max_value=10**6))
def test_flex_max_length_is_integer_log_form(d):
    n = bounds.flex_max_length(d)
    assert 3 * 2 ** (n - 3) >= d and 3 * 2 ** (n - 4) < d


@given(st.integers(min_value=2, max_value=10**6))
def test_contrapositive_consistency(d):
    # lengths admitted by the strong inverse always satisfy the dimension bound
    n = oracles.alt_max_length_strong(d)
    if n >= 2:
        assert bounds.alt_min_dim(n) <= d
    assert bounds.alt_min_dim(n + 1) > d if n + 1 >= 2 else True


def test_audit_on_aflex_gf2(aflex_gf2):
    report = identities.classify(aflex_gf2)
    gens = [aflex_gf2.basis_element(1), aflex_gf2.basis_element(2)]
    seq = spans.diff_sequence(aflex_gf2, gens)
    exact, _ = spans.exact_algebra_length(aflex_gf2)
    audit = bounds.audit(aflex_gf2, report, seq, algebra_length=exact)
    assert audit.all_passed
    names = {e.name for e in audit.entries}
    assert "flex-quick-set-bound" in names
    assert "flex-min-dim" in names
    entry = next(e for e in audit.entries if e.name == "flex-min-dim")
    # the equality case: dim - d0 = 5 = required minimum at length 3
    assert entry.observed == {"dim-d0": 5, "required": 5}


def test_audit_on_aalt_gf2(aalt_gf2):
    report = identities.classify(aalt_gf2)
    gens = [aalt_gf2.basis_element(1), aalt_gf2.basis_element(2)]
    seq = spans.diff_sequence(aalt_gf2, gens)
    exact, _ = spans.exact_algebra_length(aalt_gf2)
    audit = bounds.audit(aalt_gf2, report, seq, algebra_length=exact)
    assert audit.all_passed
    entry = next(e for e in audit.entries if e.name == "alt-min-dim")
    assert entry.observed == {"dim-d0": 5, "required": 5}


def test_audit_flags_fabricated_violation(z2n2):
    report = identities.classify(z2n2)
    gens = [z2n2.basis_element(2), z2n2.basis_element(3)]
    seq = spans.diff_sequence(z2n2, gens)
    audit = bounds.audit(z2n2, report, seq, algebra_length=9)
    assert not audit.all_passed


def test_audit_checks_the_three_block_shapes_of_a_surviving_word(aflex_gf2):
    # EOO, OEE and O11 words add the block-size entries; OO and OE add none
    report = identities.classify(aflex_gf2)
    seq = spans.diff_sequence(aflex_gf2, [aflex_gf2.basis_element(1),
                                          aflex_gf2.basis_element(2)])
    plain = bounds.audit(aflex_gf2, report, seq).entries
    for w in [(1, (1, 1)), (1, (1, (1, 1))), (1, (1, (1, (1, 1)))),
              (1, ((1, 1), 1)), (1, ((1, (1, 1)), 1))]:
        cw = canonical_flex_form(w)
        entries = bounds.audit(aflex_gf2, report, seq, surviving=(word_length(w), cw)).entries
        assert entries[:len(plain)] == plain
        added = [e.name for e in entries[len(plain):]]
        if cw.shape in ("EOO", "OEE", "O11"):
            assert added[:2] == ["flex-surviving-word-d1", "flex-surviving-word-d2"], cw.shape
            sizes = tuple(len(cw.blocks[r]) for r in ("x", "y", "z"))
            assert entries[len(plain)].inputs == {"set": "S", "sizes": sizes}
        else:
            assert added == [], cw.shape


@pytest.fixture(scope="module")
def flex_report(aflex_gf2):
    report = identities.classify(aflex_gf2)
    assert report.verdict("descendingly_flexible").holds
    return report


def _entries(algebra, report, d, surviving=None):
    """The audit's entries by name for the difference sequence d, with dim = sum(d)."""
    seq = spans.DiffSequence(d, sum(d))
    return {e.name: e for e in bounds.audit(algebra, report, seq, surviving=surviving).entries}


@pytest.mark.parametrize("d, passed", [
    ((0, 1, 2, 1), False), ((0, 2, 2, 1), True), ((0, 3, 2, 1), True),
    ((0, 2, 1, 1), False), ((0, 2, 3, 1), True),
    ((0, 2, 2, 1, 1), False), ((0, 2, 2, 2, 1), True), ((0, 2, 2, 3, 1), True)])
def test_audit_low_length_differences_at_the_threshold(aflex_gf2, flex_report, d, passed):
    # each d_k with 1 <= k < l(S) one below, at and one above 2
    entry = _entries(aflex_gf2, flex_report, d)["flex-low-length-differences"]
    assert entry.passed is passed
    assert entry.inputs == {"set": "S", "l(S)": len(d) - 1}


@pytest.mark.parametrize("length, applies", [(2, False), (3, True), (4, True), (5, False)])
def test_audit_low_length_differences_only_at_lengths_3_and_4(aflex_gf2, flex_report,
                                                               length, applies):
    # the entry applies from l(S) = 3 to 4, and every d_k = 1 fails it
    entries = _entries(aflex_gf2, flex_report, (0,) + (1,) * length)
    assert ("flex-low-length-differences" in entries) is applies
    if applies:
        assert not entries["flex-low-length-differences"].passed


def test_audit_surviving_word_blocks_at_the_thresholds(aflex_gf2, flex_report):
    # an EOO word with blocks of sizes (2, 1, 3): d1 must reach the largest
    # block, 3, and d2 the largest product of two blocks, 2 * 3 = 6, which
    # is the outer two; d1 and d2 one below, at and one above
    cw = canonical_flex_form((1, (1, (1, (1, (1, 1))))))
    assert cw.shape == "EOO"
    assert tuple(len(cw.blocks[r]) for r in ("x", "y", "z")) == (2, 1, 3)
    for d1 in (2, 3, 4):
        for d2 in (5, 6, 7):
            entries = _entries(aflex_gf2, flex_report, (0, d1, d2, 1, 1, 1, 1), surviving=(6, cw))
            first, second = entries["flex-surviving-word-d1"], entries["flex-surviving-word-d2"]
            assert (first.passed, first.observed) == (d1 >= 3, {"d1": d1, "required": 3})
            assert (second.passed, second.observed) == (d2 >= 6, {"d2": d2, "required": 6})
