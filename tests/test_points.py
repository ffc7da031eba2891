import math
import operator
import pickle

import pytest
from hypothesis import given, strategies as st

from dynctl.errors import BothZeroError, ParseError, SizeBudgetExceededError
from dynctl.points import (EMPTY_S, INFINITY, PRIME_TEST_LIMIT, ProjPointQ, SIntSpec,
                           check_b_values, check_enumeration_bound, coprime_count, coprime_row,
                           count_points, enumerate_points, format_point, is_prime,
                           is_s_integral, log_of_int, normalize, parse_int, parse_point,
                           tally_by_height)

nonzero_pairs = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)).filter(
    lambda ab: ab != (0, 0)
)


def test_normalize_examples():
    assert normalize(6, 4) == ProjPointQ(3, 2)
    assert normalize(3, -2) == ProjPointQ(-3, 2)
    assert normalize(5, 0) == ProjPointQ(1, 0)


def test_normalize_both_zero():
    with pytest.raises(BothZeroError):
        normalize(0, 0)


@given(nonzero_pairs)
def test_normalize_idempotent(ab):
    p = normalize(*ab)
    q = normalize(p.a, p.b)
    assert p == q
    assert math.gcd(abs(p.a), abs(p.b)) == 1
    assert p.b > 0 or (p.b == 0 and p.a == 1)


@given(nonzero_pairs, st.integers(-50, 50).filter(lambda k: k != 0))
def test_normalize_scaling_invariance(ab, k):
    a, b = ab
    assert normalize(k * a, k * b) == normalize(a, b)


@given(nonzero_pairs, st.integers(0, 3000))
def test_point_survives_pickle_equal_and_with_equal_hash(ab, bits):
    # The fork pool pickles points to and from its workers, one and in lists.
    p = normalize(ab[0] << bits, ab[1])
    back = pickle.loads(pickle.dumps(p))
    assert back == p and hash(back) == hash(p)
    points = [p, INFINITY, ProjPointQ(0, 1), normalize(-ab[1], ab[0] or 1)]
    back = pickle.loads(pickle.dumps(points))
    assert back == points and [hash(q) for q in back] == [hash(q) for q in points]
    assert not hasattr(p, "__dict__")


def test_height_one_characterization():
    ones = [p for p in enumerate_points(5) if max(abs(p.a), abs(p.b)) == 1]
    assert set(ones) == {ProjPointQ(0, 1), ProjPointQ(1, 1), ProjPointQ(-1, 1), INFINITY}


def test_log_of_int_huge():
    n = 3**100000
    assert log_of_int(n) == pytest.approx(100000 * math.log(3), rel=1e-12)


def test_s_integrality_examples():
    p = ProjPointQ(3, 2)
    assert is_s_integral(p, SIntSpec([2]))
    assert not is_s_integral(p, EMPTY_S)
    assert not is_s_integral(INFINITY, SIntSpec([2, 3]))


def test_s_integrality_monotone_in_s():
    chain = [EMPTY_S, SIntSpec([2]), SIntSpec([2, 3]), SIntSpec([2, 3, 5])]
    for p in enumerate_points(20):
        flags = [is_s_integral(p, s) for s in chain]
        for a, b in zip(flags, flags[1:]):
            assert (not a) or b  # S subset S' implies integral(S) -> integral(S')


def test_sintspec_rejects_composites():
    with pytest.raises(ValueError):
        SIntSpec([4])
    with pytest.raises(ValueError):
        SIntSpec([1])


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


# The least strong pseudoprime to the bases 2, 3, ..., 37 and to 2, 3, ..., 41.
PSEUDOPRIME_TO_37 = 318665857834031151167461  # 399165290221 * 798330580441
PSEUDOPRIME_TO_41 = 3317044064679887385961981


def test_is_prime_refuses_the_least_pseudoprime_to_the_bases_through_37():
    assert 399165290221 * 798330580441 == PSEUDOPRIME_TO_37
    assert not is_prime(PSEUDOPRIME_TO_37)
    assert is_prime(399165290221) and is_prime(798330580441)


def test_s_spec_refuses_both_pseudoprimes():
    with pytest.raises(ValueError, match="not prime"):
        SIntSpec([2, PSEUDOPRIME_TO_37])
    # is_prime still calls this one prime, so SIntSpec refuses it by size first.
    assert PSEUDOPRIME_TO_41 == PRIME_TEST_LIMIT and is_prime(PSEUDOPRIME_TO_41)
    with pytest.raises(ValueError, match=str(PRIME_TEST_LIMIT)):
        SIntSpec([PSEUDOPRIME_TO_41])
    assert SIntSpec([2**61 - 1]).primes == {2**61 - 1}


def test_enumerate_b1_exact_set():
    pts = enumerate_points(1)
    assert set(pts) == {ProjPointQ(0, 1), ProjPointQ(1, 1), ProjPointQ(-1, 1), INFINITY}
    assert len(pts) == 4


def test_enumerate_b2_count_and_new_points():
    pts = set(enumerate_points(2))
    assert len(pts) == 8
    assert pts - set(enumerate_points(1)) == {
        ProjPointQ(2, 1), ProjPointQ(-2, 1), ProjPointQ(1, 2), ProjPointQ(-1, 2)
    }


@pytest.mark.parametrize("bound", [1, 2, 3, 5, 8])
def test_enumerate_nested_and_growing(bound):
    small = set(enumerate_points(bound))
    big = set(enumerate_points(bound + 1))
    assert small < big


def test_enumerate_order_documented():
    pts = enumerate_points(6)
    keys = [(max(abs(p.a), abs(p.b)), p.a, p.b) for p in pts]
    assert keys == sorted(keys)
    assert len(set(pts)) == len(pts)


def test_count_matches_enumeration():
    assert count_points(30) == len(enumerate_points(30))


def test_point_count_ratio_converges():
    r500 = count_points(500) / 500**2
    r1000 = count_points(1000) / 1000**2
    assert abs(r1000 - r500) / r500 < 0.02


def test_serialization_examples():
    assert format_point(ProjPointQ(3, 2)) == "3/2"
    assert format_point(ProjPointQ(-7, 1)) == "-7"
    assert format_point(INFINITY) == "inf"
    assert parse_point("3/2") == ProjPointQ(3, 2)
    assert parse_point("-7") == ProjPointQ(-7, 1)
    assert parse_point("inf") == INFINITY
    assert parse_point("6/4") == ProjPointQ(3, 2)
    with pytest.raises(ParseError):
        parse_point("3/2/1")


@pytest.mark.parametrize("text", ["1_0", "\u0663", "3/1_0", "\uff13/2", "3/", "+"])
def test_parse_point_refuses_what_only_int_reads(text):
    # int() reads "1_0" as 10 and the Arabic-Indic and fullwidth threes as 3.
    with pytest.raises(ParseError, match="bad point literal"):
        parse_point(text)


def test_parse_int_reads_ascii_decimal_literals_only():
    assert parse_int(" -12 ", 0) == -12 and parse_int("+7", 0) == 7
    for text in ("1_0", "\u0663", "", "1.0", "0x10"):
        with pytest.raises(ParseError) as err:
            parse_int(text, 4)
        assert err.value.position == 4


@given(nonzero_pairs)
def test_serialization_roundtrip(ab):
    p = normalize(*ab)
    assert parse_point(format_point(p)) == p


@pytest.mark.parametrize("bad", [(), (0, 5), (5, 5), (10, 5)])
def test_check_b_values_rejects(bad):
    with pytest.raises(ValueError, match="strictly increasing"):
        check_b_values(bad)


def test_check_b_values_returns_int_tuple():
    assert check_b_values(["3", 7]) == (3, 7)


def _empty_b_value_runs():
    from dynctl.families import BasepointSpec, avg_experiment, pell_map, three_param_avg
    from dynctl.funcfield import ff_orbit_avg
    from dynctl.orbits import density_of_integral_preimages
    from dynctl.polynomials import IntPoly

    beta = BasepointSpec(IntPoly.var("t", ("t",)), IntPoly.const(1, ("t",)))
    return {
        "density": lambda: density_of_integral_preimages(pell_map(2), EMPTY_S, ()),
        "avg": lambda: avg_experiment(pell_map(2), beta, EMPTY_S, ()),
        "avg3": lambda: three_param_avg(6, 6, 6, ()),
        "ffavg": lambda: ff_orbit_avg(2, 2, [0, 0, 0, 0, 1], [], ()),
    }


@pytest.mark.parametrize("sweep", ["density", "avg", "avg3", "ffavg"])
def test_sweeps_reject_empty_b_values(sweep):
    with pytest.raises(ValueError, match="strictly increasing"):
        _empty_b_value_runs()[sweep]()


@given(st.lists(st.tuples(st.integers(1, 30), st.integers(0, 9), st.integers(0, 9)),
                max_size=40),
       st.lists(st.integers(1, 25), min_size=1, max_size=4, unique=True))
def test_tally_by_height_matches_the_definition(rows, bounds):
    bs = tuple(sorted(bounds))
    counts, sums, maxima = tally_by_height(bs, rows, (operator.add, max))
    for i, b in enumerate(bs):
        below = [r for r in rows if r[0] <= b]
        assert counts[i] == len(below)
        assert sums[i] == sum(r[1] for r in below)
        assert maxima[i] == max((r[2] for r in below), default=0)


def test_enumeration_limit_is_checked_before_enumerating(monkeypatch):
    import dynctl.points as points_mod

    monkeypatch.setattr(points_mod, "ENUMERATION_LIMIT", 7 * 3 + 1)  # (2B+1)*B + 1 at B = 3
    assert len(enumerate_points(3)) == count_points(3)
    check_enumeration_bound(3)
    for refuse in (enumerate_points, check_enumeration_bound):
        with pytest.raises(SizeBudgetExceededError, match="visits 37 candidate points"):
            refuse(4)


@pytest.mark.parametrize("bound", [1, 2, 7, 12])
def test_coprime_rows_partition_the_points(bound):
    rows = [coprime_row(b, bound) for b in range(bound + 1)]
    assert rows[0] == [INFINITY]
    for b, row in enumerate(rows[1:], 1):
        assert [p.a for p in row] == sorted(p.a for p in row)
        assert all(p.b == b and normalize(p.a, p.b) == p for p in row)
    points = {p for row in rows for p in row}
    assert len(points) == sum(map(len, rows)) == count_points(bound)
    assert all(max(abs(p.a), abs(p.b)) <= bound for p in points)


def test_coprime_count_matches_gcd_by_brute_force():
    # Every row 0 <= b <= B <= 200 against a running count of the a in [-B, B]
    # with gcd(a, b) = 1; row 0 is the point at infinity alone.
    for b in range(201):
        count = 1 if b == 0 else int(math.gcd(0, b) == 1)
        for bound in range(1, 201):
            if b:
                count += (math.gcd(bound, b) == 1) + (math.gcd(-bound, b) == 1)
            if bound >= b:
                assert coprime_count(b, bound) == count, (b, bound)
