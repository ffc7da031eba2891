"""Value semantics of dynctl's record types.

The sweeps send records through the fork pool's pickles and key caches on
them, so each must come back from pickle equal to what was sent, and the
records that caches and dicts key on must compare and hash by value.
"""

import pickle
import random

import pytest

from dynctl import families as families_mod
from dynctl.canonical import canonical_height
from dynctl.families import avg_experiment, phi_t_identities, three_param_avg
from dynctl.funcfield import FFPoly, FFRat, ff_family_map, ff_orbit_avg
from dynctl.maps import cofactors, make_map
from dynctl.orbits import density_of_integral_preimages, scan_orbit
from dynctl.parsing import _tokenize, parse_map
from dynctl.points import EMPTY_S, ProjPointQ, SIntSpec, enumerate_points, normalize

PELL_2 = make_map([0, 0, 0, 0, 1], [4, 0, -4, 0, 1])


def _records():
    """One instance of each record type, by type name, from the code that builds it."""
    f = FFRat.from_poly(FFPoly.t_var(2))
    cert = cofactors(PELL_2)
    verification = phi_t_identities()
    expr = parse_map("(x - t)/(x^3 + 1)")
    box = three_param_avg(6, 6, 6, (1,), height_budget_bits=10**4)
    return {
        "ProjPointQ": normalize(3, 2),
        "SIntSpec": SIntSpec((2, 3)),
        "OrbitRecord": scan_orbit(PELL_2, normalize(3, 2), EMPTY_S, n_cap=6),
        "BinaryForm": cert.p1,
        "RationalMapQ": PELL_2,
        "CofactorCertificate": cert,
        "CanonicalHeightEstimate": canonical_height(PELL_2, normalize(3, 2), 1e-3),
        "DensityReport": density_of_integral_preimages(PELL_2, EMPTY_S, (2, 4)),
        "CheckResult": verification.checks[0],
        "VerificationReport": verification,
        "MapExpression": expr,
        "_Token": _tokenize("x + 1")[0],
        "FamilySpec": expr.to_family(),
        "BasepointSpec": parse_map("t").to_basepoint(),
        "AvgReport": avg_experiment(PELL_2, parse_map("t").to_basepoint(), EMPTY_S, (2,),
                                    height_budget_bits=10**4),
        "ThreeParamReport": box,
        "CellTally": box.cells[0]["open"],
        "FFRat": f,
        "FFMap": ff_family_map(2, f),
        "FFAvgReport": ff_orbit_avg(2, 2, (0, 0, 0, 0, 1), [], (1,)),
    }


RECORDS = _records()


def test_every_record_type_is_covered():
    assert all(type(r).__name__ == name for name, r in RECORDS.items())
    assert len(RECORDS) == 20


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_survives_pickle_equal(name):
    record = RECORDS[name]
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record and not back != record
    assert repr(back) == repr(record)
    if hasattr(record, "shape"):
        assert back.shape == record.shape


def test_point_sorts_and_hashes_as_its_pair():
    points = enumerate_points(6)
    random.Random(0).shuffle(points)
    assert sorted(points) == sorted(points, key=lambda p: (p.a, p.b))
    for p in points:
        assert hash(p) == hash((p.a, p.b)) and p == (p.a, p.b)
    assert ProjPointQ(1, 2) < ProjPointQ(1, 3) < ProjPointQ(2, 1)


def test_equal_s_specs_share_a_cache_entry():
    # Identity hashing would make each pickled copy of a spec, as each pool
    # task receives, miss the s = 0 slice cache.
    first, second = SIntSpec((2,)), pickle.loads(pickle.dumps(SIntSpec((2,))))
    assert first is not second and first == second and hash(first) == hash(second)
    assert SIntSpec((2,)) != SIntSpec((3,)) and SIntSpec(()) == EMPTY_S
    families_mod._s_zero_count.cache_clear()
    assert (families_mod._s_zero_count(3, first, 16, 10**4)
            == families_mod._s_zero_count(3, second, 16, 10**4))
    info = families_mod._s_zero_count.cache_info()
    assert (info.hits, info.misses) == (1, 1)
