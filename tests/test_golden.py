"""Byte identity of CLI reports: sha256 of the JSON and CSV bytes, on stdout
and in the file that --out writes.

The digests were recorded before the Q and F_p(t) sweeps were moved onto a
shared form core and a shared report path, so a refactor that changes one
byte of any report (key order, a float, a CSV row) fails here. The inputs
are small; the bench workloads pin the large ones.
"""

import hashlib

import pytest

from dynctl import canonical, maps, orbits
from dynctl.cli import main

GOLDEN = {
    "orbit_json": (["orbit", "--map", "x^4/(x^2-2)^2", "--point", "3/2", "--s", "", "--ncap", "6"],
                   "27f00c32b33995e95d517aa9653f747587103f113fc2a98eca25b8e1e95fa7b2"),
    "orbit_csv": (["orbit", "--map", "x^4/(x^2-2)^2", "--point", "3/2", "--s", "", "--ncap", "6",
                   "--format", "csv"],
                  "da00011d1eaac57d868af618bb6cedc7761b540d33f2223a86994e27e2d89b73"),
    "density_json": (["density", "--map", "(x-1)/(x^3+1)", "--s", "", "--b", "5,10"],
                     "488f5a3c75854bee9080bcb6b70c0a43850121eb74bcc10f252af8d63ea094be"),
    "density_csv": (["density", "--map", "(x-1)/(x^3+1)", "--s", "", "--b", "5,10",
                     "--format", "csv"],
                    "69655464bce013160436198c711e5815b0b642846b79f2362f17b4f31746bf3e"),
    "density_s_csv": (["density", "--map", "(x-1)/(x^3+1)", "--s", "2,3", "--b", "4,8",
                       "--format", "csv"],
                      "f5b562ad5c69c0ff40048355a20cdeb4d1ae15431fad62659b4bc105ea9333d8"),
    "density_poly_json": (["density", "--map", "x^2-2", "--s", "2", "--b", "5,10"],
                          "bc5fa1ddc8da7ab4a7367bbdd77ed58ebfa21cbcf43426a63ff00f510f895de5"),
    "avg_json": (["avg", "--map", "pell(2)", "--beta", "t", "--s", "", "--b", "5,10",
                  "--height-budget-bits", "10000"],
                 "f11746ea6dcf56c3744fa24b40ca39159ab5e86d7e9fc26cab2aa3fe864ab001"),
    "avg_csv": (["avg", "--map", "pell(2)", "--beta", "t", "--s", "", "--b", "5,10",
                 "--height-budget-bits", "10000", "--format", "csv"],
                "8b2c182db4500f70c46c3113341337ed42109f0fb2e6e2d4f84f44b35bfd895e"),
    "avg_family_json": (["avg", "--map", "phi_t", "--beta", "t^3+2", "--s", "", "--b", "3,6",
                         "--height-budget-bits", "10000"],
                        "dc296811dba9c3730ec9cd594e959ec50a71a6f696a417e22125890344f7aa56"),
    "avg3_json": (["avg3", "--b", "1,2", "--height-budget-bits", "10000"],
                  "e75371c7a1602a57fea627ac5b9a711e49516f1bf039e2c85bea50ace468a34f"),
    "avg3_csv": (["avg3", "--b", "1,2", "--height-budget-bits", "10000", "--format", "csv"],
                 "ecf1bdfc2c9005e0a673cc08f0e9d2ca266097b3e04b6e82553dc58f420ea881"),
    "ffavg_json": (["ffavg", "--p", "2", "--d", "2", "--beta-coeffs", "0,0,0,0,1", "--s", "",
                    "--b", "1,2"],
                   "70f767f424f529a1143a32214891b9f7f38a1e627a2310acf22e0ca1620b35d2"),
    "ffavg_csv": (["ffavg", "--p", "2", "--d", "2", "--beta-coeffs", "0,0,0,0,1", "--s", "",
                   "--b", "1,2", "--format", "csv"],
                  "ef94beb18106bdadfb8c2b938a8b7bc1caf700b9b4aad6e84a831f0fd6a38ba8"),
    "ffavg_s_json": (["ffavg", "--p", "3", "--d", "3", "--beta-coeffs", "0,0,0,1", "--s", "t",
                      "--b", "1"],
                     "a8cc74f418fe322969371b17c2476bc3754577838f201b429a8b2e51b2a07b62"),
    "nmax_json": (["nmax", "--map", "pell(2)", "--s", "", "--b", "5",
                   "--height-budget-bits", "10000"],
                  "e92faa58648384ef156c986d975c965c1afa808c2d5137e370e5af3b9e712024"),
    # Recorded before nmax grouped its basepoints by first image: a map with
    # phi(2/x) = phi(x), a cap of 1 and of 0 with S = {2, 3} and {}, a map
    # whose basepoints share no image (through the pool), and pell(3).
    "nmax_inversion_json": (["nmax", "--map", "(x^2+2)/x", "--s", "", "--b", "40",
                             "--height-budget-bits", "4000"],
                            "6da6d707379e14afd7cd8299a11e8f49da5e2a13ffff8e1613c32f31ee6f2e37"),
    "nmax_ncap1_json": (["nmax", "--map", "(x^2+1)/(x^2-3)", "--s", "2,3", "--b", "40",
                         "--ncap", "1"],
                        "8cbb862fcc5b08d4ae68b3d8fddb950e07c028e160b1c7cd2936b2447fb186ea"),
    "nmax_ncap0_json": (["nmax", "--map", "(x^2+1)/(x^2-3)", "--s", "", "--b", "40",
                         "--ncap", "0"],
                        "b5d9e4e9088b678be600be8d161eaa6baee76b340270177102553ee0ade62dc7"),
    "nmax_no_shared_image_json": (["nmax", "--map", "(x^3+2)/(x^2+x+3)", "--s", "2", "--b", "30",
                                   "--height-budget-bits", "4000", "--workers", "2"],
                                  "e570114e57d9cb212c8be378e9a4aa8b7d881b961d328b0889facf1e754262e6"),
    "nmax_pell3_json": (["nmax", "--map", "pell(3)", "--s", "3", "--b", "30",
                         "--height-budget-bits", "300"],
                        "b3f45591b71de8d8063fa8fec22277d24278e3fb24c85ecbb5c9da4974b7e66c"),
    "canheight_json": (["canheight", "--map", "x^2", "--point", "2", "--tol", "1e-6"],
                       "fb64e4ccec09497ccb2cc2116c846a7db6a215295a1bc6bf731c9d8159fc69bc"),
    "preper_json": (["preper", "--map", "x^2-1", "--point", "0"],
                    "788cab7d61699a57b36d98ffa75f5e39401cd4b06b0415c2576e8545380f3189"),
    "verify_json": (["verify", "--seed", "0"],
                    "dd41f88db36530a2d85668328a79784c10a4a43a6f3efb97a9912bfd22967d60"),
    "verify_csv": (["verify", "--seed", "0", "--format", "csv"],
                   "b00b249db48ada6a8a582f395b290db31c22fb1e99cfcfa08f049cc259364796"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_bytes_unchanged(case, tmp_path, capsys):
    argv, digest = GOLDEN[case]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    target = tmp_path / "report"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


# At the default height budget of 10^6 bits. Count-only scans walk residues
# from the first point past the growth switch on, so no coordinate that
# evaluate returns grows past the first images: the largest has 25 bits on
# pell(2) and 13 on (x^2+2)/x, against about 250000 for an exact walk to the
# budget.
DEFAULT_BUDGET = {
    "nmax_pell2_default_budget_json": (
        ["nmax", "--map", "pell(2)", "--s", "", "--b", "40"],
        "f9f20c18df4f9574420a87142a2986f5f963bbbbdcf4b2c510f7ee47f8227ffb", 25),
    "nmax_inversion_default_budget_json": (
        ["nmax", "--map", "(x^2+2)/x", "--s", "", "--b", "40"],
        "6da6d707379e14afd7cd8299a11e8f49da5e2a13ffff8e1613c32f31ee6f2e37", 13),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", sorted(DEFAULT_BUDGET))
def test_default_budget_report_bytes_and_coordinate_bits(case, workers, monkeypatch, capsys):
    argv, digest, top_bits = DEFAULT_BUDGET[case]
    peak = [0]
    evaluate = maps.evaluate

    def spy(m, p):
        q = evaluate(m, p)
        peak[0] = max(peak[0], abs(q.a).bit_length(), q.b.bit_length())
        return q

    for module in (maps, orbits, canonical):
        monkeypatch.setattr(module, "evaluate", spy)
    assert main(argv + ["--workers", workers]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    # With two workers the scans run in the pool's processes; the parent still
    # evaluates every first image.
    assert 0 < peak[0] <= top_bits
