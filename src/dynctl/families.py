"""Parametrized families of rational maps over Q.

Covers symbolic specialization, membership in the good-parameter locus,
the published identities of the one-parameter cubic family, the Pell
counterexample map, the cube-sum height bound, the three-parameter family
with its slice analysis, and the averaging experiments.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (DegenerateFamilyError, DegenerateMapError, DegreeDropError,
                     SizeBudgetExceededError)
from .maps import RationalMapQ, evaluate, make_map, second_iterate_is_polynomial
from .orbits import OrbitPolicy, count_s_integral, scan_orbit
from .parallel import map_chunks
from .points import (EMPTY_S, ProjPointQ, SIntSpec, by_population, check_b_values,
                     enumerate_points, is_s_integral, normalize, tally_by_height)
from .polynomials import FORM_KERNELS, IntPoly, form_compose, form_shape, resultant_from_coeffs
from .reports import CheckResult, VerificationReport

T_VAR = ("t",)
RST_VARS = ("r", "s", "t")

# A polynomial in the family's parameters as (coefficient, exponents) pairs,
# the exponents ordered like FamilySpec.param_names.
Terms = tuple[tuple[int, tuple[int, ...]], ...]


def _terms(poly: IntPoly) -> Terms:
    return tuple((c, e) for e, c in poly.terms.items())


def _eval_terms(terms: Terms, params: Sequence[Fraction | int]) -> Fraction | int:
    """Value at exact parameters; an int when every parameter is an int."""
    total = 0
    for c, exps in terms:
        for v, k in zip(params, exps):
            if k:
                c *= v**k
        total += c
    return total


# Largest FamilySpec.symbolic_resultant_cost for which specialize evaluates
# the symbolic resultant; dearer families run make_map's own Bareiss per
# parameter. It admits phi_t (cost 3e3) and three_param (1.5e6) and keeps
# second iterates and dense families such as ((x+t)^8 + 1)/((x-1)^7 + t)
# (2e7) on the numeric path.
SYMBOLIC_RESULTANT_BUDGET = 2 * 10**6
# three_param_avg refuses, before building any triple, a box of more than
# THREE_PARAM_TRIPLE_LIMIT triples ((2B+1)^3, so B <= 49) and basepoints
# r^n1 s^n2 t^n3 that may exceed THREE_PARAM_BASE_BITS bits
# ((n1+n2+n3) * bit_length(B)). The largest README, acceptance, golden and
# bench box, B = 10 with n1 = n2 = n3 = 6, has 9261 triples (108x headroom)
# and basepoints of at most 72 bits (1388x).
THREE_PARAM_TRIPLE_LIMIT = 10**6
THREE_PARAM_BASE_BITS = 10**5


@dataclass(frozen=True)
class CompiledFamily:
    """A family's coefficients and symbolic resultant as term lists, built once per family.

    `resultant` is None when the symbolic resultant is over budget.
    """

    num: tuple[Terms, ...]
    den: tuple[Terms, ...]
    resultant: Terms | None


@dataclass(frozen=True)
class FamilySpec:
    """A family of degree-d maps whose coefficients are integer polynomials in parameters.

    The first specialization compiles the family (see `compiled`).
    Construction only checks a few numeric samples.
    """

    param_names: tuple[str, ...]
    degree: int
    num_coeffs: tuple[IntPoly, ...]
    den_coeffs: tuple[IntPoly, ...]
    name: str = ""

    @property
    def arity(self) -> int:
        return len(self.param_names)

    def __post_init__(self):
        d = self.degree
        if len(self.num_coeffs) != d + 1 or len(self.den_coeffs) != d + 1:
            raise ValueError("coefficient sequences must have length degree + 1")
        if any(c.vars != self.param_names for c in self.num_coeffs + self.den_coeffs):
            raise ValueError("coefficients must be polynomials in exactly param_names")
        if not self._has_nondegenerate_sample():
            raise DegenerateFamilyError("the generic resultant vanishes identically on a sample grid")

    def _has_nondegenerate_sample(self) -> bool:
        candidates = (1, 2, -2, 3, -3, 5, 7, -1, 0)
        for params in itertools.islice(itertools.product(candidates, repeat=self.arity), 200):
            values = dict(zip(self.param_names, params))
            try:
                make_map([c.evaluate(values) for c in self.num_coeffs],
                         [c.evaluate(values) for c in self.den_coeffs])
                return True
            except (DegenerateMapError, DegreeDropError):
                continue
        return False

    def x_degree_num(self) -> int:
        return max(i for i, c in enumerate(self.num_coeffs) if not c.is_zero())

    def x_degree_den(self) -> int:
        return max(i for i, c in enumerate(self.den_coeffs) if not c.is_zero())

    def symbolic_resultant(self) -> IntPoly:
        return resultant_from_coeffs(self.num_coeffs, self.den_coeffs, self.degree)

    def symbolic_resultant_cost(self) -> int:
        """Work bound for symbolic_resultant: (2d)^3 products of polynomials of
        at most M terms, M the number of monomials of degree <= D in the
        parameters, D = d * (num coefficient degree + den coefficient degree)
        the resultant's degree bound."""
        d = self.degree
        deg = sum(max(max(c.total_degree() for c in coeffs), 0)
                  for coeffs in (self.num_coeffs, self.den_coeffs))
        m = math.comb(d * deg + self.arity, self.arity)
        return (2 * d) ** 3 * m * m

    @functools.cached_property
    def compiled(self) -> CompiledFamily:
        """Coefficients and, within budget, symbolic resultant as term lists."""
        res = None
        if self.symbolic_resultant_cost() <= SYMBOLIC_RESULTANT_BUDGET:
            res = _terms(self.symbolic_resultant())
        return CompiledFamily(tuple(map(_terms, self.num_coeffs)),
                              tuple(map(_terms, self.den_coeffs)), res)


def specialize(family: FamilySpec, params: Sequence[Fraction | int]) -> RationalMapQ:
    """Evaluate the family at exact parameter values and validate the resulting map.

    Degree drop and vanishing resultant surface as the map-construction errors;
    those parameter values are exactly the complement of the good locus.
    """
    if len(params) != family.arity:
        raise ValueError(f"family takes {family.arity} parameter(s)")
    comp = family.compiled
    num = [_eval_terms(terms, params) for terms in comp.num]
    den = [_eval_terms(terms, params) for terms in comp.den]
    lcm = math.lcm(*(v.denominator for v in num), *(v.denominator for v in den))
    res = None
    if comp.resultant is not None:
        # Res is homogeneous of degree 2d in the coefficients, so clearing
        # denominators by lcm scales it by lcm^(2d).
        res = int(_eval_terms(comp.resultant, params) * lcm ** (2 * family.degree))
    return make_map([v.numerator * (lcm // v.denominator) for v in num],
                    [v.numerator * (lcm // v.denominator) for v in den],
                    resultant=res)


def _member_map(family: FamilySpec, params: Sequence[Fraction | int]) -> RationalMapQ | None:
    """The specialized map if it exists in degree d and its second iterate is
    not a polynomial (the good-parameter locus), else None."""
    try:
        m = specialize(family, params)
    except (DegenerateMapError, DegreeDropError):
        return None
    return None if second_iterate_is_polynomial(m) else m


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

PRESET_EXPRESSIONS = {
    "phi_t": "(x - t)/(x^3 + 1)",
    "three_param": "(r*s*x^3 + s*x + t)/(x^2 + 1)",
}


def _tpoly(terms: dict[int, int]) -> IntPoly:
    return IntPoly(T_VAR, {(e,): c for e, c in terms.items()})


def phi_t_family() -> FamilySpec:
    """(x - t)/(x^3 + 1) as a degree-3 family over the t-line."""
    zero = IntPoly.const(0, T_VAR)
    one = IntPoly.const(1, T_VAR)
    t = IntPoly.var("t", T_VAR)
    return FamilySpec(
        param_names=T_VAR,
        degree=3,
        num_coeffs=(-t, one, zero, zero),
        den_coeffs=(one, zero, zero, one),
        name="phi_t",
    )


def three_param_family() -> FamilySpec:
    """(r*s*x^3 + s*x + t)/(x^2 + 1) as a degree-3 family over (r, s, t)."""
    zero = IntPoly.const(0, RST_VARS)
    one = IntPoly.const(1, RST_VARS)
    r = IntPoly.var("r", RST_VARS)
    s = IntPoly.var("s", RST_VARS)
    t = IntPoly.var("t", RST_VARS)
    return FamilySpec(
        param_names=RST_VARS,
        degree=3,
        num_coeffs=(t, s, zero, r * s),
        den_coeffs=(one, zero, one, zero),
        name="three_param",
    )


def pell_map(d_param: int) -> RationalMapQ:
    """x^4 / (x^2 - D)^2: integral at every Pell solution u/v of u^2 - D v^2 = 1."""
    return make_map([0, 0, 0, 0, 1], [d_param * d_param, 0, -2 * d_param, 0, 1])


def symbolic_second_iterate(family: FamilySpec) -> tuple[list[IntPoly], list[IntPoly]]:
    """Raw second-iterate coefficient polynomials (no content reduction or sign fix)."""
    num = list(family.num_coeffs)
    den = list(family.den_coeffs)
    return form_compose(num, den, num, den)


def second_iterate_family(family: FamilySpec) -> FamilySpec:
    num, den = symbolic_second_iterate(family)
    return FamilySpec(
        param_names=family.param_names,
        degree=family.degree**2,
        num_coeffs=tuple(num),
        den_coeffs=tuple(den),
        name=f"{family.name}^2" if family.name else "",
    )


# The published second iterate of phi_t, ascending in x.
PHI_T_SECOND_NUM = tuple(
    _tpoly(d) for d in (
        {1: -2}, {0: 1}, {}, {1: -5}, {0: 2}, {}, {1: -4}, {0: 1}, {}, {1: -1},
    )
)
PHI_T_SECOND_DEN = tuple(
    _tpoly(d) for d in (
        {0: 1, 3: -1}, {2: 3}, {1: -3}, {0: 4}, {}, {}, {0: 3}, {}, {}, {0: 1},
    )
)


def phi_t_resultant_closed_form(t: int) -> int:
    return (t + 1) ** 12 * (t * t - t + 1) ** 12


def phi_t_identities(t_samples: Sequence[int] | None = None) -> VerificationReport:
    """Checks the published second-iterate coefficients and the resultant closed form.

    The resultant of the specialized second-iterate pair is recomputed as an
    exact 18x18 Sylvester determinant at each integer sample and compared to
    (t+1)^12 (t^2 - t + 1)^12.
    """
    if t_samples is None:
        t_samples = [t for t in range(-10, 11) if t != -1]
    fam = phi_t_family()
    num, den = symbolic_second_iterate(fam)
    checks = [
        CheckResult("phi_t.second_iterate_numerator", tuple(num) == PHI_T_SECOND_NUM,
                    "symbolic coefficients in t, ascending in x"),
        CheckResult("phi_t.second_iterate_denominator", tuple(den) == PHI_T_SECOND_DEN,
                    "symbolic coefficients in t, ascending in x"),
    ]
    bad = []
    for t in t_samples:
        if t == -1:
            continue
        values = {"t": t}
        n_spec = [c.evaluate(values) for c in num]
        d_spec = [c.evaluate(values) for c in den]
        got = resultant_from_coeffs(n_spec, d_spec, 9)
        if got != phi_t_resultant_closed_form(t):
            bad.append(t)
    checks.append(CheckResult(
        "phi_t.second_iterate_resultant",
        not bad,
        f"{len([t for t in t_samples if t != -1])} integer samples" + (f"; mismatches at {bad}" if bad else ""),
    ))
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# Height bounds: cube sums and integral preimages of phi_t
# ---------------------------------------------------------------------------


def cube_sum_bound_check(coord_bound: int = 100) -> VerificationReport:
    """Exhaustive check that x^3 + y^3 = B != 0 forces max(|x|, |y|) <= 2 sqrt(|B|).

    Compared exactly as max(|x|, |y|)^2 <= 4|B|; no floating point involved.
    """
    violations = 0
    seen = 0
    for x in range(-coord_bound, coord_bound + 1):
        x3 = x**3
        for y in range(-coord_bound, coord_bound + 1):
            big = x3 + y**3
            if big == 0:
                continue
            seen += 1
            if max(abs(x), abs(y)) ** 2 > 4 * abs(big):
                violations += 1
    return VerificationReport((
        CheckResult("cube_sum.height_bound", violations == 0,
                    f"{seen} solutions scanned, {violations} violations"),
    ))


def preimage_height_bound_check(t_bound: int = 5) -> VerificationReport:
    """For integer t, integral values of (x - t)/(x^3 + 1) only occur at small preimages.

    Every b with the specialized map integral at b and H(b) <= 4 H(t)^2 must
    satisfy H(b) <= 2 sqrt(2) H(t)^(3/2), compared exactly as H(b)^2 <= 8 H(t)^3.
    """
    fam = phi_t_family()
    violations = []
    hits = 0
    for t in range(-t_bound, t_bound + 1):
        if t == -1:
            continue
        m = specialize(fam, (t,))
        h_t = max(abs(t), 1)
        for b in enumerate_points(4 * h_t * h_t):
            img_integral = is_s_integral(evaluate(m, b), EMPTY_S)
            if img_integral:
                hits += 1
                h_b = max(abs(b.a), abs(b.b))
                if h_b * h_b > 8 * h_t**3:
                    violations.append((t, b))
    return VerificationReport((
        CheckResult("phi_t.preimage_height_bound", not violations,
                    f"{hits} integral preimages found, {len(violations)} violations"),
    ))


# ---------------------------------------------------------------------------
# Pell solutions
# ---------------------------------------------------------------------------


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


def pell_fundamental(d_param: int) -> tuple[int, int]:
    """Smallest positive solution of u^2 - D v^2 = 1, by brute-force search on v.

    Fine at desk scale (D <= 50); a continued-fraction ladder can swap in here
    if large D ever matters.
    """
    if d_param <= 1 or not _is_squarefree(d_param):
        raise ValueError("D must be a squarefree integer > 1")
    v = 1
    while True:
        u_sq = 1 + d_param * v * v
        u = math.isqrt(u_sq)
        if u * u == u_sq:
            return u, v
        v += 1


def pell_stream(d_param: int, count: int) -> list[tuple[int, int]]:
    """First `count` positive Pell solutions via the multiplication recurrence."""
    if count < 1:
        raise ValueError("count must be >= 1")
    u1, v1 = pell_fundamental(d_param)
    out = [(u1, v1)]
    u, v = u1, v1
    for _ in range(count - 1):
        u, v = u1 * u + d_param * v1 * v, u1 * v + v1 * u
        out.append((u, v))
    for u, v in out:
        if u * u - d_param * v * v != 1:
            raise ArithmeticError("Pell recurrence produced a non-solution")
    return out


def pell_checks(d_param: int = 2, count: int = 10) -> VerificationReport:
    sols = pell_stream(d_param, count)
    m = pell_map(d_param)
    integral = all(is_s_integral(evaluate(m, normalize(u, v)), EMPTY_S) for u, v in sols)
    return VerificationReport((
        CheckResult("pell.equation", True, f"{count} solutions of u^2-{d_param}v^2=1, exact"),
        CheckResult("pell.orbit_integrality", integral,
                    f"phi(u/v) integral for all {count} solutions of the D={d_param} stream"),
    ))


# ---------------------------------------------------------------------------
# Averages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasepointSpec:
    """Basepoint family: an integer-coefficient rational function of one variable.

    The numerator and denominator as binary forms of one degree, with their
    evaluation shape, are built on the first evaluation and cached.
    """

    num: IntPoly
    den: IntPoly

    @property
    def degree(self) -> int:
        return max(self.num.total_degree(), self.den.total_degree())

    @functools.cached_property
    def _forms(self) -> tuple:
        """(shape, numerator form, denominator form), both forms of degree max(degree, 0)."""
        e = max(self.degree, 0)
        num = tuple(self.num.coefficient((i,)) for i in range(e + 1))
        den = tuple(self.den.coefficient((i,)) for i in range(e + 1))
        return form_shape(num, den), num, den

    def eval_at_param(self, p: ProjPointQ) -> ProjPointQ | None:
        """Homogeneous evaluation at a parameter point of P^1; None if (0, 0)."""
        shape, num, den = self._forms
        n_val, d_val = FORM_KERNELS[shape](num, den, p.a, p.b)
        if n_val == 0 and d_val == 0:
            return None
        return normalize(n_val, d_val)


@dataclass(frozen=True)
class AvgReport:
    """Average S-integral orbit count per parameter, per height bound."""

    b_values: tuple[int, ...]
    population: tuple[int, ...]
    excluded: tuple[int, ...]
    totals: tuple[int, ...]
    averages: tuple[float | None, ...]
    truncated_fractions: tuple[float | None, ...]


def _orbit_count_for_param(task, s: SIntSpec, policy: OrbitPolicy):
    """(height, map, basepoint) -> (height, count, truncated) for the sweep pool."""
    h, m, b = task
    rec = scan_orbit(m, b, s, n_cap=policy.n_cap, height_budget_bits=policy.height_budget_bits,
                     count_only=True)
    count, exact = count_s_integral(rec)
    return h, count, not exact


def avg_experiment(map_or_family: RationalMapQ | FamilySpec, beta: BasepointSpec,
                   s: SIntSpec, b_values: Sequence[int],
                   policy: OrbitPolicy = OrbitPolicy(), workers: int = 1) -> AvgReport:
    """Average #(orbit of beta_t  intersect  O_S) over parameters t with H(t) <= B.

    The population is the good-parameter locus: for a constant map, all of
    P^1(Q); for a family, the parameters _member_map accepts. Parameters whose
    specialization fails are excluded, not errors. Heights on the parameter
    line are the parameter's own height (for a fixed beta this rescales B and
    leaves the zero/bounded verdicts untouched).
    """
    bs = check_b_values(b_values)
    if beta.degree < 1:
        raise ValueError("beta must be non-constant")
    constant = isinstance(map_or_family, RationalMapQ)
    if constant and second_iterate_is_polynomial(map_or_family):
        raise ValueError("constant-family averages need a map whose second iterate is not a polynomial")
    if not constant and map_or_family.arity != 1:
        raise ValueError("avg_experiment sweeps one-parameter families; use three_param_avg for arity 3")

    tasks = []
    excluded_h = []
    for p in enumerate_points(bs[-1]):
        h = max(abs(p.a), abs(p.b))
        if constant:
            m = map_or_family
        else:
            m = None if p.is_infinity() else _member_map(map_or_family, (p.as_fraction(),))
            if m is None:
                excluded_h.append(h)
                continue
        base = beta.eval_at_param(p)
        if base is None:
            excluded_h.append(h)
            continue
        tasks.append((h, m, base))

    worker = functools.partial(_orbit_count_for_param, s=s, policy=policy)
    results = map_chunks(worker, tasks, workers)

    population, totals, truncated = tally_by_height(bs, results, (operator.add, operator.add))
    excluded = tally_by_height(bs, [(h,) for h in excluded_h], ())[0]
    return AvgReport(bs, population, excluded, totals,
                     *by_population(population, totals, truncated))


# ---------------------------------------------------------------------------
# The three-parameter family average over integer boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellTally:
    population: int
    total: int
    max_count: int


@dataclass(frozen=True)
class ThreeParamReport:
    """Boxed average over |r|,|s|,|t| <= B with the slice breakdown of the proof."""

    exponents: tuple[int, int, int]
    b_values: tuple[int, ...]
    population: tuple[int, ...]
    totals: tuple[int, ...]
    averages: tuple[float | None, ...]
    truncated_fractions: tuple[float | None, ...]
    cells: tuple[dict[str, CellTally], ...]

    @property
    def open_cell_maxima(self) -> tuple[int, ...]:
        return tuple(cell["open"].max_count for cell in self.cells)


def _three_param_cell(r: int, s: int, t: int) -> str:
    if t == 0:
        return "t_zero"
    if s == 0:
        return "s_zero"
    if r == 0:
        return "r_zero"
    return "open"


def _three_param_orbit_count(triple: tuple[int, int, int], exponents: tuple[int, int, int],
                             family: FamilySpec, s_spec: SIntSpec,
                             policy: OrbitPolicy) -> tuple[int, int, bool, str]:
    """Count integral points in one parameter's orbit.

    Returns (height, count, truncated, cell), the height being max(|r|, |s|, |t|).
    """
    r, s, t = triple
    h = max(abs(r), abs(s), abs(t))
    cell = _three_param_cell(r, s, t)
    if cell == "t_zero":
        # beta = 0 and the numerator's constant coefficient is t = 0, so the
        # orbit is exactly {0} for every r, s (including degenerate maps).
        return h, 1, False, cell
    if cell == "s_zero":
        m = make_map([t, 0, 0], [1, 0, 1])
        base = ProjPointQ(0, 1)
    elif cell == "r_zero":
        m = make_map([t, s, 0], [1, 0, 1])
        base = ProjPointQ(0, 1)
    else:
        m = specialize(family, (r, s, t))
        n1, n2, n3 = exponents
        base = ProjPointQ(r**n1 * s**n2 * t**n3, 1)
    rec = scan_orbit(m, base, s_spec, n_cap=policy.n_cap,
                     height_budget_bits=policy.height_budget_bits, count_only=True)
    count, exact = count_s_integral(rec)
    return h, count, not exact, cell


def three_param_avg(n1: int, n2: int, n3: int, b_values: Sequence[int],
                    policy: OrbitPolicy = OrbitPolicy(), workers: int = 1) -> ThreeParamReport:
    """Average over all integer triples in the box, with per-slice tallies.

    The t = 0 slice contributes exactly 1 per point; the s = 0 and r = 0
    slices run on the reduced degree-2 maps t/(x^2+1) and (s x + t)/(x^2+1),
    whose real-line bounds keep those orbits small. A box or exponents over
    THREE_PARAM_TRIPLE_LIMIT or THREE_PARAM_BASE_BITS are refused first.
    """
    if min(n1, n2, n3) < 6:
        raise ValueError("exponents must all be >= 6")
    bs = check_b_values(b_values)
    b_max = bs[-1]
    count = (2 * b_max + 1) ** 3
    if count > THREE_PARAM_TRIPLE_LIMIT:
        raise SizeBudgetExceededError(
            f"the box |r|, |s|, |t| <= {b_max} holds {count} parameter triples, "
            f"over the limit of {THREE_PARAM_TRIPLE_LIMIT}"
        )
    bits = (n1 + n2 + n3) * b_max.bit_length()
    if bits > THREE_PARAM_BASE_BITS:
        raise SizeBudgetExceededError(
            f"basepoints r^{n1} s^{n2} t^{n3} with |r|, |s|, |t| <= {b_max} may reach "
            f"{bits} bits, over the limit of {THREE_PARAM_BASE_BITS}"
        )
    fam = three_param_family()
    triples = [(r, s, t)
               for r in range(-b_max, b_max + 1)
               for s in range(-b_max, b_max + 1)
               for t in range(-b_max, b_max + 1)]
    worker = functools.partial(_three_param_orbit_count, exponents=(n1, n2, n3),
                               family=fam, s_spec=EMPTY_S, policy=policy)
    results = map_chunks(worker, triples, workers)

    population, totals, truncated = tally_by_height(bs, results, (operator.add, operator.add))
    averages, truncated_fractions = by_population(population, totals, truncated)
    cells = [{} for _ in bs]
    for name in ("open", "t_zero", "s_zero", "r_zero"):
        in_cell = ((h, count, count) for h, count, _, cell in results if cell == name)
        for i, tally in enumerate(zip(*tally_by_height(bs, in_cell, (operator.add, max)))):
            cells[i][name] = CellTally(*tally)
    return ThreeParamReport(
        exponents=(n1, n2, n3),
        b_values=bs,
        population=population,
        totals=totals,
        averages=averages,
        truncated_fractions=truncated_fractions,
        cells=tuple(cells),
    )


def three_param_slice_bounds_check(box: int = 10,
                                   policy: OrbitPolicy = OrbitPolicy()) -> VerificationReport:
    """Exact per-point bounds on the degenerate slices.

    s = 0: every orbit point of t/(x^2+1) from 0 satisfies |x| <= |t|.
    r = 0: every orbit point of (s x + t)/(x^2+1) from 0 satisfies |x| <= |s| + |t|.
    """
    zero = ProjPointQ(0, 1)
    s_zero_bad = 0
    for t in range(-box, box + 1):
        if t == 0:
            continue
        rec = scan_orbit(make_map([t, 0, 0], [1, 0, 1]), zero, EMPTY_S,
                         n_cap=policy.n_cap, height_budget_bits=policy.height_budget_bits)
        for p in rec.points:
            if abs(p.a) > abs(t) * p.b:
                s_zero_bad += 1
    r_zero_bad = 0
    for s in range(-box, box + 1):
        for t in range(-box, box + 1):
            if s == 0 and t == 0:
                continue
            rec = scan_orbit(make_map([t, s, 0], [1, 0, 1]), zero, EMPTY_S,
                             n_cap=policy.n_cap, height_budget_bits=policy.height_budget_bits)
            for p in rec.points:
                if abs(p.a) > (abs(s) + abs(t)) * p.b:
                    r_zero_bad += 1
    return VerificationReport((
        CheckResult("three_param.s_zero_slice_bound", s_zero_bad == 0,
                    f"|x| <= |t| on orbit points, box {box}, {s_zero_bad} violations"),
        CheckResult("three_param.r_zero_slice_bound", r_zero_bad == 0,
                    f"|x| <= |s|+|t| on orbit points, box {box}, {r_zero_bad} violations"),
    ))


# ---------------------------------------------------------------------------
# Resultant specialization
# ---------------------------------------------------------------------------


def resultant_specialization_check(family: FamilySpec,
                                   sample_params: Sequence[Sequence[int]]) -> VerificationReport:
    """Specializing the symbolic resultant commutes with specializing the forms.

    The symbolic side is the compiled resultant, the one specialize uses,
    where the family has one. Samples where either form's x-degree drops are
    excluded with a note, as the identity only speaks to degree-preserving
    specializations. Integer samples only (exact equality of exact integers).
    """
    sym = family.compiled.resultant
    if sym is None:
        sym = _terms(family.symbolic_resultant())
    deg_num = family.x_degree_num()
    deg_den = family.x_degree_den()
    checks = []
    for params in sample_params:
        values = {name: int(v) for name, v in zip(family.param_names, params)}
        label = ",".join(str(v) for v in params)
        n_spec = [c.evaluate(values) for c in family.num_coeffs]
        d_spec = [c.evaluate(values) for c in family.den_coeffs]
        got_deg_num = max((i for i, c in enumerate(n_spec) if c), default=-1)
        got_deg_den = max((i for i, c in enumerate(d_spec) if c), default=-1)
        if got_deg_num != deg_num or got_deg_den != deg_den:
            checks.append(CheckResult(f"resultant_specialization[{label}]", True,
                                      "excluded: degree drop at this sample"))
            continue
        lhs = _eval_terms(sym, tuple(values.values()))
        rhs = resultant_from_coeffs(n_spec, d_spec, family.degree)
        checks.append(CheckResult(f"resultant_specialization[{label}]", lhs == rhs,
                                  f"symbolic={lhs} specialized={rhs}"))
    return VerificationReport(tuple(checks))


def resultant_specialization_grid_check() -> VerificationReport:
    """The identity specialize relies on, for phi_t and three_param on the integer box [-2, 2]."""
    checks = []
    for family in (phi_t_family(), three_param_family()):
        grid = itertools.product(range(-2, 3), repeat=family.arity)
        results = resultant_specialization_check(family, list(grid)).checks
        excluded = sum(c.detail.startswith("excluded") for c in results)
        bad = sum(not c.ok for c in results)
        checks.append(CheckResult(
            f"{family.name}.resultant_specialization", bad == 0,
            f"{len(results)} integer samples in [-2,2], {excluded} excluded for degree drop, "
            f"{bad} mismatches"))
    return VerificationReport(tuple(checks))


VERIFICATION_CHECKS = {
    "phi_t_identities": phi_t_identities,
    "cube_sum_bound": cube_sum_bound_check,
    "phi_t_preimage_height_bound": preimage_height_bound_check,
    "pell_solutions": pell_checks,
    "three_param_slice_bounds": three_param_slice_bounds_check,
    "resultant_specialization": resultant_specialization_grid_check,
}
