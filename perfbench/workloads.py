"""The four workloads: seeded inputs, one operation each, and its check.

Inputs are plain data (tuples of ints and strings) made only from the seed,
so the same seed gives byte-identical inputs; selftest.py checks that.
Every operation takes the imported `whideal` package as its first argument:
set-up re-imports the package, and the tracer rebinds names inside the
modules the operation reaches.

Each workload has a schedule: one block of slots in which every kind of
call has its share.  The shares are equal over the kinds of call the
workload's description lists (README.md, "Traffic"), and equal over the
sizes where the block enumerates them.  The inputs are the block walked
`cycles` times, each time in an order the seed shuffles, with the seed
filling in each slot; so the shares hold exactly per block whatever the
seed.

An operation's output is reduced by `keep` as soon as its latency is
read, so that what a run holds does not grow with the work it completes;
`check_all` checks the kept results after the timed region.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

WORKED = "x^2 + y^2 + z^2 + u^2*w^2 + u^4 + w^5"

# The jacobian_witness cases of ROADMAP item 1, cheapest first.
WITNESS_CASES = (
    "x^3 + y^4 + z^5 + x*y*z",
    WORKED,
    "x^5 + y^5 + z^5 + x^2*y^2*z^2",
    "x^4 + y^4 + z^4 + u^4 + x*y*z*u",
)

# Where set-up writes files; the directory is git-ignored.
WORK_DIR = ".bench_build/perfbench"
DIMS_TABLE = f"{WORK_DIR}/table.json"
# A Hodge number table with n = 5 whose l = 2 pieces are all nonnegative.
DIMS_TABLE_DATA = {
    "n": 5,
    "middle": [[0, 3, 2], [1, 1, 1], [1, 2, 3], [2, 1, 3], [2, 2, 1], [3, 0, 2]],
    "top": [[2, 3, 1], [3, 2, 1]],
}


def rng_for(workload: str, seed: int) -> random.Random:
    # String seeding hashes the text with SHA-512: stable across runs and
    # interpreter builds, unlike hash().
    return random.Random(f"{workload}:{seed}")


def var_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def pure_power(n: int, i: int, a: int) -> tuple[int, ...]:
    e = [0] * n
    e[i] = a
    return tuple(e)


def render(terms, names) -> str:
    """Polynomial text for (exponent, integer coefficient) pairs."""
    pieces = []
    for e, c in terms:
        factors = [v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k]
        mon = "*".join(factors)
        pieces.append(mon if c == 1 else f"{c}*{mon}")
    return " + ".join(pieces)


def _mixed(e) -> bool:
    # At least two variables: such a point can never replace a pure power.
    return sum(1 for x in e if x) >= 2


# ---------------------------------------------------------------- supports


def interior_support(rng, n, m, box=8):
    """Uniform in a box above pure powers of degree <= box: mostly dominated."""
    pts = {pure_power(n, i, rng.randint(box // 2 + 1, box)) for i in range(n)}
    while len(pts) < m:
        e = tuple(rng.randint(0, box) for _ in range(n))
        if _mixed(e):
            pts.add(e)
    return sorted(pts)


def _hyperplane_points(weights, total):
    """All e >= 0 with sum(w_i * e_i) == total."""
    if len(weights) == 1:
        return [(total // weights[0],)] if total % weights[0] == 0 else []
    out = []
    for k in range(total // weights[0] + 1):
        out += [(k,) + rest for rest in _hyperplane_points(weights[1:], total - k * weights[0])]
    return out


def boundary_support(rng, n, m, lcm=12):
    """Weighted homogeneous: every point lies on the one compact facet."""
    while True:
        a = [rng.choice((4, 6, 12)) for _ in range(n)]
        candidates = [e for e in _hyperplane_points([lcm // x for x in a], lcm) if _mixed(e)]
        if len(candidates) >= m - n:
            break
    pts = [pure_power(n, i, a[i]) for i in range(n)] + rng.sample(candidates, m - n)
    return sorted(pts)


def curved_support(rng, n, m, scale=24):
    """Near sum sqrt(e_i / scale) = 1, a strictly convex surface: almost
    every point is a vertex and the compact facets are many."""
    pts = {pure_power(n, i, scale) for i in range(n)}
    while len(pts) < m:
        cuts = sorted(rng.random() for _ in range(n - 1))
        t = [b - a for a, b in zip([0.0] + cuts, cuts + [1.0])]
        e = tuple(round(scale * x * x) for x in t)
        if _mixed(e):
            pts.add(e)
    return sorted(pts)


FAMILIES = {
    "interior": interior_support,
    "boundary": boundary_support,
    "curved": curved_support,
}


def with_coefficients(rng, pts):
    terms = [(e, rng.randint(1, 9)) for e in pts]
    rng.shuffle(terms)
    return tuple(terms)


# ---------------------------------------------------------------- checks


def _det(rows) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination, in which every division is exact."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def compact_facets(support) -> list:
    """Every compact facet of the Newton polyhedron of a convenient
    support, as sorted (covector, incident points) pairs.

    Brute force, independent of whideal: each linearly independent
    n-subset of points fixes the one B with <a, B> = 1 on it (Cramer's rule
    in integers), and B is a compact facet iff B > 0 and <a, B> >= 1 on the
    whole support.  This is the algorithm of tests/oracle_newton.py's
    facet_oracle (selftest.py checks that the two agree) at about a tenth
    of its cost, which keeps the checks of a run to a few seconds.
    """
    support = sorted(support)
    n = len(support[0])
    found = {}
    for subset in combinations(support, n):
        d = _det(subset)
        if not d:
            continue
        num = [_det([p[:j] + (1,) + p[j + 1:] for p in subset]) for j in range(n)]
        if d < 0:
            d, num = -d, [-x for x in num]
        if any(x <= 0 for x in num):
            continue
        dots = [sum(x * y for x, y in zip(p, num)) for p in support]
        if all(v >= d for v in dots):
            cov = tuple(Fraction(x, d) for x in num)
            found.setdefault(cov, tuple(p for p, v in zip(support, dots) if v == d))
    return sorted(found.items())


def bounded_compositions(total: int, parts: int, bound: int) -> int:
    """#{a in [0, bound]^parts : sum a = total}, by inclusion-exclusion."""
    if parts == 0:
        return 1 if total == 0 else 0
    count = 0
    for j in range(parts + 1):
        rest = total - j * (bound + 1)
        if rest < 0:
            break
        count += (-1) ** j * math.comb(parts, j) * math.comb(rest + parts - 1, parts - 1)
    return count


def snc_generator_count(n: int, r: int, p: int, l: int | None = None) -> int:
    """Minimal generators of I_p^{W_l}(D), or of I_p(D) when l is None,
    from the closed forms in snc.py.

    Generators of one weight piece share a degree pattern that no two
    distinct ones can divide each other in, so every listed one is minimal.
    """
    if l == 0:
        return 1
    if l is None or l >= r:
        return bounded_compositions(p * (r - 1), r, p)
    return math.comb(r, l) * bounded_compositions(p * (l - 1), l, p)


def snc_check_count(n: int, r: int, p_max: int) -> int:
    """Checks verify_snc_theorems makes: chain, stabilization, principal,
    and adjoint containment for p >= 1."""
    return sum((n + 1) + (n - r + 1) + 1 + (1 if p >= 1 else 0) for p in range(p_max + 1))


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    schedule: tuple = ()  # one block of slots: each a kind, maybe with a size
    cycles = 1  # how many shuffled blocks `generate` makes for one seed
    # op_tail_ms: the highest of the percentiles 90, 99 and 99.9 with at
    # least 10 samples beyond it in a run at the commit that defined the
    # benchmark.  It is fixed per workload, so that a change in throughput
    # cannot switch a comparison to another percentile.
    tail_percentile = 90.0

    def generate(self, seed: int) -> list:
        rng = rng_for(self.name, seed)
        inputs = []
        for _ in range(self.cycles):
            block = list(self.schedule)
            rng.shuffle(block)
            inputs += [self.slot(rng, spec) for spec in block]
        return inputs

    def tag(self, inp) -> str:
        return inp[0]

    def keep(self, inp, out):
        return out

    def check_all(self, inputs, kept) -> list[bool]:
        return [self.check(i, k) for i, k in zip(inputs, kept)]


class DiagonalGrid(Workload):
    """minimal_exponent(sum x_i^{a_i}) over the criterion-4 grid."""

    name = "diagonal-grid"
    schedule = ("diagonal",)
    cycles = 12000
    tail_percentile = 99.0  # ~9000 operations a run
    # Points of the grid 2 <= a_i <= 9 per n = 1..5; sampled uniformly, so
    # most samples have n = 5 as in the full sweep.
    SIZES = [8 ** n for n in range(1, 6)]

    def slot(self, rng, spec):
        index = rng.randrange(sum(self.SIZES))
        n = 1
        while index >= self.SIZES[n - 1]:
            index -= self.SIZES[n - 1]
            n += 1
        exps = []
        for _ in range(n):
            index, digit = divmod(index, 8)
            exps.append(digit + 2)
        return ("diagonal", tuple(exps))

    def warmup_inputs(self):
        return [("diagonal", (2, 3)), ("diagonal", (2, 3, 4, 5, 6))]

    def run(self, wh, inp):
        exps = inp[1]
        n = len(exps)
        f = wh.Polynomial(var_names(n), {pure_power(n, i, a): 1 for i, a in enumerate(exps)})
        return wh.minimal_exponent(f)

    def keep(self, inp, out):
        # The law is a sum of at most five unit fractions: checking it here
        # costs microseconds and keeps a bool instead of a Fraction.
        return out == sum(Fraction(1, a) for a in inp[1])

    def check(self, inp, kept):
        return kept is True


class RandomSupport(Workload):
    """parse_polynomial then classify on three families of supports."""

    name = "random-support"
    # Families in equal thirds, n = 3..5 in equal thirds, each n with
    # n + 6 terms (in the 8-16 range), which keeps the dearest call near
    # 0.3 s and so gives a run over 200 operations to take medians over.
    SIZES = ((3, 9), (4, 10), (5, 11))
    schedule = tuple((fam, n, m) for fam, (n, m) in product(FAMILIES, SIZES))
    cycles = 60
    tail_percentile = 90.0  # ~250 operations a run

    def slot(self, rng, spec):
        family, n, m = spec
        terms = with_coefficients(rng, FAMILIES[family](rng, n, m))
        return (family, render(terms, var_names(n)), terms)

    def warmup_inputs(self):
        rng = rng_for(self.name, 0)
        return [
            (fam, render(t, var_names(3)), t)
            for fam in FAMILIES
            for t in [with_coefficients(rng, FAMILIES[fam](rng, 3, 6))]
        ]

    def run(self, wh, inp):
        n = len(inp[2][0][0])
        f = wh.parse_polynomial(inp[1], var_names(n))
        return f, wh.classify(f)

    def keep(self, inp, out):
        f, report = out
        facets = sorted((fc.covector, tuple(sorted(fc.incident_points))) for fc in report.polyhedron.facets)
        return f.terms, facets, report.minimal_exponent

    def check(self, inp, kept):
        terms, facets, minimal_exponent = kept
        if terms != {e: Fraction(c) for e, c in inp[2]}:
            return False
        expected = compact_facets([e for e, _ in inp[2]])
        return facets == expected and minimal_exponent == min(sum(b) for b, _ in expected)


class IdealAlgebra(Workload):
    """Groebner calls and normal-crossings ideal calls."""

    name = "ideal-algebra"
    # SNC half: a ladder and a theorem check on every size n <= 6,
    # 1 <= r <= n, p <= 3 (84 sizes, 168 slots).  Groebner half, as many
    # slots: witness (each ROADMAP case alike), membership and Jacobian
    # bases in equal thirds, 14 times 12 slots.
    SNC_SIZES = tuple((n, r, p) for n in range(1, 7) for r in range(1, n + 1) for p in range(4))
    GROEBNER_SLOTS = (
        tuple(("witness", case) for case in range(len(WITNESS_CASES)))
        + 4 * (("membership",), ("basis",))
    )
    schedule = (
        tuple(("ladder",) + size for size in SNC_SIZES)
        + tuple(("verify",) + size for size in SNC_SIZES)
        + 14 * GROEBNER_SLOTS
    )
    cycles = 12
    tail_percentile = 99.0  # ~3000 operations a run

    def slot(self, rng, spec):
        kind = spec[0]
        if kind == "witness":
            case = spec[1]
            n = len(_case_vars(case))
            while True:
                m = tuple(rng.randint(0, 2) for _ in range(n))
                if 2 <= sum(m) <= 3:
                    return ("witness", case, m)
        if kind == "membership":
            return ("membership",) + _membership_instance(rng)
        if kind == "basis":
            n = rng.choice((2, 3))
            pts = interior_support(rng, n, 4, box=6 if n == 2 else 4)
            return ("basis", n, tuple((e, rng.randint(1, 3)) for e in pts))
        return spec

    def warmup_inputs(self):
        return [
            ("witness", 0, (1, 1, 0)),
            ("membership", (((1, 1, 0), 1),), ((((1, 0, 0), 1),),)),
            ("basis", 2, (((3, 0), 1), ((0, 3), 1), ((1, 1), 1))),
            ("ladder", 3, 2, 1),
            ("verify", 3, 2, 1),
        ]

    def run(self, wh, inp):
        kind = inp[0]
        if kind == "witness":
            f = wh.parse_polynomial(WITNESS_CASES[inp[1]])
            return wh.jacobian_witness(f, inp[2], 0)
        if kind == "membership":
            names = ("x", "y", "z")
            g = wh.Polynomial(names, dict(inp[1]))
            return wh.ideal_membership(g, [wh.Polynomial(names, dict(h)) for h in inp[2]])
        if kind == "basis":
            f = wh.Polynomial(var_names(inp[1]), dict(inp[2]))
            return wh.groebner_basis(wh.jacobian_ideal(f))
        model = wh.SncModel(inp[1], inp[2])
        if kind == "ladder":
            return [wh.weighted_hodge_ideal_snc(model, inp[3], l) for l in range(inp[1] + 2)]
        return wh.verify_snc_theorems(model, inp[3])

    def keep(self, inp, out):
        kind = inp[0]
        if kind == "basis":
            return [g.terms for g in out]
        if kind == "ladder":
            return [len(ideal.generators) for ideal in out]
        if kind == "verify":
            return out.all_passed, len(out.checks)
        return out

    def check_all(self, inputs, kept):
        oracle = _SympyOracle()
        return [self.check(i, k, oracle) for i, k in zip(inputs, kept)]

    def check(self, inp, kept, oracle):
        kind = inp[0]
        if kind == "witness":
            return kept is (not oracle.witness_member(inp[1], inp[2]))
        if kind == "membership":
            return kept is oracle.member(inp[1], inp[2])
        if kind == "basis":
            return oracle.reduced_basis_of_jacobian(inp[1], inp[2]) == _canon(kept)
        n, r, p = inp[1:]
        if kind == "ladder":
            return kept == [snc_generator_count(n, r, p, l) for l in range(n + 2)]
        return kept == (True, snc_check_count(n, r, p))


def _case_terms(case: int) -> list[dict[str, int]]:
    """A ROADMAP case as {variable: power} per term; coefficients are 1."""
    terms = []
    for text in WITNESS_CASES[case].split("+"):
        term = {}
        for factor in text.strip().split("*"):
            name, _, power = factor.partition("^")
            term[name] = int(power or 1)
        terms.append(term)
    return terms


def _case_vars(case: int) -> tuple[str, ...]:
    # parse_polynomial orders variables by first appearance.
    return tuple(dict.fromkeys(name for term in _case_terms(case) for name in term))


def _membership_instance(rng):
    """Criterion-7 style: 1-2 generators in x, y, z; g is a multiple of the
    first generator on every third draw, else a random polynomial."""

    def random_poly(max_terms, max_deg):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            while True:
                e = tuple(rng.randint(0, max_deg) for _ in range(3))
                if sum(e) <= max_deg:
                    break
            terms[e] = rng.choice((-3, -2, -1, 1, 2, 3))
        return terms

    def product(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    while True:
        gens = [random_poly(3, 4) for _ in range(rng.randint(1, 2))]
        g = product(gens[0], random_poly(2, 2)) if rng.random() < 1 / 3 else random_poly(3, 4)
        if g and max(sum(e) for e in g) <= 4:
            return tuple(sorted(g.items())), tuple(tuple(sorted(h.items())) for h in gens)


def _canon(basis_terms) -> list:
    return sorted(tuple(sorted((e, Fraction(c)) for e, c in t.items())) for t in basis_terms)


class _SympyOracle:
    """Independent Groebner answers from sympy's polynomial rings (grevlex
    over QQ), cached per distinct input."""

    def __init__(self):
        from sympy import QQ
        from sympy.polys.groebnertools import groebner
        from sympy.polys.orderings import grevlex
        from sympy.polys.rings import ring

        self.cache = {}
        self._ring = lambda names: ring(",".join(names), QQ, grevlex)
        self._groebner = groebner
        self._qq = QQ

    def _cached(self, key, compute):
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]

    def _poly(self, r, terms):
        return r.from_dict({e: self._qq(c) for e, c in terms})

    def _jacobian_basis(self, names, f_terms):
        r, *xs = self._ring(names)
        f = self._poly(r, f_terms)
        return r, self._groebner([f.diff(x) for x in xs], r)

    def member(self, g, gens):
        def compute():
            r, *_ = self._ring(("x", "y", "z"))
            basis = self._groebner([self._poly(r, h) for h in gens], r)
            return not self._poly(r, g).rem(basis)

        return self._cached(("member", g, gens), compute)

    def witness_member(self, case, m):
        def basis():
            names = _case_vars(case)
            terms = [(tuple(t.get(v, 0) for v in names), 1) for t in _case_terms(case)]
            return self._jacobian_basis(names, terms)

        r, b = self._cached(("jacobian", case), basis)
        return self._cached(("witness", case, m), lambda: not r.from_dict({m: 1}).rem(b))

    def reduced_basis_of_jacobian(self, n, f_terms):
        def compute():
            _, basis = self._jacobian_basis(var_names(n), f_terms)
            return _canon(
                {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in g.monic().items()}
                for g in basis
            )

        return self._cached(("basis", n, f_terms), compute)


class CliSession(Workload):
    """One `python -m whideal <cmd>` child per operation."""

    name = "cli-session"
    # The five subcommands in equal fifths, 12 slots each.  analyze is, in
    # equal thirds, a small convenient polynomial (every other one with
    # --json), the worked example as criterion 1 calls it, and --witness on
    # a ROADMAP case, each case alike.
    schedule = (
        2 * (("analyze", "small"), ("analyze", "small-json"))
        + 4 * (("analyze", "worked"),)
        + tuple(("analyze", "witness", case) for case in range(len(WITNESS_CASES)))
        + 12 * (("snc",), ("verify",), ("bounds",), ("dims",))
    )
    cycles = 5
    tail_percentile = 90.0  # ~200 operations a run

    def slot(self, rng, spec):
        kind = spec[0]
        if kind == "analyze":
            return self._analyze(rng, *spec[1:])
        if kind == "snc":
            n = rng.randint(1, 5)
            argv = ("snc", "--n", str(n), "--r", str(rng.randint(1, n)), "--p", str(rng.randint(0, 3)))
            if rng.random() < 0.5:
                argv += ("--l", str(rng.randint(0, n)))
            return argv + (("--verify",) if rng.random() < 0.5 else ())
        if kind == "verify":
            return ("verify", "--n", str(rng.randint(1, 5)), "--p-max", str(rng.randint(0, 3)))
        if kind == "bounds":
            argv = ("bounds", "--n", str(rng.randint(1, 6)), "--d", str(rng.randint(1, 9)),
                    "--p", str(rng.randint(0, 3)))
            return argv + (("--l", str(rng.randint(1, 4))) if rng.random() < 0.5 else ())
        n = DIMS_TABLE_DATA["n"]
        argv = ("dims", "--table", DIMS_TABLE, "--l", str(rng.randint(2, n)),
                "--p", str(rng.randint(0, n - 2)))
        if rng.random() < 0.5:
            argv += ("--pushforward", str(rng.randint(1, 6)), str(rng.randint(0, n - 2)))
        return argv

    def _analyze(self, rng, kind, case=None):
        if kind == "worked":
            return ("analyze", WORKED, "--witness", "w^5", "--json")
        if kind == "witness":
            names = _case_vars(case)
            # In variable order, as the program prints the monomial back.
            i, j = sorted(rng.sample(range(len(names)), 2))
            return ("analyze", WITNESS_CASES[case], "--witness", f"{names[i]}*{names[j]}")
        n = rng.randint(2, 4)
        pts = interior_support(rng, n, rng.randint(n + 1, 8), box=6)
        text = render(with_coefficients(rng, pts), ("x", "y", "z", "u")[:n])
        return ("analyze", text) + (("--json",) if kind == "small-json" else ())

    def warmup_inputs(self):
        return [("bounds", "--n", "2", "--d", "3", "--p", "0"), ("analyze", "x^2 + y^3")]

    def spawn(self, env, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "whideal", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def run(self, wh, argv):
        import contextlib
        import io

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = wh.cli.main(list(argv))
        return code, out.getvalue()

    def check_all(self, inputs, kept):
        oracle = _SympyOracle()
        return [self.check(i, k, oracle) for i, k in zip(inputs, kept)]

    def check(self, argv, out, oracle):
        code, stdout = out
        if code != 0:
            return False
        lines = stdout.splitlines()
        opts = dict(zip(argv[1::2], argv[2::2]))
        if argv[0] == "analyze" and "--json" in argv:
            data = json.loads(stdout)
            if argv[1] != WORKED:
                return data["schema"] == "whideal-report/1"
            # The values criterion 1 asserts for the worked example.
            return (
                data["minimal_exponent"] == "2/1"
                and data["r"] == 2
                and data["nilpotency_upper"] == 3
                and [1, True] in data["hodge_triviality"]
                and [1, False] in data["w1_triviality"]
                and any("witness w^5 outside J(f)" in note for note in data["notes"])
                and [1, 1] in data["type_range"]
            )
        if argv[0] == "analyze":
            if lines[0] != "singularity report":
                return False
            if "--witness" not in argv:
                return True
            # The witness note must give sympy's answer for this monomial.
            case, witness = WITNESS_CASES.index(argv[1]), argv[3]
            m = tuple(witness.split("*").count(v) for v in _case_vars(case))
            verdict = "lies in J(f)" if oracle.witness_member(case, m) else "outside J(f)"
            return any(line.startswith(f"    - witness {witness} {verdict}") for line in lines)
        if argv[0] == "verify":
            n, p = int(opts["--n"]), int(opts["--p-max"])
            checks = sum(snc_check_count(n, r, p) for r in range(1, n + 1))
            return len(lines) == checks + 1 and lines[-1] == "all checks passed"
        if argv[0] == "snc":
            n, r, p = int(opts["--n"]), int(opts["--r"]), int(opts["--p"])
            l = int(opts["--l"]) if "--l" in opts else None
            ideal = lines[0]
            gens = ideal[1:-1].split(", ") if ideal.startswith("(") and ideal != "(0)" else []
            if len(gens) != snc_generator_count(n, r, p, l):
                return False
            if "--verify" not in argv:
                return len(lines) == 1
            return len(lines) == snc_check_count(n, r, p) + 2 and lines[-1] == "all checks passed"
        if argv[0] == "bounds":
            n, d, p = int(opts["--n"]), int(opts["--d"]), int(opts["--p"])
            want = [
                f"points with nontrivial W_2 piece <= {math.comb((p + 1) * d - 1, n)}",
                f"singular points <= {math.comb((p + 1) * d, n)}",
            ]
            if "--l" in opts:
                l = int(opts["--l"])
                want.append(f"surjectivity threshold (l={l}): k >= {(p + 1) * d - n - (l >= 2)}")
            return lines == want
        l, p = int(opts["--l"]), int(opts["--p"])
        want = [f"dim Gr_F^(n-p) at l={l}, p={p}: {_graded_dim(l, p)}"]
        if "--pushforward" in argv:
            i = argv.index("--pushforward")
            amb, push = int(argv[i + 1]), int(argv[i + 2])
            dim = sum(math.comb(amb + push - r, push - r) * _graded_dim(l, r) for r in range(push + 1))
            want.append(f"dim F_p pushforward (n={amb}, p={push}): {dim}")
        return lines == want


def _graded_dim(l: int, p: int) -> int:
    n = DIMS_TABLE_DATA["n"]
    middle = {(a, b): h for a, b, h in DIMS_TABLE_DATA["middle"]}
    top = {(a, b): h for a, b, h in DIMS_TABLE_DATA["top"]}
    if l >= 3:
        return middle.get((p, n - l - p), 0)
    return middle.get((p, n - p - 2), 0) - top.get((n - p - 1, p + 1), 0)


WORKLOADS = {w.name: w for w in (CliSession(), DiagonalGrid(), RandomSupport(), IdealAlgebra())}
