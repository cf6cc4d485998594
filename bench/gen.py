"""Seeded input generators and the independent correctness oracle.

Nothing here imports the library: every input is plain data (Fractions,
bitstrings, datum JSON dicts) and every expected output is derived from
the classification rules of Bradlow, Garcia-Prada and Gothen
(arXiv:0903.5496) applied to the generator's own parameters.  The
library is the thing under test, so it never computes its own
expectations.

The same seed always gives byte-identical inputs (``inputs_bytes``).
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)
ZERO8 = (F0,) * 8
ONE8 = (F1,) + (F0,) * 7

# -- scalars ---------------------------------------------------------------


def fstr(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator)


def rand_frac(rng: random.Random, bound: int, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if q or not nonzero:
            return q


def rand_elem(rng: random.Random, style: str, bound: int = 99) -> tuple:
    """A nonzero field element as 8 coordinates over
    {1, sqrt2, sqrt3, sqrt6} x {1, i}: rational for "sparse", all eight
    coordinates nonzero for "dense"."""
    if style == "sparse":
        return (rand_frac(rng, 9, nonzero=True),) + (F0,) * 7
    return tuple(rand_frac(rng, bound, nonzero=True) for _ in range(8))


def elem_mul(x: tuple, y: tuple) -> tuple:
    """Product in Q(i, sqrt2, sqrt3), derived independently of the
    library's table: coordinate k = 4*s + p stands for i^s * sqrt2^(p&1)
    * sqrt3^(p>>1), so radicals multiply by XOR of the exponent bits,
    each squared radical contributing its square, and i*i = -1."""
    out = [F0] * 8
    for k1, a in enumerate(x):
        if not a:
            continue
        for k2, b in enumerate(y):
            if not b:
                continue
            s1, p1, s2, p2 = k1 >> 2, k1 & 3, k2 >> 2, k2 & 3
            both = p1 & p2
            v = a * b * (2 if both & 1 else 1) * (3 if both & 2 else 1)
            if s1 & s2:
                v = -v
            out[((s1 ^ s2) << 2) | (p1 ^ p2)] += v
    return tuple(out)


def elem_json(v: tuple) -> list:
    return [fstr(q) for q in v]


# -- mod-2 vectors -----------------------------------------------------------


def rand_bits(rng: random.Random, n: int, nonzero: bool = False) -> str:
    while True:
        s = "".join(rng.choice("01") for _ in range(n))
        if not nonzero or "1" in s:
            return s


def xor_bits(x: str, y: str) -> str:
    return "".join("1" if a != b else "0" for a, b in zip(x, y))


def pairing(x: str, y: str) -> int:
    """Mod-2 intersection form sum a_i b'_i + a'_i b_i."""
    g = len(x) // 2
    return sum(int(x[i]) * int(y[g + i]) + int(y[i]) * int(x[g + i])
               for i in range(g)) % 2


def all_bits(n: int) -> list:
    return [format(k, "0%db" % n) for k in range(2 ** n)]


# -- line bundles and section spaces --------------------------------------------
#
# A bundle is (k_power, extra_degree, torsion): K^k_power * O(extra) * t.


def degree(g: int, b: tuple) -> int:
    kp, extra, _ = b
    d = extra + kp * (2 * g - 2)
    assert d.denominator == 1
    return int(d)


def h0_rule(g: int, b: tuple):
    """Section-space dimension where the degree decides it (Riemann-Roch
    above 2g-2, zero below 0, O and K themselves); None where it is
    bundle-dependent and the datum must carry an explicit h0_override."""
    kp, extra, t = b
    d = degree(g, b)
    if d < 0:
        return 0
    if d > 2 * g - 2:
        return d - g + 1
    if d == 0 and kp == 0 and extra == 0:
        return 0 if "1" in t else 1
    if kp == 1 and extra == 0 and "1" not in t:
        return g
    return None


def bundle_json(b: tuple) -> dict:
    kp, extra, t = b
    return {"k_power": fstr(kp), "extra_degree": extra, "torsion": t}


def slot(rng: random.Random, g: int, b: tuple, style: str, zero: bool,
         first_unit: bool = False) -> tuple:
    """Section slot as (JSON dict, list of 8-tuples).  A nonzero slot has
    a nonzero first coefficient when ``first_unit`` asks for it (the
    value 1, used as a normal-form pivot)."""
    dim = h0_rule(g, b)
    override = None
    if dim is None:
        dim = override = 1
    if zero or dim == 0:
        coeffs = [ZERO8] * dim
    elif style == "sparse":
        coeffs = [ZERO8] * dim
        for k in rng.sample(range(dim), min(dim, 2)):
            coeffs[k] = rand_elem(rng, "sparse")
    else:
        coeffs = [rand_elem(rng, "dense") for _ in range(dim)]
    if first_unit and dim:
        j = rng.randrange(dim)
        coeffs = [ZERO8] * j + [ONE8] + list(coeffs[j + 1:])
    return slot_json(b, coeffs, override), coeffs


def slot_json(b: tuple, coeffs, override) -> dict:
    out = {"bundle": bundle_json(b), "coeffs": [elem_json(c) for c in coeffs]}
    if override is not None:
        out["h0_override"] = override
    return out


HALF = Fraction(1, 2)


# -- shape generators --------------------------------------------------------------
#
# Each returns (datum JSON without "genus", facts).  Facts carry exactly the
# parameters the oracle's rules read.


def gen_diagonal(rng, g, style, c, b1z, b2z, b3z, pivot=False):
    z = "0" * (2 * g)
    t = rand_bits(rng, 2 * g)
    # at c = 2g-2 the bundle N is the cube of a square root of K
    n = (Fraction(3, 2), 0, t) if c == 2 * g - 2 else (HALF, c, t)
    kp, extra, _ = n
    j1, c1 = slot(rng, g, (2 * kp + 1, 2 * extra, z), style, b1z)
    j2, c2 = slot(rng, g, (-2 * kp + 3, -2 * extra, z), style, b2z,
                  first_unit=pivot)
    j3, c3 = slot(rng, g, (Fraction(2), 0, z), style, b3z)
    datum = {"shape": "diagonal", "N": bundle_json(n),
             "beta1": j1, "beta2": j2, "beta3": j3}
    facts = {"shape": "diagonal", "c": c, "spin": t,
             "b1z": not any(map(any, c1)), "b2z": not any(map(any, c2)),
             "beta1": c1, "beta2": c2}
    return datum, facts


def gen_cover(rng, g):
    w1, w2 = rand_bits(rng, 2 * g, nonzero=True), rng.randint(0, 1)
    datum = {"shape": "cover_orth", "w1": w1, "w2": w2,
             "beta_present": rng.random() < 0.5}
    return datum, {"shape": "cover_orth", "w1": w1, "w2": w2}


def gen_torsion_split(rng, g, style):
    z = "0" * (2 * g)
    t1 = rand_bits(rng, 2 * g)
    t2 = t1 if rng.random() < 0.25 else rand_bits(rng, 2 * g)
    k2 = (Fraction(2), 0, z)
    j1, _ = slot(rng, g, k2, style, rng.random() < 0.3)
    j2, _ = slot(rng, g, k2, style, rng.random() < 0.3)
    datum = {"shape": "torsion_split", "t1": t1, "t2": t2,
             "beta1": j1, "beta2": j2}
    return datum, {"shape": "torsion_split", "t1": t1, "t2": t2}


def gen_rank1(rng, g, style, shape, deg, bz, gz, torsion=None):
    """sl2r or irreducible_image datum on L of degree ``deg``; the maximal
    degree g-1 is encoded as a square root of K, others as O(deg) * t."""
    z = "0" * (2 * g)
    t = torsion if torsion is not None else rand_bits(rng, 2 * g)
    ell = (HALF, 0, t) if deg == g - 1 else (F0, deg, t)
    kp, extra, _ = ell
    jb, cb = slot(rng, g, (2 * kp + 1, 2 * extra, z), style, bz)
    jg, cg = slot(rng, g, (-2 * kp + 1, -2 * extra, z), style, gz)
    datum = {"shape": shape, "L": bundle_json(ell), "beta": jb, "gamma": jg}
    facts = {"shape": shape, "deg": deg, "torsion": t,
             "bz": not any(map(any, cb)), "gz": not any(map(any, cg))}
    return datum, facts


def gen_direct_sum(rng, g, style):
    parts = [gen_rank1(rng, g, style, "sl2r", g - 1, rng.random() < 0.5, False)
             for _ in range(2)]
    datum = {"shape": "direct_sum", "summands": [d for d, _ in parts]}
    return datum, {"shape": "direct_sum", "summands": [f for _, f in parts]}


# -- the oracle ----------------------------------------------------------------------


class DomainError(Exception):
    """An expected {"error", "clause"} answer with exit code 1."""

    def __init__(self, error: str, clause: str):
        super().__init__(clause)
        self.error, self.clause = error, clause


def rank(f) -> int:
    if f["shape"] == "sl2r":
        return 1
    if f["shape"] == "direct_sum":
        return sum(rank(s) for s in f["summands"])
    return 2


def toledo(g, f) -> int:
    if f["shape"] == "sl2r":
        return f["deg"]
    if f["shape"] == "irreducible_image":
        return 2 * f["deg"]
    if f["shape"] == "direct_sum":
        return sum(toledo(g, s) for s in f["summands"])
    return 2 * g - 2


def rank1_verdict(f) -> str:
    """deg L > 0: stable iff gamma != 0; deg L < 0: stable iff beta != 0;
    deg L = 0: polystable iff both sections vanish or neither does."""
    if f["deg"] > 0:
        return "Stable" if not f["gz"] else "Unstable"
    if f["deg"] < 0:
        return "Stable" if not f["bz"] else "Unstable"
    return "StrictlyPolystable" if f["bz"] == f["gz"] else "Unstable"


POLYSTABLE = ("Stable", "StrictlyPolystable")


def stability(g, f) -> tuple:
    """(verdict, clause, non_simple) for the stability command."""
    shape = f["shape"]
    if shape == "diagonal":
        if f["c"] > 0:
            if not f["b2z"]:
                return ("Stable", "diagonal, deg N > g-1, beta2 != 0", False)
            return ("Unstable", "diagonal, deg N > g-1, beta2 = 0: not semistable",
                    False)
        if not f["b1z"] and not f["b2z"]:
            return ("Stable", "diagonal, deg N = g-1, beta1 != 0 and beta2 != 0",
                    False)
        if f["b1z"] and f["b2z"]:
            return ("StrictlyPolystable", "diagonal, deg N = g-1, beta1 = beta2 = 0",
                    False)
        return ("SemistableNotPoly",
                "diagonal, deg N = g-1, exactly one of beta1, beta2 nonzero", False)
    if shape == "cover_orth":
        return ("Stable", "connected-cover orthogonal bundle is stable", False)
    if shape == "torsion_split":
        if f["t1"] == f["t2"]:
            return ("StrictlyPolystable", "torsion-split, L1 = L2", True)
        return ("Stable", "torsion-split, L1 != L2 (stable but not simple)", True)
    if shape == "sl2r":
        return (rank1_verdict(f), "rank-1 criterion, deg L = %d" % f["deg"], False)
    if shape == "irreducible_image":
        if rank1_verdict(f) not in POLYSTABLE:
            raise DomainError("NotPolystable", "rank-1 input of the irreducible "
                              "image is not polystable")
        if f["deg"] != 0:
            return ("Stable", "irreducible image of a polystable rank-1 datum "
                    "with deg L != 0", False)
        if f["bz"] and f["gz"]:
            return ("StrictlyPolystable", "irreducible image, deg L = 0, zero fields",
                    False)
        return ("Stable", "irreducible image, deg L = 0, both fields nonzero", False)
    verdicts = [stability(g, s)[0] for s in f["summands"]]
    if all(v in POLYSTABLE for v in verdicts):
        return ("StrictlyPolystable", "direct sum of polystable summands", False)
    if "Unstable" not in verdicts:
        return ("SemistableNotPoly", "direct sum with a non-polystable summand", False)
    return ("Unstable", "direct sum with an unstable summand", False)


def component(g, f) -> dict:
    """Component label of a datum: Hitchin(spin) at c = 2g-2, ZeroSW(c)
    for w1 = 0 and c < 2g-2, SW(w1, w2) for w1 != 0.  Raises DomainError
    for non-maximal or non-polystable data."""
    t = toledo(g, f)
    if t != rank(f) * (g - 1):
        raise DomainError("NotMaximal", "Toledo invariant %d is not maximal" % t)
    if stability(g, f)[0] not in POLYSTABLE:
        raise DomainError("NotPolystable", "datum is not polystable")
    shape = f["shape"]
    if shape == "diagonal":
        if f["c"] == 2 * g - 2:
            return {"component": "Hitchin", "spin": f["spin"]}
        return {"component": "ZeroSW", "c": f["c"]}
    if shape == "cover_orth":
        return {"component": "SW", "w1": f["w1"], "w2": f["w2"]}
    if shape == "irreducible_image":
        return {"component": "Hitchin", "spin": f["torsion"]}
    if shape == "sl2r":
        w1, w2 = f["torsion"], 0
    elif shape == "torsion_split":
        w1, w2 = xor_bits(f["t1"], f["t2"]), pairing(f["t1"], f["t2"])
    else:  # sum of two maximal rank-1 data: Whitney sum rule
        t1, t2 = (s["torsion"] for s in f["summands"])
        w1, w2 = xor_bits(t1, t2), pairing(t1, t2)
    if "1" in w1:
        return {"component": "SW", "w1": w1, "w2": w2}
    if shape == "sl2r":
        raise DomainError("NotPolystable", "cannot classify: no integer lift for w1 = 0")
    return {"component": "ZeroSW", "c": 0}


def verdict(label: dict) -> tuple:
    """(admits, zariski_dense): Hitchin admits the irreducible subgroup
    only; SW and ZeroSW(0) admit the product and diagonal subgroups; the
    intermediate ZeroSW(c) components are Zariski dense."""
    if label["component"] == "Hitchin":
        return (["G_i"], False)
    if label["component"] == "ZeroSW" and label["c"] > 0:
        return ([], True)
    return (["G_Delta", "G_p"], False)


def emit(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def expected(cmd: str, g: int, datum: dict, f: dict) -> tuple:
    """(exit code, exact stdout) of ``sp4higgs <cmd> --in <datum>``."""
    try:
        if cmd == "classify":
            label = component(g, f)
            admits, dense = verdict(label)
            return 0, emit(dict(label, admits=admits, zariski_dense=dense))
        if cmd == "stability":
            v, clause, non_simple = stability(g, f)
            return 0, emit({"verdict": v, "clause": clause, "non_simple": non_simple})
        return 0, emit(normal_form(g, datum, f))
    except DomainError as exc:
        return 1, emit({"error": exc.error, "clause": exc.clause})


def normal_form(g: int, datum: dict, f: dict) -> dict:
    """Scaling-orbit representative (t^2 beta1, t^-2 beta2, beta3) with
    the first nonzero beta2 coefficient scaled to 1; the identity at
    c = 2g-2.  The generator stores the scale s = t^2 it applied."""
    if f["shape"] != "diagonal":
        raise DomainError("WrongShape", "normal-form expects a diagonal-shape datum")
    c = f["c"]
    if not 0 < c <= 2 * g - 2:
        raise DomainError("OutOfClassifiedRange", "normal form defined for "
                          "0 < c <= 2g-2, got c = %d" % c)
    out = dict(datum, genus=g)
    if c == 2 * g - 2:
        return out
    if f["b2z"]:
        raise DomainError("OutOfClassifiedRange", "beta2 = 0 in the open range is "
                          "unstable; no normal form")
    s = f["scale"]
    out["beta1"] = dict(datum["beta1"], coeffs=[
        elem_json(elem_mul(s, x)) for x in f["beta1"]])
    out["beta2"] = dict(datum["beta2"], coeffs=[elem_json(x) for x in f["normal_beta2"]])
    return out


def scale_for_normal_form(rng, g, datum, f, style):
    """Turn a diagonal datum whose beta2 is already normalized into a
    generic orbit member: beta2 <- s * beta2, so the library's pivot is s."""
    s = rand_elem(rng, style)
    f["scale"], f["normal_beta2"] = s, f["beta2"]
    scaled = [elem_mul(s, x) for x in f["beta2"]]
    datum["beta2"] = dict(datum["beta2"], coeffs=[elem_json(x) for x in scaled])


# -- workload inputs -------------------------------------------------------------------


def maximal_polystable(rng, g, style, shape, pick=None) -> tuple:
    """A maximal polystable datum of ``shape`` (anything but bare sl2r,
    which the reduction checkers do not take).  ``pick(lo, hi)`` draws
    the invariant c; it defaults to a uniform draw."""
    pick = pick or rng.randint
    if shape == "diagonal":
        c = pick(0, 2 * g - 2)
        if c == 0:
            both = rng.random() < 0.5
            return gen_diagonal(rng, g, style, 0, both, both, rng.random() < 0.5)
        return gen_diagonal(rng, g, style, c, rng.random() < 0.5, False,
                            rng.random() < 0.5)
    if shape == "cover_orth":
        return gen_cover(rng, g)
    if shape == "torsion_split":
        return gen_torsion_split(rng, g, style)
    if shape == "irreducible_image":
        return gen_rank1(rng, g, style, shape, g - 1, rng.random() < 0.5, False)
    return gen_direct_sum(rng, g, style)


CENSUS_SHAPES = ("diagonal", "cover_orth", "torsion_split", "irreducible_image",
                 "direct_sum")
CLI_REQUESTS = (("diagonal", "classify"), ("diagonal", "stability"),
                ("diagonal", "normal-form")) + tuple(
    (shape, cmd) for shape in CENSUS_SHAPES[1:] + ("sl2r",)
    for cmd in ("classify", "stability"))
CLI_ERRORS = ("nonmaximal", "unstable", "wrongshape")
STYLES = ("sparse", "dense")
CLI_REPEATS = 2


def slice_picker(part: int, parts: int):
    """pick(lo, hi): the middle of the part-th of ``parts`` equal slices
    of [lo, hi].  The corpora fix c and deg L this way, so request cost,
    which grows with section-space dimension, has the same mix for every
    seed."""
    def pick(lo, hi):
        n = hi - lo + 1
        a, b = lo + part * n // parts, lo + (part + 1) * n // parts - 1
        return (a + max(a, b)) // 2
    return pick


def cli_item(rng, g, style, shape, cmd, pick) -> dict:
    """One classify_cli request; ``shape`` is an error kind from
    CLI_ERRORS for the requests whose answer is a domain error."""
    coin = lambda: rng.random() < 0.5  # noqa: E731
    if shape == "nonmaximal":
        datum, f = gen_rank1(rng, g, style, "sl2r", pick(1 - g, g - 2), coin(), coin())
    elif shape == "unstable":
        datum, f = gen_diagonal(rng, g, style, pick(1, 2 * g - 2), coin(), True, coin())
    elif shape == "wrongshape":
        datum, f = maximal_polystable(rng, g, style, rng.choice(CENSUS_SHAPES[1:]))
    elif cmd == "normal-form":
        c = pick(1, 2 * g - 2)
        datum, f = gen_diagonal(rng, g, style, c, False, False, coin(), pivot=True)
        if c < 2 * g - 2:
            scale_for_normal_form(rng, g, datum, f, style)
    elif cmd == "stability":
        datum, f = stability_datum(rng, g, style, shape, pick)
    elif shape == "sl2r":
        datum, f = gen_rank1(rng, g, style, "sl2r", g - 1, coin(), False,
                             torsion=rand_bits(rng, 2 * g, nonzero=True))
    else:
        datum, f = maximal_polystable(rng, g, style, shape, pick)
    datum = dict(datum, genus=g)
    code, out = expected(cmd, g, datum, f)
    return {"cmd": cmd, "genus": g, "datum": datum, "exit": code, "stdout": out}


def stability_datum(rng, g, style, shape, pick) -> tuple:
    """Any-verdict datum for the stability command (never a domain error)."""
    coin = lambda: rng.random() < 0.5  # noqa: E731
    if shape == "diagonal":
        return gen_diagonal(rng, g, style, pick(0, 2 * g - 2), coin(), coin(), coin())
    if shape == "sl2r":
        return gen_rank1(rng, g, style, "sl2r", pick(1 - g, g - 1), coin(), coin())
    if shape == "irreducible_image":
        deg = pick(0, g - 1)
        if deg == 0:
            both = coin()
            return gen_rank1(rng, g, style, shape, 0, both, both)
        return gen_rank1(rng, g, style, shape, deg, coin(), False)
    return maximal_polystable(rng, g, style, shape, pick)


def classify_cli_inputs(seed: int, size=None) -> list:
    """The classify_cli corpus: a stratified plan, so every seed has the
    same mix.  Each genus 2-8 gets every (shape, command) request in both
    coefficient styles CLI_REPEATS times, with c or deg L in the middle
    of a different slice of its range each time, plus one request of each
    domain-error kind per genus and style (42 of 406, about 10%).  The
    plan is shuffled; ``size`` keeps its first entries."""
    rng = random.Random("classify_cli:%d" % seed)
    plan = [(g, style, shape, cmd, rep) for g in range(2, 9) for style in STYLES
            for shape, cmd in CLI_REQUESTS for rep in range(CLI_REPEATS)]
    plan += [(g, style, kind, "normal-form" if kind == "wrongshape" else "classify", 0)
             for g in range(2, 9) for style in STYLES for kind in CLI_ERRORS]
    rng.shuffle(plan)
    return [cli_item(rng, g, style, shape, cmd, slice_picker(rep, CLI_REPEATS))
            for g, style, shape, cmd, rep in plan[:size]]


def census_inputs(seed: int, repeats: int = 7) -> list:
    """The census op stream: every (g, n, w1, w2) witness request for
    g = 2, 3, 4 and n = 3, 4, plus generated maximal polystable data with
    their expected labels: per genus, every census shape in both styles
    ``repeats`` times, with c from a different slice each time.  The
    stream is shuffled."""
    rng = random.Random("census:%d" % seed)
    ops = [{"kind": "witness", "genus": g, "n": n, "w1": w1, "w2": w2}
           for g in (2, 3, 4) for n in (3, 4) for w1 in all_bits(2 * g)
           for w2 in (0, 1)]
    for g in (2, 3, 4):
        for shape in CENSUS_SHAPES:
            for style in STYLES:
                for rep in range(repeats):
                    datum, f = maximal_polystable(rng, g, style, shape,
                                                  slice_picker(rep, repeats))
                    label = component(g, f)
                    admits, dense = verdict(label)
                    ops.append({"kind": "consistency", "genus": g,
                                "datum": dict(datum, genus=g), "label": label,
                                "admits": admits, "zariski_dense": dense})
    rng.shuffle(ops)
    return ops


def rand_sl2(rng: random.Random, regime: str) -> list:
    """Determinant-1 matrix [a, b, c, d].  "small": every entry has
    |num|, den <= 9 (rejection sampling on d = (1 + bc)/a).  "large":
    integer entries up to 1000, completed by the extended Euclidean
    algorithm from a coprime first row."""
    if regime == "small":
        while True:
            a, b, c = (rand_frac(rng, 9, nonzero=True) for _ in range(3))
            d = (1 + b * c) / a
            if abs(d.numerator) <= 9 and d.denominator <= 9:
                return [a, b, c, d]
    while True:
        a, b = rng.randint(-1000, 1000), rng.randint(1, 1000)
        if a and math.gcd(a, b) == 1:
            break
    # a*s + b*t = 1 with |s| <= b, |t| <= |a|, so d = s and c = -t
    s0, s1, r0, r1 = 1, 0, a, b
    while r1:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    s = s0 * r0  # r0 = +-1
    t = (1 - a * s) // b
    return [Fraction(a), Fraction(b), Fraction(-t), Fraction(s)]


def exact_lie_inputs(seed: int, n: int) -> list:
    """Identity-bundle samples, two small-coefficient samples to each
    large one, in a fixed interleave so every run has the same mix."""
    rng = random.Random("exact_lie:%d" % seed)
    out = []
    for k in range(n):
        regime = "large" if k % 3 == 2 else "small"
        bound = 9 if regime == "small" else 1000
        tr = lambda: [rand_frac(rng, bound) for _ in range(3)]  # noqa: E731
        out.append({
            "regime": regime,
            "A": rand_sl2(rng, regime), "B": rand_sl2(rng, regime),
            "X": tr(), "Y": tr(),
            "a": rand_frac(rng, 9), "b": rand_frac(rng, 9),
            "beta": rand_elem(rng, "dense", 9), "gamma": rand_elem(rng, "dense", 9),
            "lam": rand_elem(rng, "dense", 9),
        })
    return out


def _plain(x):
    if isinstance(x, Fraction):
        return fstr(x)
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x


def inputs_bytes(inputs) -> bytes:
    """Canonical bytes of a workload's generated inputs."""
    return json.dumps(_plain(inputs), sort_keys=True).encode()
