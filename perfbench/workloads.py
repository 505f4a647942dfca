"""The three benchmark workloads: inputs, the timed operation, the gate.

Every workload is a closed loop with one client: the next operation is
sent when the previous one returns.  Inputs come in rounds drawn from a
seeded generator, and each round holds a fixed mix of strata (field,
degree, kind), shuffled; a run measures whole rounds, so two seeds give
the same mix and differ only in the expressions drawn inside each
stratum.  Generation and checking use the library but run outside the
timed region; the timed operation sees only the generated input.
"""

import random

# ops whose ramification needs F_{q^d} beyond these are counted as
# needing a non-interned extension field, or as beyond the desk scale
INTERN_BOUND = 1 << 13
DESK_SCALE_BOUND = 1 << 24


class Outcome:
    """What one timed operation returned or raised, and how long it took:
    in wall seconds and in seconds at the reference pace (speed.py)."""

    __slots__ = ("inp", "result", "error", "seconds", "scaled")

    def __init__(self, inp, result, error, seconds, scaled):
        self.inp = inp
        self.result = result
        self.error = error
        self.seconds = seconds
        self.scaled = scaled


def is_desk_scale_refusal(error):
    return isinstance(error, ValueError) and "desk-scale bound" in str(error)


def _elem_text(a):
    """Coefficient text the parser reads: an integer, or a polynomial in t."""
    ctx = a.ctx
    if ctx.n == 1:
        return str(a.key)
    terms = []
    for i, c in enumerate(a.rep):
        if c:
            terms.append(str(c) if i == 0 else "%d*t^%d" % (c, i))
    return "+".join(terms) if terms else "0"


def _poly_text(coeffs):
    terms = ["(%s)*x^%d" % (_elem_text(c), i)
             for i, c in enumerate(coeffs) if c.key]
    return "+".join(terms) if terms else "0"


def _random_expr(rc, rng, ctx, degree):
    """A random expression of exact degree, with the raw text a user
    would type for it (numerator and denominator before reduction)."""
    while True:
        num = [ctx.from_key(rng.randrange(ctx.q)) for _ in range(degree + 1)]
        den = [ctx.from_key(rng.randrange(ctx.q)) for _ in range(degree + 1)]
        if not any(c.key for c in den):
            continue
        R = rc.expr(ctx, num, den)
        if R.degree == degree:
            return R, "(%s)/(%s)" % (_poly_text(num), _poly_text(den))


def _random_moebius(rc, rng, ctx):
    while True:
        a, b, c, d = (ctx.from_key(rng.randrange(ctx.q)) for _ in range(4))
        if (a * d - b * c).key:
            return rc.Moebius(ctx, a, b, c, d)


def random_pair(rc, rng, ctx):
    return rc.PairAction(_random_moebius(rc, rng, ctx),
                         _random_moebius(rc, rng, ctx))


def wronskian_shape(R):
    """How the Wronskian W of R factors, as text, and the largest degree
    of its irreducible factors.

    The shape lists each irreducible factor by its degree, with ^m for
    a factor of multiplicity m, and "inf" with its order when W falls
    short of degree 2r - 2, the ramification at infinity: "1+3",
    "1^2+2", "2^2", "1+2+inf".  The factor degrees are the degrees of
    the extensions the finite ramification points live in, so the shape
    decides which fields ramify scans and most of what classifying R
    costs.  Inseparable R (W = 0) has the shape "inseparable".
    """
    from collections import Counter
    from ratclass.poly import divmod_poly, factor_degree_pattern, radical
    from ratclass.ramify import wronskian
    W = wronskian(R)
    if W.is_zero:
        return "inseparable", 1
    # pass k strips one copy of every factor of multiplicity >= k
    at_least = []
    f = W.monic()
    while f.degree:
        r = radical(f)
        at_least.append(Counter(d for d, count in factor_degree_pattern(r)
                                for _ in range(count)))
        f = divmod_poly(f, r)[0]
    parts = []
    for m, degrees in enumerate(at_least, 1):
        exact = degrees - (at_least[m] if m < len(at_least) else Counter())
        parts += [(d, m) for d in exact.elements()]
    parts.sort()
    text = ["%d^%d" % (d, m) if m > 1 else "%d" % d for d, m in parts]
    at_inf = 2 * R.degree - 2 - W.degree
    if at_inf:
        text.append("inf^%d" % at_inf if at_inf > 1 else "inf")
    return "+".join(text), max((d for d, _ in parts), default=1)


def setup_fields(rc, fields):
    """What a server does before taking requests: create each field and
    its extensions of degree 2 to 4 that fit under the desk-scale bound."""
    ctxs = []
    for p, n in fields:
        ctx = rc.field_create(p, n)
        for d in (2, 3, 4):
            if ctx.q ** d <= DESK_SCALE_BOUND:
                rc.extend(ctx, d)
        ctxs.append(ctx)
    return ctxs


class Workload:
    name = None
    fields = ()
    # fixed per workload so that a faster commit, which fits more
    # operations into the same time, is still judged at the same
    # percentile; chosen so at least ten samples lie beyond it
    tail_percentile = None

    def __init__(self, rc, seed):
        self.rc = rc
        self.rng = random.Random("%s/%d" % (self.name, seed))
        self.check_rng = random.Random("%s/%d/check" % (self.name, seed))
        # the inputs of the arithmetic counting pass, apart from the
        # measured stream so that counting changes none of its inputs
        self.count_rng = random.Random("%s/%d/count" % (self.name, seed))
        self.ctxs = setup_fields(rc, self.fields)

    def work(self, inp):
        """Units of work in one operation, for the throughput figure."""
        return 1


# How often each Wronskian shape turns up among the random expressions
# _random_expr draws: counts in DRAWS draws per field and degree, made
# with `python3 perfbench/workloads.py`.  A round of classify-stream
# holds the shapes of each field and degree in these proportions, so
# every seed sees the same mix of costs; draws of shapes the round has
# no seat left for are discarded.
DRAWS = 20000
SHAPE_COUNTS = {
    (11, 1): {
        2: {"2": 9163, "1+1": 9023, "1+inf": 1814},
        3: {"1+3": 6613, "4": 4508, "1+1+2": 3748, "2+2": 1339, "1^2+2": 826,
            "1+2+inf": 773, "1+1+1^2": 670, "3+inf": 600, "1+1+1+1": 301,
            "1+1^2+inf": 143, "1+1+1+inf": 138, "2+inf^2": 93, "1+1+inf^2": 89,
            "2^2": 79, "1^2+1^2": 65, "1^2+inf^2": 15},
    },
    (13, 1): {
        2: {"2": 9315, "1+1": 9155, "1+inf": 1530},
        3: {"1+3": 6627, "4": 4536, "1+1+2": 3994, "2+2": 1524, "1^2+2": 735,
            "1+2+inf": 626, "1+1+1^2": 587, "3+inf": 511, "1+1+1+1": 388,
            "1+1+1+inf": 159, "1+1^2+inf": 109, "1^2+1^2": 51, "2+inf^2": 49,
            "1+1+inf^2": 48, "2^2": 43, "1^2+inf^2": 13},
    },
    (3, 3): {
        2: {"2": 9747, "1+1": 9506, "1+inf": 747},
        3: {"1+3": 6524, "4": 4757, "1+1+2": 4476, "2+2": 2142, "1+1^3": 707,
            "1+1+1+1": 639, "1+2+inf": 331, "3+inf": 236, "1+1+1+inf": 117,
            "1+inf^3": 27, "1^4": 22, "1^3+inf": 21, "inf^4": 1},
    },
    (31, 1): {
        2: {"1+1": 9719, "2": 9570, "1+inf": 711},
        3: {"1+3": 6708, "4": 4919, "1+1+2": 4445, "2+2": 2046, "1+1+1+1": 612,
            "1+1+1^2": 303, "1^2+2": 302, "1+2+inf": 293, "3+inf": 221,
            "1+1+1+inf": 99, "1+1^2+inf": 21, "2^2": 10, "2+inf^2": 9,
            "1^2+1^2": 7, "1+1+inf^2": 4, "1^2+inf^2": 1},
    },
    (2, 6): {
        2: {"1^2": 19688, "inf^2": 310, "inseparable": 2},
        3: {"2^2": 9697, "1^2+1^2": 9655, "1^2+inf^2": 324, "1^4": 319,
            "inf^4": 5},
    },
    (101, 1): {
        2: {"1+1": 9929, "2": 9873, "1+inf": 198},
        3: {"1+3": 6590, "4": 5005, "1+1+2": 4833, "2+2": 2406, "1+1+1+1": 776,
            "1+1+1^2": 99, "1+2+inf": 97, "1^2+2": 84, "3+inf": 77,
            "1+1+1+inf": 30, "2^2": 1, "1+1^2+inf": 1, "1+1+inf^2": 1},
    },
    (3, 5): {
        2: {"2": 10024, "1+1": 9892, "1+inf": 84},
        3: {"1+3": 6582, "4": 4983, "1+1+2": 4918, "2+2": 2472, "1+1+1+1": 881,
            "1+1^3": 77, "1+2+inf": 40, "3+inf": 33, "1+1+1+inf": 13,
            "1+inf^3": 1},
    },
}
ROUND_SEATS = {2: 5, 3: 20}
MAX_DRAWS = 10000
GOLDEN = (5 ** 0.5 - 1) / 2


def apportion(counts, seats):
    """Seats per key in proportion to counts, by largest remainder;
    keys with no seat are left out."""
    total = sum(counts.values())
    exact = {k: seats * v / total for k, v in counts.items()}
    out = {k: int(x) for k, x in exact.items()}
    short = seats - sum(out.values())
    for k in sorted(exact, key=lambda k: (out[k] - exact[k], k))[:short]:
        out[k] += 1
    return {k: v for k, v in out.items() if v}


def _draw_by_shape(rc, rng, ctx, degree, quota):
    """Random expressions of the given degree, quota[shape] of each."""
    left = dict(quota)
    out = []
    for _ in range(MAX_DRAWS):
        if not any(left.values()):
            return out
        R, text = _random_expr(rc, rng, ctx, degree)
        shape, ext_degree = wronskian_shape(R)
        if left.get(shape):
            left[shape] -= 1
            out.append((R, text, ext_degree))
    raise RuntimeError("no %s-expressions of Wronskian shapes %s over %s"
                       % (degree, sorted(k for k, v in left.items() if v),
                          ctx.name))


class ClassifyStream(Workload):
    """parse_expression then classify, on random quadratics and cubics.

    Four cubics per quadratic: a quadratic takes a few milliseconds and
    a cubic tens, so the median falls among the cubics instead of in
    the gap between the two.  Within a degree the Wronskian shapes come
    in their measured proportions (SHAPE_COUNTS).  The fields mix table
    arithmetic (q^d <= 2^13) with direct arithmetic in larger
    extensions.  Cubics over F_101 and F_243 whose Wronskian is
    irreducible of degree 4 need F_{q^4} > 2^24 and are refused by the
    library; F_64 cubics of shape 2^2 take the Cubic2_vi fiber scan over
    P^1(F_{q^2}), which sets the tail with the 1+3 cubics over F_243.
    """

    name = "classify-stream"
    fields = ((11, 1), (13, 1), (3, 3), (31, 1), (2, 6), (101, 1), (3, 5))
    tail_percentile = 95

    def __init__(self, rc, seed):
        super().__init__(rc, seed)
        self.quotas = [(ctx, degree, apportion(SHAPE_COUNTS[pn][degree],
                                               seats))
                       for ctx, pn in zip(self.ctxs, self.fields)
                       for degree, seats in ROUND_SEATS.items()]

    def _inputs(self, rng, one_each):
        out = []
        for ctx, degree, quota in self.quotas:
            if one_each:
                quota = dict.fromkeys(quota, 1)
            for R, text, ext_degree in _draw_by_shape(
                    self.rc, rng, ctx, degree, quota):
                out.append({"ctx": ctx, "text": text, "expr": R,
                            "ram_field": ctx.q ** ext_degree})
        return out

    def make_round(self):
        out = self._inputs(self.rng, False)
        self.rng.shuffle(out)
        return out

    def warmup_inputs(self):
        return self.make_round()[:14]

    def count_inputs(self):
        # one expression of every field, degree and shape in the round
        return self._inputs(self.count_rng, True)

    def run(self, inp):
        R = self.rc.parse_expression(inp["text"], inp["ctx"], require_map=True)
        return self.rc.classify(R)

    def check(self, out):
        """None when the outcome is right, "refused" for the documented
        desk-scale refusal, else a description of the failure."""
        rc = self.rc
        inp = out.inp
        if out.error is not None:
            if (inp["ram_field"] > DESK_SCALE_BOUND
                    and is_desk_scale_refusal(out.error)):
                return "refused"
            return "raised %s: %s" % (type(out.error).__name__, out.error)
        R = inp["expr"]
        label, witness = out.result
        if label.case == "FourPoint":
            S = rc.act(random_pair(rc, self.check_rng, R.ctx), R)
            if rc.classify(S)[0] != label:
                return "FourPoint label moved under a pair"
            return None
        if rc.act(witness.pair, R) != rc.canonical_rep(label, R.ctx):
            return "witness does not reach the representative"
        return None

    def properties(self, outcomes):
        n = len(outcomes)
        labels = [o.result[0].case for o in outcomes if o.result is not None]
        return {
            "fourpoint_share": (sum(c == "FourPoint" for c in labels)
                                / max(1, len(labels))),
            "non_interned_share": sum(o.inp["ram_field"] > INTERN_BOUND
                                      for o in outcomes) / n,
            "desk_scale_share": sum(o.inp["ram_field"] > DESK_SCALE_BOUND
                                    for o in outcomes) / n,
        }


class EquivSearch(Workload):
    """are_equivalent(R, S) over F_7, F_8, F_9 and F_11.

    A quarter of the pairs have S = act((B, A), R), so the scan over
    PGL_2 stops at the source map A (or an earlier one that also fits);
    the rest pair R with an expression of a different class that is not
    FourPoint, which forces the full scan.  No ramification or root
    finding runs here.

    An early exit takes tens of milliseconds and a full scan hundreds.
    With half of each the median sat in the gap between the two modes
    and moved by a tenth from seed to seed; one early exit to three full
    scans puts it inside the full-scan mode.

    The early exit costs in proportion to where A sits in the scan
    order, so A is not drawn freely: stratum by stratum, successive
    rounds place it at a golden-ratio sequence of fractions of the scan,
    from a seeded offset, which covers the scan evenly within a few
    rounds.
    """

    name = "equiv-search"
    fields = ((7, 1), (2, 3), (3, 2), (11, 1))
    # the full scans of cubics over F_9 and F_11, the slowest strata,
    # are three sixteenths of the operations; p85 falls inside them
    tail_percentile = 85

    def __init__(self, rc, seed):
        super().__init__(rc, seed)
        self.scan = {ctx: rc.enumerate_pgl2(ctx) for ctx in self.ctxs}
        self.offset = {(ctx, degree): self.rng.random()
                       for ctx in self.ctxs for degree in (2, 3)}
        self.rounds = 0

    def _pair(self, rng, ctx, degree, equivalent, u):
        """R and S over ctx; when equivalent, the source map of S lies
        at the fraction u of the scan order."""
        rc = self.rc
        R, _ = _random_expr(rc, rng, ctx, degree)
        label = rc.classify(R)[0]
        if equivalent:
            scan = self.scan[ctx]
            A = scan[int(u * len(scan))]
            S = rc.act(rc.PairAction(_random_moebius(rc, rng, ctx), A), R)
        else:
            while True:
                S, _ = _random_expr(rc, rng, ctx, degree)
                other = rc.classify(S)[0]
                if other.case != "FourPoint" and other != label:
                    break
        return {"ctx": ctx, "R": R, "S": S, "equivalent": equivalent,
                "fourpoint": label.case == "FourPoint"}

    def make_round(self):
        out = [self._pair(self.rng, ctx, degree, equivalent,
                          (self.offset[ctx, degree] + self.rounds * GOLDEN)
                          % 1.0)
               for ctx in self.ctxs for degree in (2, 3)
               for equivalent in (True, False, False, False)]
        self.rounds += 1
        self.rng.shuffle(out)
        return out

    def warmup_inputs(self):
        return [self._pair(self.rng, ctx, 2, False, 0.0) for ctx in self.ctxs]

    def count_inputs(self):
        # one pair of every field, degree and kind in the round
        rng = self.count_rng
        return [self._pair(rng, ctx, degree, equivalent, rng.random())
                for ctx in self.ctxs for degree in (2, 3)
                for equivalent in (True, False)]

    def run(self, inp):
        return self.rc.are_equivalent(inp["R"], inp["S"])

    def check(self, out):
        inp = out.inp
        if out.error is not None:
            return "raised %s: %s" % (type(out.error).__name__, out.error)
        if out.result is None:
            return None if not inp["equivalent"] else "missed an equivalence"
        if self.rc.act(out.result, inp["R"]) != inp["S"]:
            return "returned pair does not map R onto S"
        if not inp["equivalent"]:
            return "pair found between different classes"
        return None

    def properties(self, outcomes):
        n = len(outcomes)
        return {
            "fourpoint_share": sum(o.inp["fourpoint"] for o in outcomes) / n,
            "non_interned_share": 0.0,
            "desk_scale_share": 0.0,
            "full_scan_share": sum(not o.inp["equivalent"]
                                   for o in outcomes) / n,
        }


class Partition(Workload):
    """all_classes(ctx, d) over every (field, degree) pair in the pass.

    One round is one pass over the six cases in seeded order, with the
    F_4 quadratics run three times.  The F_3 cubics exercise the orbit walks
    (1152 of their 1944 expressions lie in FourPoint buckets); the rest
    classify in bulk with table arithmetic.  Throughput counts
    expressions partitioned.

    The cases take from 15 ms to 4 s each.  With six operations in a
    pass the median fell in the gap between the F_3 and the F_4
    quadratics, and moved by a sixth from seed to seed.  Run three
    times, the F_4 quadratics hold the middle of eight operations, so
    the median is taken among them; they take about a second, long
    enough to time steadily.
    """

    name = "partition"
    cases = (((2, 1), 2), ((2, 1), 3), ((3, 1), 2), ((3, 1), 3),
             ((2, 2), 2), ((5, 1), 2))
    median_case = ((2, 2), 2)
    fields = ((2, 1), (3, 1), (2, 2), (5, 1))
    # a pass has eight operations, too few for ten samples beyond any
    # percentile; p90 of two passes is the faster of the two F_3 cubic
    # partitions, the slowest case
    tail_percentile = 90

    def _inputs(self, cases):
        return [{"ctx": self.rc.field_create(*pn), "degree": d}
                for pn, d in cases]

    def make_round(self):
        out = self._inputs(self.cases + (self.median_case,) * 2)
        self.rng.shuffle(out)
        return out

    def count_inputs(self):
        return self._inputs(self.cases)

    def warmup_inputs(self):
        return [{"ctx": self.rc.field_create(2, 1), "degree": 2}]

    def run(self, inp):
        return self.rc.all_classes(inp["ctx"], inp["degree"])

    def work(self, inp):
        # the number of expressions of degree r over F_q, in closed form
        q, r = inp["ctx"].q, inp["degree"]
        return q ** (2 * r - 1) * (q * q - 1)

    def check(self, out):
        inp = out.inp
        if out.error is not None:
            return "raised %s: %s" % (type(out.error).__name__, out.error)
        ctx, degree, report = inp["ctx"], inp["degree"], out.result
        orbits = self.rc.orbits
        if degree == 2:
            # the closed forms verify_statement checks for quad-counts
            observed = sorted(c["size"] for c in report.classes)
            expected = orbits._expected_quad_sizes(ctx.q, ctx.p)
        elif ctx.p == 2:
            observed = report.sizes_by_case()
            expected = orbits._expected_char2_cubic(ctx.q)
        else:
            observed = (report.class_count, report.total)
            expected = (7, 1944)
        if observed != expected:
            return "%s degree %d: observed %s, closed form %s" \
                % (ctx.name, degree, observed, expected)
        return None

    def properties(self, outcomes):
        four = total = 0
        for o in outcomes:
            if o.result is None:
                continue
            total += o.result.total
            four += sum(c["size"] for c in o.result.classes
                        if c["label"].case == "FourPoint")
        return {"fourpoint_share": four / max(1, total),
                "non_interned_share": 0.0, "desk_scale_share": 0.0}


WORKLOADS = {w.name: w for w in (ClassifyStream, EquivSearch, Partition)}


def count_shapes(rc, draws):
    """SHAPE_COUNTS afresh: the Wronskian shapes of `draws` random
    expressions per field of classify-stream and degree."""
    from collections import Counter
    out = {}
    for p, n in ClassifyStream.fields:
        ctx = rc.field_create(p, n)
        out[p, n] = {}
        for degree in ROUND_SEATS:
            rng = random.Random("shares/%d/%d/%d" % (p, n, degree))
            shapes = Counter(
                wronskian_shape(_random_expr(rc, rng, ctx, degree)[0])[0]
                for _ in range(draws))
            out[p, n][degree] = dict(shapes.most_common())
    return out


if __name__ == "__main__":
    import pathlib
    import pprint
    import sys
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    import ratclass
    draws = int(sys.argv[1]) if sys.argv[1:] else DRAWS
    pprint.pprint(count_shapes(ratclass, draws), sort_dicts=False)
