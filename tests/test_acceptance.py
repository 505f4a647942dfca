"""End-to-end acceptance checks, one test per stated result.

Each test covers one verifiable claim at desk scale: exact counts,
full class partitions, stabilizer orders, the branch-invariant
relation, the ramification-drop bound, witness soundness and the
S-action bookkeeping.  The expensive degree-3 partition over F_5 is
computed once per run and shared.  Every test prints a PASS or FAIL
line; run pytest with -s (or read the failure output) to see them.
"""

import importlib
import random
import time

import pytest

import ratclass.ffield as ff
import ratclass.moebius as mb
import ratclass.orbits as ob
import ratclass.ramify as rm
import ratclass.ratexpr as rx

cl = importlib.import_module("ratclass.classify")

F2 = ff.field_create(2)
F3 = ff.field_create(3)
F4 = ff.field_create(2, 2)
F5 = ff.field_create(5)
F7 = ff.field_create(7)
F9 = ff.field_create(3, 2)
F11 = ff.field_create(11)
F13 = ff.field_create(13)


def random_pair(ctx, rng):
    els = list(ctx)
    mats = []
    while len(mats) < 2:
        a, b, c, d = (rng.choice(els) for _ in range(4))
        if (a * d - b * c).key:
            mats.append(mb.Moebius(ctx, a, b, c, d))
    return mb.PairAction(mats[0], mats[1])


def random_expr(ctx, degree, rng):
    els = list(ctx)
    while True:
        num = [rng.choice(els) for _ in range(degree + 1)]
        den = [rng.choice(els) for _ in range(degree + 1)]
        if not any(v.key for v in den):
            continue
        R = rx.expr(ctx, num, den)
        if R.degree == degree:
            return R


@pytest.fixture(scope="module")
def f3_report():
    return ob.all_classes(F3, 3)


@pytest.fixture(scope="module")
def f5_report():
    t0 = time.perf_counter()
    report = ob.all_classes(F5, 3)
    return report, time.perf_counter() - t0


def check(name, ok, detail):
    print("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "%s: %s" % (name, detail)


def test_criterion_01_expression_counts():
    t0 = time.perf_counter()
    expected = {(2, 2): 24, (2, 3): 96, (3, 2): 216, (3, 3): 1944}
    enumerated = {}
    for (q, r), want in expected.items():
        ctx = F2 if q == 2 else F3
        enumerated[(q, r)] = sum(1 for _ in rx.enumerate_expressions(ctx, r))
    counts_ok = enumerated == expected
    pairs_ok = True
    for ctx in (F2, F3):
        q = ctx.q
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                if ob.coprime_pair_count(ctx, r, s) \
                        != q ** (r + s - 1) * (q - 1):
                    pairs_ok = False
    elapsed = time.perf_counter() - t0
    check("criterion 1 (expression counts)",
          counts_ok and pairs_ok and elapsed < 1.0,
          "enumerated %s, coprime monic pair counts %s, %.2fs" %
          (sorted(enumerated.values()), "exact" if pairs_ok else "WRONG",
           elapsed))


def test_criterion_02_quadratic_odd_partition():
    t0 = time.perf_counter()
    ok = True
    observed = {}
    for ctx in (F3, F5):
        q = ctx.q
        report = ob.all_classes(ctx, 2)
        sizes = sorted(c["size"] for c in report.classes)
        want = sorted([q * q * (q * q - 1) * (q + 1) // 2,
                       q * q * (q * q - 1) * (q - 1) // 2])
        observed[q] = sizes
        ok = ok and report.class_count == 2 and sizes == want
    elapsed = time.perf_counter() - t0
    ok = ok and observed[3] == [72, 144] and observed[5] == [1200, 1800]
    check("criterion 2 (odd quadratic partition)", ok and elapsed < 10.0,
          "F_3 %s, F_5 %s, %.1fs" % (observed[3], observed[5], elapsed))


def test_criterion_03_quadratic_char2_partition():
    observed = {}
    for ctx in (F2, F4):
        report = ob.all_classes(ctx, 2)
        observed[ctx.q] = sorted(c["size"] for c in report.classes)
    ok = (observed[2] == [6, 18] and observed[4] == [60, 900]
          and sum(observed[4]) == 960 == 4 ** 3 * (4 ** 2 - 1))
    check("criterion 3 (char 2 quadratic partition)", ok,
          "F_2 %s, F_4 %s" % (observed[2], observed[4]))


def test_criterion_04_cubic_char2_partition():
    t0 = time.perf_counter()
    r2 = ob.all_classes(F2, 3)
    r4 = ob.all_classes(F4, 3)
    sizes2 = sorted(c["size"] for c in r2.classes)
    sizes4 = sorted(c["size"] for c in r4.classes)
    elapsed = time.perf_counter() - t0
    ok = (r2.class_count == 4 and sizes2 == [6, 18, 36, 36]
          and r4.class_count == 10
          and sizes4 == [360, 600, 1200, 1200, 1200,
                         1800, 1800, 1800, 1800, 3600]
          and r4.total == 15360 and elapsed < 120.0)
    check("criterion 4 (char 2 cubic partition)", ok,
          "F_2 %d classes %s, F_4 %d classes %s, %.1fs" %
          (r2.class_count, sizes2, r4.class_count, sizes4, elapsed))


def test_criterion_05_cubic_char3_oracle(f3_report):
    sigma = ff.canonical_sigma(F3)
    targets = {
        "Cubic3_X3_Insep": rx.expr(F3, (0, 0, 0, 1)),
        "Cubic3_X3X2": rx.expr(F3, (0, 0, 1, 1)),
        "Cubic3_X3X": rx.expr(F3, (0, 1, 0, 1)),
        "Cubic3_X3SigmaX": rx.expr(F3, (F3.zero, sigma, F3.zero, F3.one)),
    }
    buckets = {}
    witnessed = 0
    for R in rx.enumerate_expressions(F3, 3):
        label, witness = cl.classify(R)
        buckets.setdefault(label, set()).add(R)
        if label.case != "FourPoint":
            assert witness is not None
            rep = cl.canonical_rep(label, F3)
            assert rep == targets[label.case]
            assert mb.act(witness.pair, R) == rep
            witnessed += 1
    # the orbit enumeration, which never classifies, is the independent
    # oracle: every label bucket must coincide with the orbit of its
    # representative
    orbits_agree = all(
        ob.orbit_of(c["representative"]) == buckets[c["label"]]
        for c in f3_report.classes)
    # representatives of distinct classes never admit an equivalence,
    # members of the same class always do, with a sound pair
    reps = [c["representative"] for c in f3_report.classes]
    negatives_ok = all(
        cl.are_equivalent(reps[i], reps[j]) is None
        for i in range(len(reps)) for j in range(i + 1, len(reps)))
    rng = random.Random(0)
    positives_ok = True
    for c in f3_report.classes:
        pool = sorted(buckets[c["label"]], key=str)
        for _ in range(3):
            R = rng.choice(pool)
            pair = cl.are_equivalent(R, c["representative"])
            if pair is None or mb.act(pair, R) != c["representative"]:
                positives_ok = False
    ok = (witnessed == 1944 - 1152 and len(buckets) == 7
          and orbits_agree and negatives_ok and positives_ok)
    check("criterion 5 (char 3 cubics vs orbit oracle)", ok,
          "%d witnessed onto the 4 polynomial forms, %d four-point, "
          "orbits %s, cross pairs %s" %
          (witnessed, 1944 - witnessed,
           "agree" if orbits_agree else "DISAGREE",
           "sound" if negatives_ok and positives_ok else "UNSOUND"))


def test_criterion_06_cubic_char5_partition(f5_report):
    report, elapsed = f5_report
    q = 5
    named_want = {
        "Cubic_X3": (q * q * (q * q - 1) * (q + 1) // 2, 8),
        "Cubic_TwoPointTwist": (q * q * (q * q - 1) * (q - 1) // 2, 12),
        "Cubic_Dickson": (q * q * (q * q - 1) ** 2 // 2, 2),
        "Cubic_DicksonTwist": (q * q * (q * q - 1) ** 2 // 2, 2),
    }
    ok = True
    named_total = 0
    seen_stabs = []
    for c in report.classes:
        case = c["label"].case
        if case == "FourPoint":
            continue
        want_size, want_stab = named_want[case]
        if c["size"] != want_size or c["stabilizer_order"] != want_stab:
            ok = False
        if ob.stabilizer_order(c["representative"]) != want_stab:
            ok = False
        named_total += c["size"]
        seen_stabs.append(want_stab)
    four_total = sum(c["size"] for c in report.classes
                     if c["label"].case == "FourPoint")
    ok = (ok and sorted(seen_stabs) == [2, 2, 8, 12]
          and named_total == 17400
          == q * q * (q - 1) * (q + 1) * (q * q + q - 1)
          and four_total == 57600 == q * q * (q + 1) ** 2 * (q - 1) ** 3
          and report.total == 75000 and elapsed < 300.0)
    check("criterion 6 (char 5 cubic partition)", ok,
          "named classes %d with stabilizers {8,12,2,2}, four-point %d, "
          "total %d, %.0fs" % (named_total, four_total, report.total,
                               elapsed))


def test_criterion_07_class_count_bound(f5_report):
    report, elapsed = f5_report
    ok = report.class_count == 10 <= 28 and elapsed < 600.0
    check("criterion 7 (class count bound)", ok,
          "%d classes over F_5, bound 28, regression value 10, %.0fs"
          % (report.class_count, elapsed))


def _valid_family_params(ctx):
    out = []
    two = ctx.scalar(2)
    for c in ctx:
        if c.key in (0, 1):
            continue
        if (two * c - ctx.one).key == 0 or c == two:
            continue
        if (c + ctx.one).key == 0:
            continue
        if (c * c - c + ctx.one).key == 0:
            continue
        out.append(c)
    return out


def test_criterion_08_branch_relation():
    ok = _valid_family_params(F7) == []
    detail = ["every c in F_7 is degenerate (vacuously true)"]
    for ctx in (F11, F13):
        valid = _valid_family_params(ctx)
        labels = set()
        for c in valid:
            lam, mu = cl.lambda_mu_of_c(c)
            if not cl.lambda_mu_relation(lam, mu):
                ok = False
            if mu * c * c != lam ** 3:
                ok = False
            label = cl.classify(cl.family_Rc(c))[0]
            labels.add(label)
            if label.case != "FourPoint":
                ok = False
            if label.param("lambda") != mb.s_orbit_min(lam):
                ok = False
            if not cl.lambda_mu_relation(label.param("lambda"),
                                         label.param("mu")):
                ok = False
        # the six valid parameters form one substitution orbit, so all
        # their family members must share a single label
        ok = ok and len(labels) == 1
        detail.append("F_%d valid c %s in %d class" %
                      (ctx.q, [c.key for c in valid], len(labels)))
    # distinct lambda-orbits stay inequivalent, one orbit collapses
    s3, s4, s5 = (cl.family_Rc(F13.scalar(v)) for v in (3, 4, 5))
    ok = ok and cl.are_equivalent(s3, s4) is None
    pair = cl.are_equivalent(s3, s5)
    ok = ok and pair is not None and mb.act(pair, s3) == s5
    check("criterion 8 (branch invariant relation)", ok,
          "; ".join(detail))


def _hurwitz_cross_check(R, ctx):
    prof = rm.ramification_profile(R)
    drop = sum(pt.index - 1 for pt in prof.points)
    bound = 2 * R.degree - 2
    recomputed = "violated" if drop > bound else (
        "holds_with_equality" if drop == bound else "holds_strict")
    hc = rm.hurwitz_check(R)
    assert hc == recomputed, (str(R), hc, recomputed)
    tame = all(e % ctx.p for e in prof.indices)
    assert (hc == "holds_with_equality") == tame, str(R)
    return hc


def test_criterion_09_ramification_bound():
    checked = 0
    equality = 0
    for ctx in (F2, F3, F4):
        for degree in (2, 3):
            for R in rx.enumerate_expressions(ctx, degree):
                if not rm.is_separable(R):
                    continue
                equality += _hurwitz_cross_check(R, ctx) \
                    == "holds_with_equality"
                checked += 1
    rng = random.Random(0)
    for ctx in (F5, F7):
        for _ in range(10 ** 4):
            R = random_expr(ctx, rng.choice((2, 3)), rng)
            equality += _hurwitz_cross_check(R, ctx) \
                == "holds_with_equality"
            checked += 1
    check("criterion 9 (ramification drop bound)",
          checked == 38510 and equality == 22352,
          "%d separable expressions checked, %d with equality, "
          "none violated" % (checked, equality))


def test_criterion_10_witness_soundness():
    rng = random.Random(0)
    ok = True
    totals = {}
    for ctx in (F2, F3, F4, F5):
        witnessed = 0
        invariant = 0
        for _ in range(10 ** 3):
            R = random_expr(ctx, rng.choice((2, 3)), rng)
            label, witness = cl.classify(R)
            if witness is None:
                if label.case != "FourPoint":
                    ok = False
                moved = mb.act(random_pair(ctx, rng), R)
                if cl.classify(moved)[0] != label:
                    ok = False
                invariant += 1
            else:
                if mb.act(witness.pair, R) != cl.canonical_rep(label, ctx):
                    ok = False
                witnessed += 1
        totals[ctx.q] = (witnessed, invariant)
    check("criterion 10 (witness soundness)", ok,
          "per field q: (witnessed, label-invariance checked) %s"
          % (sorted(totals.items()),))


def test_criterion_11_s_action_bookkeeping():
    expected_lengths = {5: [3, 3], 7: [2, 3, 3], 9: [1, 3, 6]}
    ok = True
    observed = {}
    for ctx in (F5, F7, F9):
        seen = set()
        lengths = []
        for P in rx.proj_points(ctx):
            if rx.proj_key(P) in seen:
                continue
            orbit = mb.s_orbit(P, ctx)
            seen.update(rx.proj_key(Q) for Q in orbit)
            lengths.append(len(orbit))
        observed[ctx.q] = sorted(lengths)
        if sorted(lengths) != expected_lengths[ctx.q]:
            ok = False
        if mb.s_orbit(rx.INF, ctx) != {rx.INF, ctx.zero, ctx.one}:
            ok = False
        two = ctx.scalar(2)
        half_orbit = mb.s_orbit(two)
        if ctx.p == 3:
            if half_orbit != {two}:
                ok = False
        elif half_orbit != {two, -ctx.one, two ** -1}:
            ok = False
    # the parameter-to-invariant map intertwines the substitutions
    # generating S
    minv = mb.Moebius(F7, 0, 1, 1, 0)
    mflip = mb.Moebius(F7, -1, 1, 0, 1)
    equivariant = True
    for c in F7:
        if c.key in (0, 1):
            continue
        lam = cl.lambda_mu_of_c(c)[0]
        for m in (minv, mflip):
            if cl.lambda_mu_of_c(m(c))[0] != m(lam):
                equivariant = False
    ok = ok and equivariant
    check("criterion 11 (S-action bookkeeping)", ok,
          "orbit length partitions %s, exceptional orbits pinned, "
          "equivariance %s" % (observed, "holds" if equivariant
                               else "FAILS"))
