import importlib
import json
import random

import pytest

import ratclass.ffield as ff
import ratclass.moebius as mb
import ratclass.orbits as ob
import ratclass.ratexpr as rx
from test_moebius import fel_pair_scan

# the package exports the classify function under the module's name,
# so bind the module itself explicitly
cl = importlib.import_module("ratclass.classify")

F2 = ff.field_create(2)
F3 = ff.field_create(3)
F4 = ff.field_create(2, 2)
F5 = ff.field_create(5)
F7 = ff.field_create(7)
F8 = ff.field_create(2, 3)
F9 = ff.field_create(3, 2)
F16 = ff.field_create(2, 4)

GROUP_SQ = {q: (q ** 3 - q) ** 2 for q in (2, 3, 5, 7)}


@pytest.fixture(scope="module")
def f3_cubic():
    return ob.all_classes(F3, 3)


@pytest.fixture(scope="module")
def f7_cubic():
    # about 2 s and 17 MB
    return ob.all_classes(F7, 3)


def test_coprime_pair_count_matches_formula():
    for ctx in (F2, F3):
        q = ctx.q
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                assert ob.coprime_pair_count(ctx, r, s) \
                    == q ** (r + s - 1) * (q - 1)
    # coprime monic linear pairs over F_2: (x, x+1) and (x+1, x)
    assert ob.coprime_pair_count(F2, 1, 1) == 2
    assert ob.coprime_pair_count(F3, 2, 1) == 18
    with pytest.raises(ValueError):
        ob.coprime_pair_count(F2, 0, 1)
    with pytest.raises(ValueError):
        ob.coprime_pair_count(F2, 1, 0)
    with pytest.raises(ValueError):
        ob.coprime_pair_count(ff.field_create(5, 2), 3, 3)


def test_orbit_of_basepoint_free():
    # the orbit is the same set no matter which member seeds the walk
    R = rx.expr(F2, (0, 0, 0, 1))
    orb = ob.orbit_of(R)
    assert len(orb) == 18
    other = sorted(orb, key=lambda S: S.key)[5]
    assert ob.orbit_of(other) == orb
    # quadratic orbit of x^2 in characteristic 2
    assert len(ob.orbit_of(rx.expr(F2, (0, 0, 1)))) == 6


def test_orbits_partition_f2_cubics():
    reps = [rx.expr(F2, (0, 0, 0, 1)),
            rx.expr(F2, (1, 1, 0, 1), (0, 1, 1)),
            rx.expr(F2, (0, 0, 1, 1)),
            rx.expr(F2, (1, 0, 0, 1), (0, 1))]
    orbs = [ob.orbit_of(R) for R in reps]
    assert sorted(len(o) for o in orbs) == [6, 18, 36, 36]
    everything = set(rx.enumerate_expressions(F2, 3))
    assert set().union(*orbs) == everything
    for i in range(len(orbs)):
        for j in range(i + 1, len(orbs)):
            assert not orbs[i] & orbs[j]


def bfs_orbit(R):
    # breadth-first walk under (B, 1) and (1, A) for B, A in a generating
    # set of PGL_2: x + 1, 1/x and x times a primitive element
    ctx = R.ctx
    idm = mb.identity(ctx)
    gens = [mb.Moebius(ctx, 1, 1, 0, 1), mb.Moebius(ctx, 0, 1, 1, 0)]
    if ctx.primitive.key != 1:
        gens.append(mb.Moebius(ctx, ctx.primitive, 0, 0, 1))
    pairs = [mb.PairAction(M, idm) for M in gens] \
        + [mb.PairAction(idm, M) for M in gens]
    seen = {R}
    frontier = [R]
    while frontier:
        nxt = []
        for S in frontier:
            for pair in pairs:
                T = mb.act(pair, S)
                if T not in seen:
                    seen.add(T)
                    nxt.append(T)
        frontier = nxt
    return seen


def test_orbit_of_matches_breadth_first_oracle(f3_cubic):
    seeds = [rx.expr(F2, (0, 0, 0, 1)),
             rx.expr(F2, (1, 1, 0, 1), (0, 1, 1)),
             rx.expr(F2, (0, 0, 1, 1)),
             rx.expr(F2, (1, 0, 0, 1), (0, 1))]
    # each F_3 FourPoint bucket is a single class
    four = [c["representative"] for c in f3_cubic.classes
            if c["label"].case == "FourPoint"]
    assert len(four) == 3
    seeds += four
    for R in seeds:
        assert ob.orbit_of(R) == bfs_orbit(R), str(R)


def test_orbit_scale_guard():
    assert len(ob.orbit_of(rx.expr(F2, (0, 0, 0, 1)))) == 18
    # 16^5 * 255 expressions sit far beyond the desk-scale bound
    with pytest.raises(ValueError, match="exceed the limit 16777216"):
        ob.orbit_of(rx.expr(F16, (0, 0, 0, 1)))
    with pytest.raises(ValueError, match="exceed the limit 16777216"):
        ob.all_classes(F16, 3)


def test_desk_scale_refusals_share_one_error():
    # each of the five checks of the bound raises the one typed error,
    # whose message names the bound; a field is refused when no
    # extension degree k <= 4 puts its base within the bound
    F257 = ff.field_create(257)
    refusals = {
        "field": lambda: ff.field_create(2, 25),
        "field of prime degree": lambda: ff.field_create(2, 97),
        "pgl2": lambda: next(mb.pair_scan(rx.expr(F257, (0, 0, 0, 1)),
                                          rx.expr(F257, (0, 0, 0, 1)))),
        "pairs": lambda: ob.coprime_pair_count(F16, 3, 4),
        "orbits": lambda: ob.orbit_of(rx.expr(F16, (0, 0, 0, 1))),
        "enumerate": lambda: rx.enumerate_expressions(
            ff.field_create(11), 3),
    }
    for name, refuse in refusals.items():
        with pytest.raises(ff.ScaleLimitError) as info:
            refuse()
        msg = str(info.value)
        assert "desk-scale bound" in msg, name
        assert "exceed the limit %d" % ff.DESK_SCALE_BOUND in msg, name
    assert issubclass(ff.ScaleLimitError, ValueError)
    assert ff.DESK_SCALE_BOUND == 1 << 24


def test_stabilizer_orders_frozen():
    assert ob.stabilizer_order(rx.expr(F2, (0, 0, 0, 1))) == 2
    assert ob.stabilizer_order(rx.expr(F2, (1, 1, 0, 1), (0, 1, 1))) == 6
    assert ob.stabilizer_order(rx.expr(F3, (0, 0, 0, 1))) == 24
    # two-point cases have stabilizers 2(q-1) and 2(q+1), Dickson cases 2
    named = [("Cubic_X3", 8), ("Cubic_TwoPointTwist", 12),
             ("Cubic_Dickson", 2), ("Cubic_DicksonTwist", 2)]
    for case, expected in named:
        R = cl.canonical_rep(cl.ClassLabel(case), F5)
        assert ob.stabilizer_order(R) == expected
    assert ob.stabilizer_order(rx.expr(F7, (0, 0, 0, 1))) == 12


def test_orbit_stabilizer_product():
    for ctx, R in [(F2, rx.expr(F2, (0, 0, 0, 1))),
                   (F2, rx.expr(F2, (1, 1, 0, 1), (0, 1, 1))),
                   (F3, rx.expr(F3, (0, 0, 0, 1))),
                   (F3, rx.expr(F3, (0, 0, 0, 1), (1, 1)))]:
        orb = ob.orbit_of(R)
        assert len(orb) * ob.stabilizer_order(R) == GROUP_SQ[ctx.q]


def expression_oracle(ctx, degree):
    """all_classes by classifying every expression, as it was computed
    before the partition walked pencils.

    While it walks, each expression's label is checked against the
    label of its pencil's representative, which is found here by
    reducing the expression's own pencil to echelon form.
    """
    reps = {R: cl.classify(R)[0] for R in ob._pencils(ctx, degree)}
    q = ctx.q
    assert len(reps) == q ** (2 * degree - 2)
    per_pencil = dict.fromkeys(reps, 0)
    buckets = {}
    for S in rx.enumerate_expressions(ctx, degree):
        label = cl.classify(S)[0]
        rep = pencil_rep(S)
        assert reps[rep] == label, (str(S), str(rep))
        per_pencil[rep] += 1
        buckets.setdefault(label, []).append(S)
    assert set(per_pencil.values()) == {q ** 3 - q}
    group_sq = (q ** 3 - q) ** 2
    classes = []
    for label in sorted(buckets, key=ob._label_sort_key):
        members = buckets[label]
        if label.case != "FourPoint":
            found = [(cl.canonical_rep(label, ctx), len(members))]
        else:
            found = []
            remaining = set(members)
            while remaining:
                orb = ob.orbit_of(min(remaining, key=lambda R: R.key))
                assert orb <= remaining
                remaining -= orb
                found.append((min(orb, key=lambda R: R.key), len(orb)))
        for rep, size in found:
            classes.append({"representative": rep, "size": size,
                            "label": label,
                            "stabilizer_order": group_sq // size})
    return ob.OrbitReport(q, degree, classes,
                          sum(c["size"] for c in classes))


def pencil_rep(S):
    """f/g from the reduced echelon basis of <S_num, S_den>, with the
    coefficient columns taken from x^r down."""
    ctx, r = S.ctx, S.degree
    rows = [[f.coeff(k) for k in range(r + 1)] for f in (S.num, S.den)]
    if not rows[0][r].key:
        rows.reverse()
    f = [c / rows[0][r] for c in rows[0]]
    h = [a - rows[1][r] * b for a, b in zip(rows[1], f)]
    s = max(k for k in range(r) if h[k].key)
    g = [c / h[s] for c in h[:s + 1]] + [ctx.zero] * (r - s)
    f = [a - f[s] * b for a, b in zip(f, g)]
    return rx.expr(ctx, f, g)


ORACLE_CASES = [(F2, 2), (F2, 3), (F3, 2), (F3, 3), (F4, 2), (F5, 2),
                (F4, 3)]


@pytest.mark.parametrize("ctx, degree", ORACLE_CASES,
                         ids=["%s-%d" % (c.name, d) for c, d in ORACLE_CASES])
def test_all_classes_matches_expression_oracle(ctx, degree):
    # the benchmark's six partition cases and the F_4 cubics
    want = json.dumps(expression_oracle(ctx, degree).to_json(ctx))
    assert json.dumps(ob.all_classes(ctx, degree).to_json(ctx)) == want


def test_all_classes_classifies_pencils_and_checks_members(monkeypatch):
    # over F_3 one classify per pencil: 1944 cubics / 24 members = 81.
    # Each of the 33 non-FourPoint pencils folds its representative R
    # by B0 once, then builds every member M = E(B0(R)) once: one fold
    # per member, 1944 - 1152 FourPoint members = 792, and no act
    # outside classify
    calls = {"classify": 0, "act": 0, "orbit_of": 0}
    folds = []
    inside = []
    classify, act = ob.classify, cl.act
    fold_key, orbit_of = ob._fold_key, ob.orbit_of

    def counted_classify(R):
        calls["classify"] += 1
        inside.append(R)
        try:
            return classify(R)
        finally:
            inside.pop()

    def counted_act(pair, R):
        if not inside:
            calls["act"] += 1
        return act(pair, R)

    def counted_fold_key(ctx, codes, num, den):
        key = fold_key(ctx, codes, num, den)
        folds.append(key)
        return key

    def counted_orbit_of(R):
        calls["orbit_of"] += 1
        return orbit_of(R)

    monkeypatch.setattr(ob, "classify", counted_classify)
    monkeypatch.setattr(cl, "act", counted_act)
    monkeypatch.setattr(ob, "_fold_key", counted_fold_key)
    monkeypatch.setattr(ob, "orbit_of", counted_orbit_of)
    report = ob.all_classes(F3, 3)
    assert report.total == 1944
    assert calls == {"classify": 81, "act": 0, "orbit_of": 0}
    # per pencil: B0(R), then one member per E
    block = 1 + 24
    assert len(folds) == 33 * block
    members = {k for i in range(0, len(folds), block)
               for k in folds[i + 1:i + block]}
    assert len(members) == 792
    # the members and the FourPoint classes make up every cubic
    four = set()
    for c in report.classes:
        if c["label"].case == "FourPoint":
            four |= {S.key for S in orbit_of(c["representative"])}
    assert not members & four
    assert members | four == {S.key for S in
                              rx.enumerate_expressions(F3, 3)}


@pytest.mark.parametrize("tamper", ["A", "target", "class"])
def test_all_classes_rejects_a_tampered_witness(monkeypatch, f3_cubic,
                                                tamper):
    # the first non-FourPoint pencil gets a witness whose source map or
    # target no longer satisfies B0(R) = T(A0): a target in the same
    # class, or the canonical representative of another class.  The
    # check on codes must catch it once per pencil, after the one fold
    # of B0(R) and before any member is built
    classify, fold_key = ob.classify, ob._fold_key
    group = mb.enumerate_pgl2(F3)
    tampered = []
    folds = []

    def bad_classify(R):
        label, w = classify(R)
        if label.case == "FourPoint" or tampered:
            return label, w
        B, A, T = w.B, w.A, w.target
        want = mb.post(B, R)
        if tamper == "A":
            A = next(E for E in group if mb.precompose(T, E) != want)
        elif tamper == "target":
            T = next(mb.post(E, T) for E in group
                     if mb.precompose(mb.post(E, T), A) != want)
        else:
            T = next(c["representative"] for c in f3_cubic.classes
                     if c["label"].case != "FourPoint"
                     and c["label"] != label)
        tampered.append(R)
        forged = object.__new__(cl.Witness)
        forged.pair, forged.source, forged.target = mb.PairAction(B, A), R, T
        return label, forged

    def counted_fold_key(ctx, codes, num, den):
        folds.append(codes)
        return fold_key(ctx, codes, num, den)

    monkeypatch.setattr(ob, "classify", bad_classify)
    monkeypatch.setattr(ob, "_fold_key", counted_fold_key)
    with pytest.raises(AssertionError, match="pencil of .* fails its "
                       "witness"):
        ob.all_classes(F3, 3)
    assert len(tampered) == 1
    assert len(folds) == 1


def test_all_classes_rejects_a_repeated_member(monkeypatch):
    # the third fold of the first non-FourPoint pencil, its second
    # member, repeats the first member: the pencil then holds fewer
    # than q^3 - q distinct keys, and the count that backs its class
    # size must fail
    fold_key = ob._fold_key
    folds = []

    def repeating_fold_key(ctx, codes, num, den):
        key = fold_key(ctx, codes, num, den)
        folds.append(key)
        return folds[1] if len(folds) == 3 else key

    monkeypatch.setattr(ob, "_fold_key", repeating_fold_key)
    with pytest.raises(AssertionError, match="does not hold 24 distinct"):
        ob.all_classes(F3, 3)
    assert len(folds) == 1 + 24


def test_pencil_key_matches_echelon_oracle():
    rng = random.Random(5)
    for ctx in (F2, F3, F4, F5, F7):
        for degree in (2, 3):
            pool = list(ob._pencils(ctx, degree))
            group = mb.enumerate_pgl2(ctx)
            for _ in range(30):
                S = mb.act(mb.PairAction(rng.choice(group), rng.choice(group)),
                           rng.choice(pool))
                assert ob._pencil_key(ctx, *S.key, degree) \
                    == pencil_rep(S).key, str(S)


def test_least_member_matches_pencil_scan():
    # the least member of a pencil read off its echelon basis, against
    # the least of the q^3 - q expressions B(R); from the pencil's
    # representative and from another member
    four = [R for R in ob._pencils(F3, 3)
            if cl.classify(R)[0].case == "FourPoint"]
    assert len(four) == 48
    rng = random.Random(11)
    seeded = [(R, 20) for R in four]
    for ctx in (F5, F7):
        for degree in (2, 3):
            pool = list(ob._pencils(ctx, degree))
            seeded += [(R, 2) for R in rng.sample(pool, 15)]
    for R, tries in seeded:
        group = mb.enumerate_pgl2(R.ctx)
        want = min((mb.post(B, R) for B in group), key=lambda S: S.key)
        for B in [mb.identity(R.ctx)] + rng.sample(group, tries):
            got = ob._least_member(mb.post(B, R))
            assert got.key == want.key and str(got) == str(want), str(R)


def four_point_classes_match_orbits(report):
    """Each FourPoint class's size and least representative against
    orbit_of of that representative."""
    for c in report.classes:
        if c["label"].case == "FourPoint":
            orb = ob.orbit_of(c["representative"])
            assert len(orb) == c["size"], str(c["representative"])
            assert min(orb, key=lambda R: R.key) == c["representative"]


def test_f5_four_point_classes_match_orbits():
    four_point_classes_match_orbits(ob.all_classes(F5, 3))


def test_f7_cubic_partition(f7_cubic):
    report = f7_cubic
    assert report.total == 806736 and report.class_count == 16
    four = [c for c in report.classes if c["label"].case == "FourPoint"]
    # labels are not classes over F_7: two classes share one label
    assert len(four) == 12 and len({c["label"] for c in four}) == 11
    # the paper's closed forms at q = 7: (q^3 - q)^2 / (2(q - 1)),
    # / (2(q + 1)), / 2 and / 2 with (q^3 - q)^2 = 112896, and
    # q^2 (q + 1)^2 (q - 1)^3 FourPoint expressions in all
    sizes = report.sizes_by_case()
    assert sum(sizes.pop("FourPoint")) == 677376 == 7 ** 2 * 8 ** 2 * 6 ** 3
    assert sizes == {"Cubic_X3": [9408], "Cubic_TwoPointTwist": [7056],
                     "Cubic_Dickson": [56448],
                     "Cubic_DicksonTwist": [56448]}
    shared = [c for c in four if c["label"].param("pattern") == (1, 3)
              and c["label"].param("lambda").key == 3
              and c["label"].param("mu").key == 5]
    assert [c["label"].param("lambda").ctx.q for c in shared] == [343, 343]
    assert [(c["size"], str(c["representative"])) for c in shared] \
        == [(37632, "x^2/(x^3+1)"), (37632, "x^2/(x^3+2)")]
    four_point_classes_match_orbits(report)


def test_all_classes_f2_quad():
    report = ob.all_classes(F2, 2)
    assert report.total == 24 and report.class_count == 2
    rows = [(c["label"].case, c["size"], c["stabilizer_order"],
             str(c["representative"])) for c in report.classes]
    assert rows == [("Quad_X2_Insep", 6, 6, "x^2"),
                    ("Quad_SepChar2", 18, 2, "(x^2+1)/x")]


def test_all_classes_f2_cubic():
    report = ob.all_classes(F2, 3)
    assert report.total == 96 and report.class_count == 4
    rows = [(c["label"].case, c["size"], c["stabilizer_order"],
             str(c["representative"])) for c in report.classes]
    assert rows == [("Cubic2_i", 18, 2, "x^3"),
                    ("Cubic2_ii", 6, 6, "(x^3+x+1)/(x^2+x)"),
                    ("Cubic2_iii", 36, 1, "x^3+x^2"),
                    ("Cubic2_iv", 36, 1, "(x^3+1)/x")]
    assert report.classes[3]["label"].param("k") == 0
    assert report.sizes_by_case() == {"Cubic2_i": [18], "Cubic2_ii": [6],
                                      "Cubic2_iii": [36], "Cubic2_iv": [36]}


def test_all_classes_f3_quad():
    report = ob.all_classes(F3, 2)
    rows = [(c["label"].case, c["size"], c["stabilizer_order"],
             str(c["representative"])) for c in report.classes]
    assert rows == [("Quad_X2", 144, 4, "x^2"),
                    ("Quad_TwoPointTwist", 72, 8, "(2x^2+1)/x")]


def test_all_classes_f3_cubic(f3_cubic):
    report = f3_cubic
    assert report.total == 1944 and report.class_count == 7
    named = [(c["label"].case, c["size"], c["stabilizer_order"],
              str(c["representative"])) for c in report.classes
             if c["label"].case != "FourPoint"]
    assert named == [("Cubic3_X3_Insep", 24, 24, "x^3"),
                     ("Cubic3_X3X2", 576, 1, "x^3+x^2"),
                     ("Cubic3_X3X", 96, 6, "x^3+x"),
                     ("Cubic3_X3SigmaX", 96, 6, "x^3+2x")]


def test_all_classes_f3_four_point(f3_cubic):
    four = [c for c in f3_cubic.classes if c["label"].case == "FourPoint"]
    assert len(four) == 3
    by_pattern = {c["label"].param("pattern"):
                  (c["size"], c["stabilizer_order"], str(c["representative"]))
                  for c in four}
    assert by_pattern == {
        (1, 1, 2): (288, 2, "x^2/(x^3+2x+1)"),
        (1, 3): (576, 1, "x^2/(x^3+x+1)"),
        (4,): (288, 2, "(x^3+x)/(x^3+2x^2+x+1)")}
    # branch invariants collapse to mu = lambda in characteristic 3,
    # with lambda generating the splitting field of the point pattern
    field_size = {(1, 1, 2): 9, (1, 3): 27, (4,): 81}
    for c in four:
        lam = c["label"].param("lambda")
        assert c["label"].param("mu") == lam
        assert c["label"].param("mu_alt") == lam ** 3
        assert lam.ctx.q == field_size[c["label"].param("pattern")]


def test_all_classes_stabilizers_cross_checked(f3_cubic, f7_cubic):
    # group order over size must agree with the direct forced-map count
    # and with the pairs fel_pair_scan finds on Fel objects, at every
    # class representative of degrees 2 and 3 over F_2..F_7 (the least
    # member for FourPoint classes); an inseparable class is fixed under
    # every A, so its count is the group order
    reports = [(ctx, ob.all_classes(ctx, degree)) for ctx, degree in
               ((F2, 2), (F2, 3), (F3, 2), (F4, 2), (F4, 3), (F5, 2),
                (F5, 3), (F7, 2))]
    reports += [(F3, f3_cubic), (F7, f7_cubic)]
    insep = set()
    for ctx, report in reports:
        for c in report.classes:
            R = c["representative"]
            n = ob.stabilizer_order(R)
            assert n == len(list(fel_pair_scan(R, R))) \
                == c["stabilizer_order"], (ctx.name, str(R))
            if c["label"].case.endswith("_Insep"):
                assert n == ctx.q ** 3 - ctx.q
                insep.add((ctx.q, R.degree))
    assert insep == {(2, 2), (4, 2), (3, 3)}


def test_sixth_root_orbit_f7():
    fam = cl.family_Rc(F7.scalar(3))
    label = cl.classify(fam)[0]
    lam = label.param("lambda")
    assert lam == F7.scalar(3)
    assert lam * lam - lam + F7.one == F7.zero
    assert label.param("mu") == lam ** -1
    assert label.param("pattern") == (1, 1, 1, 1)
    # the tetrahedral stabilizer: order 12, orbit length q^2(q^2-1)^2/12
    assert ob.stabilizer_order(fam) == 12
    assert GROUP_SQ[7] // 12 == 9408


def test_report_json_shape():
    report = ob.all_classes(F2, 2)
    data = report.to_json(F2)
    assert data == {
        "q": 2, "degree": 2, "total": 24, "class_count": 2,
        "classes": [
            {"case": "Quad_X2_Insep", "params": {}, "sigma": "1",
             "representative": "x^2", "size": 6, "stabilizer_order": 6},
            {"case": "Quad_SepChar2", "params": {}, "sigma": "1",
             "representative": "(x^2+1)/x", "size": 18,
             "stabilizer_order": 2}]}
    json.dumps(data)
    assert repr(report) == "OrbitReport(q=2, degree 2, 2 classes, " \
        "24 expressions)"


def test_verify_statements_true():
    table = [(F2, "expr-count"), (F2, "quad-counts"),
             (F2, "char2-cubic-counts"), (F2, "class-bound"),
             (F3, "expr-count"), (F3, "quad-counts"), (F3, "class-bound"),
             (F4, "quad-counts"), (F5, "quad-counts"),
             (F7, "quad-counts"), (F8, "quad-counts"), (F9, "quad-counts")]
    for ctx, statement in table:
        ok, details = ob.verify_statement(ctx, statement)
        assert ok, (ctx.name, statement, details)
        assert details["statement"] == statement
        assert details["q"] == ctx.q
        json.dumps(details)


def test_verify_statement_details():
    ok, details = ob.verify_statement(F3, "expr-count")
    assert ok
    assert details["degrees"]["2"] == {
        "formula": 216, "enumerated": 216,
        "monic_pair_decomposition": 216}
    assert details["degrees"]["3"] == {
        "formula": 1944, "enumerated": 1944,
        "monic_pair_decomposition": 1944}
    ok, details = ob.verify_statement(F3, "quad-counts")
    assert details["expected"] == [72, 144] == details["observed"]
    ok, details = ob.verify_statement(F2, "class-bound")
    assert details == {"statement": "class-bound", "q": 2, "bound": 10,
                       "class_count": 4}


def test_verify_statement_errors():
    with pytest.raises(ValueError):
        ob.verify_statement(F2, "orbit-count")
    with pytest.raises(ValueError):
        ob.verify_statement(F4, "six-counts")
    with pytest.raises(ValueError):
        ob.verify_statement(F5, "char2-cubic-counts")
    with pytest.raises(ValueError, match="exceed the limit 16777216"):
        ob.verify_statement(F16, "class-bound")
    # the cubic count is checked before any quadratic is enumerated
    with pytest.raises(ValueError, match="degree 3 over F_11"):
        ob.verify_statement(ff.field_create(11), "expr-count")
    with pytest.raises(ValueError):
        ob.all_classes(F2, 4)
    with pytest.raises(ValueError):
        ob.all_classes(F2, 1)
