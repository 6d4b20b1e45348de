"""Exact analysis: matrices, win probabilities, cylinders, weights, Gibbs."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percgame import exact, glauber, pca
from percgame.symbols import ONE, QUES, ZERO, format_word, parse_word

SQRT5 = np.sqrt(5.0)


def test_matrix_P_at_half():
    # closed forms at p = 1/2: entries are quadratic-irrational in sqrt(5)
    mm = exact.matrix_P(0.5)
    expected = np.array([[3 - SQRT5, SQRT5 - 2], [(SQRT5 - 1) / 2, (3 - SQRT5) / 2]])
    assert np.abs(mm.T - expected).max() < 1e-12
    assert np.abs(mm.T - np.array([[0.763932, 0.236068], [0.618034, 0.381966]])).max() < 1e-6
    assert abs(mm.pi[0] - 0.723607) < 1e-6
    assert abs(mm.pi[0] - 0.5 * (1 + np.sqrt(0.5 / 2.5))) < 1e-12


@pytest.mark.parametrize("p", np.arange(0.05, 0.96, 0.05))
def test_matrix_P_structure(p):
    mm = exact.matrix_P(float(p))
    assert np.abs(mm.T.sum(axis=1) - 1).max() <= 1e-12
    assert np.abs(mm.pi @ mm.T - mm.pi).max() <= 1e-12
    assert (mm.T >= -1e-15).all() and (mm.T <= 1 + 1e-15).all()
    # pi balance definition
    assert abs(mm.pi[0] - mm.T[1, 0] / (mm.T[1, 0] + mm.T[0, 1])) < 1e-12


def test_matrix_P_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            exact.matrix_P(p)


def test_matrix_Q_at_one():
    q = exact.matrix_Q(1.0)
    golden = (1 + SQRT5) / 2
    assert abs(q.T[0, 0] - 1 / golden) < 1e-12
    assert np.abs(q.T - np.array([[0.618034, 0.381966], [1.0, 0.0]])).max() < 1e-6


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_matrix_Q_structure(lam):
    q = exact.matrix_Q(lam)
    assert q.T[1, 1] == 0.0  # hard-core adjacency constraint
    assert np.abs(q.T.sum(axis=1) - 1).max() <= 1e-12
    # independent numeric oracle: Perron data from numpy's eigensolver
    Thc = np.array([[1.0, np.sqrt(lam)], [np.sqrt(lam), 0.0]])
    vals, vecs = np.linalg.eig(Thc)
    i = np.argmax(vals)
    rho, r = vals[i], np.abs(vecs[:, i])
    Qnum = Thc * r[None, :] / (rho * r[:, None])
    assert np.abs(q.T - Qnum).max() < 1e-10


@pytest.mark.parametrize("p", np.arange(0.1, 0.95, 0.1))
def test_P_equals_Q_squared(p):
    q = exact.matrix_Q(1.0 / p - 1.0)
    assert np.abs(q.T @ q.T - exact.matrix_P(float(p)).T).max() <= 1e-10
    # the stationary vectors agree as well
    assert np.abs(q.pi - exact.matrix_P(float(p)).pi).max() <= 1e-10


# matrix_Q(1/p - 1) overflows (4 lam = inf) for p below about 1e-308, so
# the property starts at 1e-300; every other point of (0, 1) is covered
@settings(max_examples=300, deadline=None)
@given(p=st.one_of(st.floats(1e-300, 1.0, exclude_max=True),
                   st.floats(1e-300, 1e-12),
                   st.floats(1.0 - 1e-12, 1.0, exclude_max=True)))
@example(p=1e-12)
@example(p=1.0 - 1e-12)
@example(p=float(np.nextafter(1.0, 0.0)))
def test_P_equals_Q_squared_on_the_open_interval(p):
    mm = exact.matrix_P(p)
    q = exact.matrix_Q(1.0 / p - 1.0)
    assert np.abs(q.T @ q.T - mm.T).max() <= 1e-12
    assert np.abs(q.pi - mm.pi).max() <= 1e-12


def test_matrix_P_near_one():
    # the unrationalized forms failed "rows must sum to 1" at 968 of these
    for p in np.linspace(0.987, 1.0, 2001)[:-1]:
        exact.matrix_P(float(p))


def test_p_from_activity_domains():
    assert exact.p_from_activity(5.0) == 1.0 / 6.0
    assert exact.p_from_activity(0.25, "extended") == 0.75
    for lam in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            exact.p_from_activity(lam, "standard")
    for lam in (0.0, 1.0, 2.0, float("nan")):
        with pytest.raises(ValueError):
            exact.p_from_activity(lam, "extended")
    with pytest.raises(ValueError):
        exact.p_from_activity(0.5, "bogus")


@pytest.mark.parametrize("lam", [0.0, -0.5, float("inf"), float("-inf"), float("nan")])
def test_an_activity_outside_the_positive_reals_is_refused(lam):
    # these gave NaN laws: matrix_Q a NaN row, gibbs_exact inf and NaN weights
    for call in (exact.matrix_Q, lambda lam: exact.gibbs_exact([[1], [0]], lam)):
        with pytest.raises(ValueError, match=rf"0 < lam < inf, got {lam}"):
            call(lam)


def test_win_probability_values():
    assert exact.win_probability(1.0) == 1.0
    assert abs(exact.win_probability(1 / 3) - 2 / 3) < 1e-15
    assert abs(exact.win_probability(0.2) - 0.6212678) < 1e-6
    assert abs(exact.win_probability(0.5) - 0.7236068) < 1e-6
    assert abs(exact.conditional_win_probability(1 / 3) - 0.5) < 1e-12
    assert exact.conditional_win_probability(0.0) == 0.5


def test_conditional_win_window_and_argmax():
    # > 1/2 exactly on (0, 1/3); argmax within 1e-4 of (2 - sqrt(3))/3
    grid = np.arange(1, 10_000) * 1e-4
    vals = np.array([exact.conditional_win_probability(float(p)) for p in grid])
    above = vals > 0.5
    assert np.array_equal(above, grid < 1 / 3)
    argmax = grid[np.argmax(vals)]
    assert abs(argmax - (2 - np.sqrt(3)) / 3) < 1e-4


def test_win_curve_rows_schema():
    rows = list(exact.win_curve_rows([0.2, 0.5]))
    assert rows[0][0] == 0.2 and len(rows[0]) == 3


def test_pushforward_stationarity_sample():
    for p in (0.15, 0.5, 0.85):
        mm = exact.matrix_P(p)
        for w in ["0", "1", "01", "10", "110", "0010"]:
            lhs = exact.pushforward_cylinder("A", p, mm, parse_word(w))
            assert abs(lhs - mm.cylinder(parse_word(w))) < 1e-12
        assert exact.markov_pushforward_deviation("A", p, mm, 6) < 1e-12


def test_pushforward_deterministic_delta():
    # D applied to the all-0 configuration yields all-1: prob(w="1") = 1
    all_zero = exact.MarkovMeasure(np.eye(2), [1, 0])
    assert exact.pushforward_cylinder("D", 0.0, all_zero, parse_word("1")) == 1.0
    assert exact.pushforward_cylinder("D", 0.0, all_zero, parse_word("0")) == 0.0


def _random_markov3(seed):
    rng = np.random.default_rng(seed)
    T = rng.random((3, 3)) + 0.05
    T /= T.sum(axis=1, keepdims=True)
    # stationary vector by power iteration
    pi = np.ones(3) / 3
    for _ in range(200):
        pi = pi @ T
    return exact.MarkovMeasure(T, pi)


def test_a_three_state_cylinder_is_the_chain_product():
    nu = _random_markov3(0)
    assert nu.cylinder("0?1") == nu.pi[ZERO] * nu.T[ZERO, QUES] * nu.T[QUES, ONE] > 0
    # a 2-state chain has no ? state
    assert exact.matrix_P(0.5).cylinder("0?1") == 0.0


_NAN = float("nan")


@pytest.mark.parametrize("T, pi, match", [
    (np.full((2, 2), _NAN), np.full(2, _NAN), "probabilities"),
    (np.eye(2), [1.0, _NAN], "probabilities"),
    (np.eye(2), [float("inf"), 0.0], "probabilities"),
    (np.array([[1.0, 0.0], [float("-inf"), 1.0]]), [1.0, 0.0], "probabilities"),
    (np.eye(4), [1.0, 0, 0, 0], r"k = 2 or 3"),
    (np.eye(1), [1.0], r"k = 2 or 3"),
    (np.eye(3), [1.0, 0.0], r"k = 2 or 3"),
    (np.eye(2), 1.0, r"k = 2 or 3"),
    (np.eye(2), [0.0, 0.0], "sum to 1"),
])
def test_a_markov_measure_refuses_a_malformed_chain(T, pi, match):
    with pytest.raises(ValueError, match=match):
        exact.MarkovMeasure(T, pi)


def test_a_binary_kind_refuses_a_measure_with_question_mass():
    # A reads no ?: the 0.532 of nu's mass on windows with a ? would drop out
    nu = _random_markov3(0)
    for word in ("0", "1"):
        with pytest.raises(pca.InvalidSymbolError, match="gives \\? probability"):
            exact.pushforward_cylinder("A", 0.3, nu, word)
    with pytest.raises(pca.InvalidSymbolError):
        exact.markov_pushforward_deviation("A", 0.3, nu, 2)
    # a 3-state chain that gives ? no mass is a binary measure
    T = np.zeros((3, 3))
    T[:2, :2], T[2] = exact.matrix_P(0.3).T, 1 / 3
    binary = exact.MarkovMeasure(T, np.append(exact.matrix_P(0.3).pi, 0.0))
    assert exact.markov_pushforward_deviation("A", 0.3, binary, 6) < 1e-12


@pytest.mark.parametrize("kind", ["F", "G", "R0"])
def test_the_transfer_product_equals_the_brute_force_sum_on_three_states(kind):
    nu = _random_markov3(3)
    words = [w for L in (1, 2, 3) for w in itertools.product((ZERO, ONE, QUES), repeat=L)]
    worst = max(abs(exact.pushforward_cylinder(kind, 0.4, nu, w) - nu.cylinder(w)) for w in words)
    assert worst > 1e-3  # nu is not stationary for the kind
    assert abs(exact.markov_pushforward_deviation(kind, 0.4, nu, 3) - worst) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", [0.2, 0.6])
def test_randomizer_cylinder_identities(seed, p):
    # one-step identities of the site-wise randomizers on shift-invariant nu
    nu = _random_markov3(seed)
    q = 1 - p
    qq = nu.cylinder("?")
    q0 = nu.cylinder("?0")
    q01 = nu.cylinder("?01")
    qs1 = sum(nu.cylinder((QUES, a, ONE)) for a in (ZERO, ONE, QUES))
    assert abs(exact.pushforward_cylinder("R0", p, nu, "?") - q * qq) < 1e-12
    assert abs(exact.pushforward_cylinder("R0", p, nu, "?0")
               - (p * q * qq + q * q * q0)) < 1e-12
    assert abs(exact.pushforward_cylinder("R0", p, nu, "?01")
               - (p * q * q * qs1 + q ** 3 * q01)) < 1e-12
    assert abs(exact.pushforward_cylinder("R1", p, nu, "?") - q * qq) < 1e-12
    assert abs(exact.pushforward_cylinder("R1", p, nu, "?0") - q * q * q0) < 1e-12
    assert abs(exact.pushforward_cylinder("R1", p, nu, "?01")
               - (p * q * q * q0 + q ** 3 * q01)) < 1e-12


def test_pushforward_table_consistency():
    # the pushforward is a shift-invariant measure: each word's probability
    # is the sum over its one-symbol extensions, and each length sums to 1
    nu = _random_markov3(5)
    words = {L: list(itertools.product((ZERO, ONE, QUES), repeat=L)) for L in (1, 2, 3)}
    probs = {w: exact.pushforward_cylinder("F", 0.3, nu, w) for ws in words.values() for w in ws}
    for w in words[1] + words[2]:
        assert abs(probs[w] - sum(probs[w + (s,)] for s in (ZERO, ONE, QUES))) < 1e-12
    for ws in words.values():
        assert abs(sum(probs[w] for w in ws) - 1) < 1e-12


# -- weight system -----------------------------------------------------------


def test_symmetric_weight_examples():
    assert exact.symmetric_weight("1?1", 1) == 2
    assert exact.symmetric_weight("10??1", 2) == 4
    assert exact.symmetric_weight("10??1", 3) == 2
    assert exact.right_weight("?01", 0) == 3
    assert exact.right_weight("?00", 0) == 2
    assert exact.right_weight("?1", 0) == 1
    with pytest.raises(ValueError):
        exact.symmetric_weight("101", 1)


def test_weight_check_fixtures():
    # counts over 2n = 12: the all-0 ring has no ? before or after (D maps
    # it to all-1); D fixes the all-? ring, weight 1 per site on both sides
    res = exact._orbit_cylinders(np.array([[ZERO] * 6, [QUES] * 6], dtype=np.int8))
    assert res["mu"]["?"].tolist() == res["dmu"]["?"].tolist() == [0, 12]

    rep = exact.weight_identities_check(5)
    assert rep.passed, rep.summary()
    assert rep.words_checked == 3 ** 5


@pytest.mark.parametrize("n", [5, 6])
def test_weight_strict_decrease_with_101(n):
    # a word containing 1?1 strictly loses weight; the decrease is mu(1?1)
    words = np.array([parse_word("1?1" + "0" * (n - 3))], dtype=np.int8)
    res = exact._orbit_cylinders(words)
    mu, dmu = res["mu"], res["dmu"]
    before = mu["?01"] + mu["?0"] + mu["?"]
    after = dmu["?01"] + dmu["?0"] + dmu["?"]
    assert after[0] < before[0]
    assert before[0] - after[0] == mu["1?1"][0] > 0


# -- the weight check against one orbit at a time ---------------------------


def ring_orbit(cells):
    """Distinct rotations and reflections of a ring word."""
    c, orbit = tuple(cells), set()
    for r in range(len(c)):
        orbit.add(c[r:] + c[:r])
        orbit.add((c[r:] + c[:r])[::-1])
    return sorted(orbit)


def count_cyclic(config, words) -> dict:
    """Occurrences of each word (a tuple) in the cyclic configuration, one
    per start."""
    counts = dict.fromkeys(map(tuple, words), 0)
    ext = tuple(config) * 2
    for L, i in itertools.product({len(w) for w in counts}, range(len(config))):
        if (w := ext[i:i + L]) in counts:
            counts[w] += 1
    return counts


def orbit_cylinders(cells):
    """One orbit's mu and Dmu window counts over 2n, from cyclic counts of
    the word, its reversal and their images under one pca.step of D each."""
    words = [parse_word(w) for w in ("?", "?0", "0?", "??", "?01", "??1", "0?1", "1?1")]
    images = [tuple(pca.step("D", np.array(c, dtype=np.int8), 0.0).tolist())
              for c in (cells, cells[::-1])]
    counts = [count_cyclic(c, words) for c in (cells, cells[::-1])]
    mu = {w: sum(c[w] for c in counts) for w in counts[0]}
    counts = [count_cyclic(img, words[:2] + words[4:5]) for img in images]
    dmu = {w: sum(c[w] for c in counts) for w in counts[0]}
    return {format_word(w): v for w, v in mu.items()}, {format_word(w): v for w, v in dmu.items()}


def per_orbit_weight_check(n):
    """The weight check one orbit at a time, each orbit when first met in
    itertools.product order, as the vectorized check must reproduce."""
    seen, id_viol, ineq_viol, strict_viol = set(), [], [], []
    for cells in itertools.product((ZERO, ONE, QUES), repeat=n):
        canon = min(ring_orbit(cells))
        if canon in seen:
            continue
        seen.add(canon)
        mu, dmu = orbit_cylinders(canon)
        if not (dmu["?"] == mu["??"] + mu["0?"] + mu["?0"]
                and dmu["?0"] == mu["??1"] + mu["0?1"] + mu["?01"]
                and dmu["?01"] == 0):
            id_viol.append(format_word(canon))
        before = mu["?01"] + mu["?0"] + mu["?"]
        after = dmu["?01"] + dmu["?0"] + dmu["?"]
        if after > before:
            ineq_viol.append(format_word(canon))
        if after - before != -mu["1?1"]:
            ineq_viol.append(format_word(canon) + " (delta != -mu(1?1))")
        if (mu["1?1"] > 0) != (after < before):
            strict_viol.append(format_word(canon))
    return exact.WeightSystemReport(n, 3 ** n, len(seen), id_viol, ineq_viol, strict_viol)


def _d_with_q0_to_0(step):
    """pca.step with D's window (?, 0) sent to 0 instead of ?."""
    def wrong(kind, config, p, seeds=None, time_tag=0):
        out = step(kind, config, p, seeds, time_tag)
        if kind == "D":
            cells = np.asarray(config)
            out[(cells == QUES) & (np.roll(cells, -1, axis=-1) == ZERO)] = ZERO
        return out
    return wrong


@pytest.mark.parametrize("n", [5, 6, 7])
def test_the_weight_check_equals_a_per_orbit_loop(n):
    report = exact.weight_identities_check(n)
    assert report == per_orbit_weight_check(n)
    assert report.passed and report.orbits_checked == {5: 39, 6: 92, 7: 198}[n]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_the_weight_check_fails_as_the_per_orbit_loop_under_a_wrong_d(monkeypatch, n):
    monkeypatch.setattr(pca, "step", _d_with_q0_to_0(pca.step))
    report = exact.weight_identities_check(n)
    assert report == per_orbit_weight_check(n)
    # every list fails on several orbits, so their order is compared too
    assert min(map(len, (report.identity_violations, report.inequality_violations,
                         report.strictness_violations))) > 1


def test_weight_check_ring_size_guard():
    with pytest.raises(ValueError, match="ring too small"):
        exact.weight_identities_check(4)


# -- exact hard-core ----------------------------------------------------------


def test_gibbs_single_vertex():
    for lam in (0.5, 1.0, 2.0):
        g = exact.gibbs_exact([[]], lam)
        assert abs(g.marginals[0] - lam / (1 + lam)) < 1e-12


def test_gibbs_path3():
    g = exact.gibbs_exact([[1], [0, 2], [1]], 1.0)
    assert g.partition_function == 5.0
    assert abs(g.marginals[1] - 1 / 5) < 1e-12
    assert abs(g.marginals[0] - 2 / 5) < 1e-12


def test_gibbs_c4():
    nbrs, _ = glauber.cycle_graph(4)
    g = exact.gibbs_exact(nbrs, 1.0)
    assert g.partition_function == 7.0
    assert abs(g.marginals[0] - 2 / 7) < 1e-12


def test_gibbs_size_guard():
    with pytest.raises(ValueError):
        exact.gibbs_exact([[] for _ in range(21)], 1.0)


def test_kernel_stationarity_K2_hand_oracle():
    # single edge, classes {a}, {b}, lambda = 2, p = 1/3: 4-state kernel by hand
    nbrs = [[1], [0]]
    lam = 2.0
    p = 1.0 / (1.0 + lam)
    pi = np.array([1.0, 2.0, 2.0, 0.0]) / 5.0  # states 00, 10(a), 01(b), 11
    Ka = np.zeros((4, 4))
    Ka[0, 0], Ka[0, 1] = p, 1 - p        # b empty: a resamples
    Ka[1, 0], Ka[1, 1] = p, 1 - p
    Ka[2, 2] = 1.0                       # b occupied: a forced to 0
    Ka[3, 2] = 1.0
    assert np.abs(pi @ Ka - pi).max() < 1e-12
    # module result agrees
    dev = exact.kernel_stationarity_check(nbrs, [[0], [1]], lam)
    assert dev <= 1e-12
    # and the module's kernel application matches the hand kernel on class a
    out = exact.class_update_matrix_apply(nbrs, [0], p, "standard", pi)
    assert np.abs(out - pi @ Ka).max() < 1e-12


@pytest.mark.parametrize("lam", [0.5, 1.5, 3.0])
def test_kernel_stationarity_c6(lam):
    nbrs, classes = glauber.cycle_graph(6)
    assert exact.kernel_stationarity_check(nbrs, classes, lam) <= 1e-12


def test_kernel_stationarity_c6_extended():
    nbrs, classes = glauber.cycle_graph(6)
    assert exact.kernel_stationarity_check(nbrs, classes, 0.7, "extended") <= 1e-12
    with pytest.raises(ValueError):
        exact.kernel_stationarity_check(nbrs, classes, 1.5, "extended")


def test_kernel_stationarity_rejects_bad_classes():
    nbrs, _ = glauber.cycle_graph(6)
    with pytest.raises(ValueError):
        exact.kernel_stationarity_check(nbrs, [[0, 1], [2, 3, 4, 5]], 1.0)


def test_kernel_stationarity_negative_control():
    # a wrong activity in pi must be detected
    nbrs, classes = glauber.cycle_graph(6)
    pi = exact.gibbs_exact(nbrs, 2.0).probs
    out = exact.class_update_matrix_apply(nbrs, classes[0], 0.5, "standard", pi)
    assert np.abs(out - pi).max() > 1e-3
