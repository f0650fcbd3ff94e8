"""Variation operator laws and oracles, sorting oracle, and optimizer run contracts."""

import json
import os
import platform
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trumpbench import moea
from trumpbench.deck import (
    DeckShape,
    ValidityReport,
    deck_is_valid,
    genome_to_deck,
    random_valid_deck,
)
from trumpbench.moea import (
    EAConfig,
    EvaluationError,
    SingleObjectiveEA,
    SmsEmoa,
    StopReason,
    Individual,
    VariationParams,
    _eval_rng,
    _exclusive_areas_2d,
    hv_contributions,
    nondominated_sort,
    polynomial_mutation,
    sbx_crossover,
    sms_emoa_run,
    so_ea_run,
)
from trumpbench.experiments import make_evaluator
from trumpbench.game import CHUNK_GAMES, MAX_DEAL_BYTES, SimulationSummary
from trumpbench.indicators import hypervolume
from trumpbench.objectives import (
    ObjectiveKind,
    balance_objectives,
    dominance_fitness,
    surrogate_objectives,
)
from trumpbench.ocd import OCDParams


class ScriptedRng:
    """Deterministic stand-in for a Generator, yielding scripted uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out = np.array([self.values.pop(0) for _ in range(size)])
        return out


def dominance_evaluator(deck, rng):
    return dominance_fitness(deck).values


def surrogate_evaluator(deck, rng):
    return surrogate_objectives(deck, deck.shape).values


class TestSBX:
    def test_u_half_returns_parents(self):
        p1 = np.array([2.0, 5.0])
        p2 = np.array([7.0, 3.0])
        rng = ScriptedRng([0.0, 0.0, 0.0, 0.5, 0.5])  # pc gate, take mask, u values
        child = sbx_crossover(p1, p2, VariationParams(), (1.0, 10.0), rng)
        assert np.allclose(child, p1)

    def test_spread_factor_formula(self):
        p1, p2 = np.array([4.0]), np.array([6.0])
        rng = ScriptedRng([0.0, 0.0, 0.8])
        child = sbx_crossover(p1, p2, VariationParams(eta_c=20.0), (-100.0, 100.0), rng)
        beta = 2.5 ** (1.0 / 21.0)
        assert beta == pytest.approx(1.0446, abs=1e-4)
        assert child[0] == pytest.approx(0.5 * ((1 + beta) * 4.0 + (1 - beta) * 6.0))

    def test_mean_preservation_without_clipping(self):
        # The child and its sibling, the oracle's second child from the
        # same draws, keep the parents' mean.
        parents = np.random.default_rng(99)
        params = VariationParams()
        wide = (-1e9, 1e9)
        for seed in range(200):
            p1, p2 = parents.uniform(1, 10, size=(2, 16))
            child = sbx_crossover(p1, p2, params, wide, np.random.default_rng(seed))
            sibling = sbx_crossover_oracle(p1, p2, params, wide, np.random.default_rng(seed), both=True)[1]
            assert np.all(np.abs((child + sibling) - (p1 + p2)) < 1e-9)

    def test_no_crossover_when_gate_fails(self):
        p1 = np.array([2.0, 5.0])
        p2 = np.array([7.0, 3.0])
        rng = ScriptedRng([0.99])
        child = sbx_crossover(p1, p2, VariationParams(pc=0.5), (1.0, 10.0), rng)
        assert np.array_equal(child, p1)


class TestPolynomialMutation:
    def test_u_half_leaves_gene_unchanged(self):
        g = np.array([5.5])
        rng = ScriptedRng([0.0, 0.5])  # mutate gate, u
        out = polynomial_mutation(g, VariationParams(pm=1.0), (1.0, 10.0), rng)
        assert out[0] == 5.5

    def test_upper_pull_formula(self):
        g = np.array([5.5])
        rng = ScriptedRng([0.0, 0.9])
        out = polynomial_mutation(g, VariationParams(pm=1.0, eta_m=15.0), (1.0, 10.0), rng)
        delta = 1.0 - 0.2 ** (1.0 / 16.0)
        assert delta == pytest.approx(0.0957, abs=1e-4)
        assert out[0] == pytest.approx(5.5 + delta * (10.0 - 5.5))

    def test_boundary_genes_stay_in_bounds(self):
        rng = np.random.default_rng(3)
        params = VariationParams(pm=1.0)
        genes = np.array([1.0, 10.0, 1.0, 10.0, 5.0])
        for _ in range(2000):
            out = polynomial_mutation(genes, params, (1.0, 10.0), rng)
            assert np.all(out >= 1.0)
            assert np.all(out <= 10.0)


def sbx_crossover_oracle(parent1, parent2, params, bounds, rng, both=False):
    """Reference: SBX computing the spread factor and both children for
    every gene, then keeping those of the genes that take part. Returns
    the first child, or both children with ``both``."""
    p1 = np.asarray(parent1, dtype=float)
    p2 = np.asarray(parent2, dtype=float)
    c1, c2 = p1.copy(), p2.copy()
    if rng.random() >= params.pc:
        return (c1, c2) if both else c1
    n = p1.size
    take = rng.random(n) < 0.5
    u = rng.random(n)
    exponent = 1.0 / (params.eta_c + 1.0)
    beta = np.where(
        u <= 0.5, np.float_power(2.0 * u, exponent), np.float_power(1.0 / (2.0 * (1.0 - u)), exponent)
    )
    child_a = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    child_b = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    lo, hi = bounds
    c1[take] = np.clip(child_a[take], lo, hi)
    c2[take] = np.clip(child_b[take], lo, hi)
    return (c1, c2) if both else c1


def polynomial_mutation_oracle(genome, params, bounds, rng):
    """Reference: polynomial mutation computing the perturbation of every
    gene, then applying those of the genes that mutate."""
    g = np.asarray(genome, dtype=float)
    lo, hi = bounds
    pm = params.mutation_rate(g.size)
    out = g.copy()
    mutate = rng.random(g.size) < pm
    u = rng.random(g.size)
    exponent = 1.0 / (params.eta_m + 1.0)
    down = np.float_power(2.0 * u, exponent) - 1.0
    up = 1.0 - np.float_power(2.0 * (1.0 - u), exponent)
    delta = np.where(u < 0.5, down * (g - lo), up * (hi - g))
    out[mutate] = g[mutate] + delta[mutate]
    return np.clip(out, lo, hi)


def run_both(operator, oracle, seed, *args):
    """Outputs of an operator and its oracle from twin generators, as raw
    bytes, and whether the generators end in the same state."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)

    def raw(arrays):
        return [a.tobytes() for a in (arrays if isinstance(arrays, tuple) else (arrays,))]

    out = raw(operator(*args, rng))
    return out, raw(oracle(*args, twin)), rng.bit_generator.state == twin.bit_generator.state


@st.composite
def variation_cases(draw):
    """Bounds, a pair of genomes inside them with genes often at a bound,
    and operator settings from both ends of their ranges."""
    lo = draw(st.sampled_from([-5.0, -1.0, 0.0, 1.0]))
    hi = lo + draw(st.sampled_from([0.5, 1.0, 9.0]))
    n = draw(st.integers(1, 40))
    gene = st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))
    genomes = [np.array(draw(st.lists(gene, min_size=n, max_size=n))) for _ in range(2)]
    eta = st.sampled_from([-0.5, 0.0, 1.0, 5.0, 15.0, 20.0, 100.0])
    params = VariationParams(
        pc=draw(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0])),
        pm=draw(st.sampled_from([None, 0.1, 0.5, 1.0])),
        eta_c=draw(eta),
        eta_m=draw(eta),
    )
    return genomes, params, (lo, hi), draw(st.integers(0, 2**32 - 1))


class TestVariationMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(variation_cases())
    def test_sbx_children_and_draws(self, case):
        (p1, p2), params, bounds, seed = case
        out, expected, same_state = run_both(
            sbx_crossover, sbx_crossover_oracle, seed, p1, p2, params, bounds
        )
        assert out == expected
        assert same_state

    @settings(max_examples=150, deadline=None)
    @given(variation_cases())
    def test_mutation_genome_and_draws(self, case):
        (genome, _), params, bounds, seed = case
        out, expected, same_state = run_both(
            polynomial_mutation, polynomial_mutation_oracle, seed, genome, params, bounds
        )
        assert out == expected
        assert same_state


def oracle_probe() -> list[str]:
    """Names of the variation operators and deck kernels that differ from
    their oracles, in output bytes or generator state, on seeded 32x4
    genomes and decks: an empty list when all agree."""
    from tests.test_deck import deck_is_valid_oracle, dominance_matrix_oracle
    from trumpbench.deck import dominance_matrix

    rng = np.random.default_rng(1603)
    bounds = (1.0, 10.0)
    differ = set()
    for eta in (0.5, 2.0, 15.0, 20.0, 100.0):
        params = VariationParams(pc=0.9, pm=0.25, eta_c=eta, eta_m=eta)
        for seed in range(20):
            p1, p2 = rng.uniform(*bounds, size=(2, 128))
            p1[rng.random(128) < 0.1] = bounds[int(rng.integers(2))]
            for name, operator, oracle, args in (
                ("sbx_crossover", sbx_crossover, sbx_crossover_oracle, (p1, p2)),
                ("polynomial_mutation", polynomial_mutation, polynomial_mutation_oracle, (p1,)),
            ):
                out, expected, same_state = run_both(operator, oracle, seed, *args, params, bounds)
                if out != expected or not same_state:
                    differ.add(name)
    # Integer decks tie in every column; continuous ones, as the optimizers
    # make them, have distinct first values, so deck_is_valid sorts no rows.
    for _ in range(200):
        for deck in (rng.integers(1, 4, size=(32, 4)).astype(float), rng.uniform(*bounds, size=(32, 4))):
            if not np.array_equal(dominance_matrix(deck), dominance_matrix_oracle(deck)):
                differ.add("dominance_matrix")
            if deck_is_valid(deck) != deck_is_valid_oracle(deck):
                differ.add("deck_is_valid")
    return sorted(differ)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 dispatch targets")
@pytest.mark.parametrize("disabled", ["", "AVX512_SPR AVX512_ICL X86_V4"], ids=["default", "no-avx512"])
def test_kernels_match_oracles_under_each_simd_dispatch(disabled):
    # numpy picks its SIMD loops when it loads, so each dispatch setting
    # needs a fresh interpreter.  On AVX-512 CPUs float64 ** runs a vector
    # pow whose last bits differ from the scalar one; the operators and
    # their oracles raise by np.float_power, which has no vector loop.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), str(root), env.get("PYTHONPATH")]))
    probe = (
        "import json; from numpy._core._multiarray_umath import __cpu_features__ as f; "
        "from tests.test_moea import oracle_probe; "
        "print(json.dumps([oracle_probe(), f['X86_V4']]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=root, capture_output=True, text=True, check=True
    ).stdout
    differ, v4 = json.loads(out)
    assert differ == []
    if disabled:
        assert v4 is False


class TestSettingChecks:
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"pc": 5.0}, "pc must lie in"),
            ({"pc": -0.1}, "pc must lie in"),
            ({"pc": float("nan")}, "pc must lie in"),
            ({"pm": -1.0}, "pm must be auto or lie in"),
            ({"pm": 2.0}, "pm must be auto or lie in"),
            ({"eta_c": -1.0}, "eta_c must exceed -1"),
            ({"eta_c": float("nan")}, "eta_c must exceed -1"),
            ({"eta_m": -3.0}, "eta_m must exceed -1"),
        ],
    )
    def test_variation_rejects_out_of_range(self, setting, message):
        with pytest.raises(ValueError, match=message):
            VariationParams(**setting)

    def test_variation_accepts_bounds(self):
        VariationParams(pc=0.0, pm=0.0, eta_c=-0.5, eta_m=-0.5)
        VariationParams(pc=1.0, pm=1.0)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"shape": DeckShape(K=8, L=1)}, "no valid deck exists"),
            ({"games": 0}, "need at least one game"),
            ({"games": 2**50}, f"{2**50} games of 32 cards need"),
            ({"seed": -1}, "seed must be non-negative, got -1"),
        ],
    )
    def test_config_rejects_what_no_run_can_use(self, setting, message):
        with pytest.raises(ValueError, match=message):
            EAConfig(mu=4, objective=ObjectiveKind.BALANCE, **setting)

    @pytest.mark.parametrize(
        "games, message",
        # 0, and the fewest games of 32 cards whose deals exceed MAX_DEAL_BYTES:
        # 33 bytes a game (uint8 cards and a starter) and a chunk of uint32 keys.
        [(0, "need at least one game"), ((MAX_DEAL_BYTES - CHUNK_GAMES * 32 * 4) // 33 + 1, "bytes of deals")],
        ids=["none", "beyond-deal-bytes"],
    )
    def test_only_balance_configs_bound_games(self, games, message):
        # Only B evaluations draw deals, so D and S runs take any games.
        for kind in (ObjectiveKind.DOMINANCE, ObjectiveKind.SURROGATE):
            assert EAConfig(mu=4, objective=kind, games=games).games == games
        with pytest.raises(ValueError, match=message):
            EAConfig(mu=4, objective=ObjectiveKind.BALANCE, games=games)


def nondominated_sort_ix(points: np.ndarray) -> np.ndarray:
    """Reference: the sort that built a fresh ``np.ix_`` submatrix of the
    points still unranked for every front."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    dominates = np.all(pts[:, None, :] < pts[None, :, :], axis=2)
    ranks = np.zeros(n, dtype=int)
    remaining = np.ones(n, dtype=bool)
    rank = 0
    while np.any(remaining):
        rank += 1
        sub = dominates[np.ix_(remaining, remaining)]
        idx = np.flatnonzero(remaining)
        front_local = ~sub.any(axis=0)
        ranks[idx[front_local]] = rank
        remaining[idx[front_local]] = False
    return ranks


class TestNondominatedSort:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(0, 3).map(float), min_size=m, max_size=m), min_size=1, max_size=30
            )
        )
    )
    def test_matches_ix_oracle(self, rows):
        pts = np.array(rows)
        assert nondominated_sort(pts).tolist() == nondominated_sort_ix(pts).tolist()

    def test_simple_front_split(self):
        ranks = nondominated_sort(np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]))
        assert list(ranks) == [1, 1, 2]

    def test_duplicates_share_rank(self):
        ranks = nondominated_sort(np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]))
        assert list(ranks) == [1, 1, 2]

    def test_chain(self):
        ranks = nondominated_sort(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
        assert list(ranks) == [1, 2, 3]

    def test_agrees_with_peeling_oracle(self):
        def oracle(points):
            pts = [tuple(p) for p in points]
            ranks = {}
            rank = 0
            alive = set(range(len(pts)))
            while alive:
                rank += 1
                front = []
                for i in alive:
                    dominated = False
                    for j in alive:
                        if j != i and all(a < b for a, b in zip(pts[j], pts[i])):
                            dominated = True
                            break
                    if not dominated:
                        front.append(i)
                for i in front:
                    ranks[i] = rank
                    alive.discard(i)
            return [ranks[i] for i in range(len(pts))]

        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(1, 25))
            m = int(rng.integers(1, 4))
            # Mix continuous values with small-integer grids to exercise ties.
            if rng.random() < 0.5:
                pts = rng.integers(0, 4, size=(n, m)).astype(float)
            else:
                pts = rng.uniform(0, 1, size=(n, m))
            assert list(nondominated_sort(pts)) == oracle(pts)


def strictly_dominated(p, points):
    return any(q[0] < p[0] and q[1] < p[1] for q in points)


def exact_hv_2d(points, ref):
    """Exact area covered by the boxes [p, ref] of 2-D minimization points,
    in Fractions: a sweep in x under the running minimum of y."""
    pts = sorted((Fraction(x), Fraction(y)) for x, y in points)
    rx, ry = Fraction(ref[0]), Fraction(ref[1])
    area, low = Fraction(0), ry
    for (x, y), (next_x, _) in zip(pts, pts[1:] + [(rx, ry)]):
        low = min(low, y)
        area += (next_x - x) * (ry - low)
    return area


@st.composite
def fronts_2d(draw):
    """Mutually non-strictly-dominated 2-D points with shared coordinates,
    duplicates and one-ulp twins, and a reference point beyond them."""
    coord = draw(
        st.sampled_from(
            [
                st.integers(1, 6).map(float),
                st.floats(1.0, 1e4) | st.floats(-1e4, -1.0),
            ]
        )
    )
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=12))
    # Twins: a drawn point again, or one ulp away from it in x or y
    # (nextafter(v, v) is v).
    twins = st.tuples(st.integers(0, 99), st.integers(0, 1), st.sampled_from([0.0, -1.0, 1.0]))
    for index, axis, toward in draw(st.lists(twins, max_size=5)):
        twin = list(points[index % len(points)])
        twin[axis] = float(np.nextafter(twin[axis], twin[axis] + toward))
        points.append(tuple(twin))
    points = [p for p in points if not strictly_dominated(p, points)]
    front = np.array(points)
    offset = draw(st.sampled_from([1.0, 0.25, None]))
    if offset is None:  # one ulp beyond the worst value
        ref = np.nextafter(front.max(axis=0), np.inf)
    else:
        ref = front.max(axis=0) + offset
    return front, ref


# Relative error of three correctly rounded float64 operations.
THREE_ROUNDINGS = (1 + Fraction(1, 2**53)) ** 3 - 1


class TestExclusiveAreas2D:
    @settings(max_examples=300, deadline=None)
    @given(fronts_2d())
    @example(  # a duplicate pair and a one-ulp twin of it, each exactly 0.0
        (
            np.array([[1.0, 3.0], [2.0, 2.0], [2.0, 2.0], [np.nextafter(2.0, 3.0), 2.0], [3.0, 1.0]]),
            np.array([4.0, 4.0]),
        )
    )
    def test_each_area_is_the_exact_contribution_after_three_roundings(self, case):
        front, ref = case
        areas = _exclusive_areas_2d(front, ref)
        points = front.tolist()
        total = exact_hv_2d(points, ref)
        for i, area in enumerate(areas):
            exact = total - exact_hv_2d(points[:i] + points[i + 1 :], ref)
            assert abs(Fraction(float(area)) - exact) <= THREE_ROUNDINGS * exact

    def test_agrees_with_leave_one_out_volumes_on_separated_fronts(self):
        # hv_contributions subtracts volumes, so its error is absolute, about
        # one ulp of the front's volume; the two agree within that.
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            # x ascending and y descending: a front shaped as an S front.
            front = np.column_stack(
                [np.sort(rng.uniform(-6000.0, -5000.0, n)), np.sort(rng.uniform(-1.0, 0.0, n))[::-1]]
            )
            ref = front.max(axis=0) + SmsEmoa.REF_OFFSET
            expected = hv_contributions(front, ref)
            bound = 8 * np.finfo(float).eps * hypervolume(front, ref)
            assert np.all(np.abs(_exclusive_areas_2d(front, ref) - expected) <= bound)

    def test_rejects_a_point_outside_the_reference_point(self):
        with pytest.raises(ValueError, match="do not strictly dominate the reference point"):
            _exclusive_areas_2d(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([2.0, 3.0]))


# Two pools of S runs on 32 cards with mu=10, each at one step: the members'
# eval_index and objectives, the offspring last.  On the worst front, one
# member is 1 or 10 ulps better than an older member in one objective and
# equal in the other.  Leave-one-out volumes scored both 0.0, so the newer,
# dominating member was dropped; the older, dominated one must go.
TWIN_POOLS = {
    "L4-seed0-eval19": (
        [
            (0, [-6476.8096950087765, -0.6498847356143994]),
            (3, [-6954.840390607309, -0.31941149004978764]),
            (5, [-5331.87122443895, -0.7962057742050024]),
            (10, [-5346.604291297236, -0.7897046227751054]),
            (11, [-5291.723124110944, -0.7916902765018117]),
            (12, [-6955.162368507211, -0.3238016040941626]),
            (15, [-5291.723124110945, -0.7916902765018117]),
            (16, [-5291.971586649974, -0.791291899011761]),
            (17, [-5339.014745355532, -0.7932004177238478]),
            (18, [-6474.9464699974715, -0.6495430043915812]),
            (19, [-5339.922946009556, -0.7895295065352993]),
        ],
        11,
    ),
    "L3-seed3-eval177": (
        [
            (144, [-823.0171652766069, -0.5476282051431444]),
            (151, [-902.2807482757637, -0.3181945247464629]),
            (152, [-906.086418778706, -0.22084882363064234]),
            (154, [-878.2435933731614, -0.34835499650323676]),
            (157, [-841.4204142717324, -0.5398804104517361]),
            (158, [-806.2867039434368, -0.673415831738668]),
            (163, [-838.2075233254056, -0.5448982756330926]),
            (167, [-881.5643508256333, -0.3420284447195644]),
            (174, [-868.840035788968, -0.36972247762883037]),
            (176, [-913.7927505000598, -0.20464612619222086]),
            (177, [-902.2807482757637, -0.3181945247464635]),
        ],
        151,
    ),
}


@pytest.mark.parametrize("pool", list(TWIN_POOLS))
def test_step_drops_the_weakly_dominated_twin(pool):
    members, dominated = TWIN_POOLS[pool]
    *population, (offspring_index, offspring) = members
    config = EAConfig(mu=len(population), objective=ObjectiveKind.SURROGATE)
    algo = SmsEmoa(config, lambda deck, rng: np.array(offspring))
    genome = random_valid_deck(config.shape, np.random.default_rng(0)).values.reshape(-1)
    algo.population = [Individual(genome, np.array(objs), index, None) for index, objs in population]
    algo.n_evals = offspring_index
    algo.step()
    kept = sorted(ind.eval_index for ind in algo.population)
    assert kept == sorted(index for index, _ in members if index != dominated)


class TestRuns:
    def small_config(self, kind, **kw):
        defaults = dict(
            mu=5,
            objective=kind,
            shape=DeckShape(K=8, L=2),
            max_evals=300,
            seed=11,
            ocd=OCDParams(window=5),
        )
        defaults.update(kw)
        return EAConfig(**defaults)

    def test_deterministic_runs(self):
        config = self.small_config(ObjectiveKind.SURROGATE)
        a = sms_emoa_run(config, surrogate_evaluator)
        b = sms_emoa_run(config, surrogate_evaluator)
        assert a.n_evals == b.n_evals
        assert a.stop_reason == b.stop_reason
        for x, y in zip(a.final_population, b.final_population):
            assert np.array_equal(x.genome, y.genome)
            assert np.array_equal(x.objectives, y.objectives)
            assert x.eval_index == y.eval_index
        assert a.indicator_trace == b.indicator_trace

    def test_population_size_and_eval_indices(self):
        config = self.small_config(ObjectiveKind.SURROGATE, max_evals=120)
        algo = SmsEmoa(config, surrogate_evaluator)
        algo.initialize()
        seen = {ind.eval_index for ind in algo.population}
        for _ in range(50):
            algo.step()
            assert len(algo.population) == config.mu
            new = {ind.eval_index for ind in algo.population}
            assert max(new) <= algo.n_evals - 1
            seen |= new
        assert sorted(seen)[: config.mu] == list(range(config.mu))

    def test_every_evaluated_deck_is_valid(self):
        checked = []

        def checking_evaluator(deck, rng):
            assert deck_is_valid(deck).valid
            checked.append(1)
            return surrogate_objectives(deck, deck.shape).values

        config = self.small_config(ObjectiveKind.SURROGATE, max_evals=100)
        result = sms_emoa_run(config, checking_evaluator)
        assert len(checked) == result.n_evals

    def test_step_hypervolume_never_drops(self):
        # The step's selection reference point is the worst of the old
        # population and the offspring, plus REF_OFFSET.  A surviving
        # offspring is in the new population; a dropped one leaves the
        # population as it was, so any reference point gives equal volumes.
        config = self.small_config(ObjectiveKind.SURROGATE, max_evals=200)
        algo = SmsEmoa(config, surrogate_evaluator)
        algo.initialize()
        for _ in range(150):
            before = algo.objective_matrix()
            algo.step()
            after = algo.objective_matrix()
            ref = np.vstack([before, after]).max(axis=0) + SmsEmoa.REF_OFFSET
            assert hypervolume(after, ref) >= hypervolume(before, ref) - 1e-9

    @pytest.mark.parametrize(
        "kind", [ObjectiveKind.DOMINANCE, ObjectiveKind.SURROGATE, ObjectiveKind.BALANCE]
    )
    def test_population_valid_at_every_generation_boundary(self, kind, monkeypatch):
        # record_generation runs at every generation boundary, the initial
        # population's included; the run checks only the population it returns.
        optimizer = SingleObjectiveEA if kind is ObjectiveKind.DOMINANCE else SmsEmoa
        original = optimizer.record_generation
        boundaries = []

        def checked_record_generation(self):
            for ind in self.population:
                assert deck_is_valid(genome_to_deck(ind.genome, self.shape)).valid
            boundaries.append(self.n_evals)
            return original(self)

        monkeypatch.setattr(optimizer, "record_generation", checked_record_generation)
        config = self.small_config(kind, seed=0, games=20)
        result = optimizer(config, make_evaluator(kind, config.shape, config.games)).run()
        assert boundaries == list(range(config.mu, result.n_evals + 1, config.mu))
        assert result.n_evals > (config.ocd.window + 1) * config.mu

    def test_front_members_are_mutually_nondominated(self):
        config = self.small_config(ObjectiveKind.SURROGATE)
        result = sms_emoa_run(config, surrogate_evaluator)
        pts = np.array([ind.objectives for ind in result.front])
        assert np.all(nondominated_sort(pts) == 1)
        genomes = {tuple(ind.genome) for ind in result.front}
        pop_genomes = {tuple(ind.genome) for ind in result.final_population}
        assert genomes <= pop_genomes

    def test_single_objective_best_is_monotone(self):
        config = self.small_config(ObjectiveKind.DOMINANCE, max_evals=400)
        algo = SingleObjectiveEA(config, dominance_evaluator)
        algo.initialize()
        best = min(ind.objectives[0] for ind in algo.population)
        for _ in range(200):
            algo.step()
            new_best = min(ind.objectives[0] for ind in algo.population)
            assert new_best <= best
            best = new_best

    def test_dominance_front_is_the_best_fitness_oldest_first(self):
        # experiments replays the first member of a D run's front as the
        # run's best deck.  Seed 0 ends with one best member, seed 11 with
        # five tied.
        sizes = []
        for seed in (0, 11):
            result = so_ea_run(self.small_config(ObjectiveKind.DOMINANCE, seed=seed), dominance_evaluator)
            best = min(ind.objectives[0] for ind in result.final_population)
            tied = [ind.eval_index for ind in result.final_population if ind.objectives[0] == best]
            assert [ind.eval_index for ind in result.front] == sorted(tied)
            sizes.append(len(result.front))
        assert sizes == [1, 5]

    def test_toy_single_objective_reaches_optimum(self):
        config = EAConfig(
            mu=5,
            objective=ObjectiveKind.DOMINANCE,
            shape=DeckShape(K=4, L=2),
            max_evals=2000,
            seed=5,
            ocd=OCDParams(window=10),
        )
        result = so_ea_run(config, dominance_evaluator)
        assert result.front[0].objectives[0] == pytest.approx(-3.0)

    def test_evaluator_failure_carries_context(self):
        def broken(deck, rng):
            raise ValueError("boom")

        config = self.small_config(ObjectiveKind.SURROGATE)
        with pytest.raises(EvaluationError, match="evaluation 0"):
            sms_emoa_run(config, broken)

    @pytest.mark.parametrize("kind", [ObjectiveKind.SURROGATE, ObjectiveKind.BALANCE])
    def test_runs_raise_no_warning(self, kind):
        # 60 generations of 5, well past the OCD window of 5 generations.
        config = self.small_config(kind, seed=0, games=20)
        evaluator = make_evaluator(kind, config.shape, config.games)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sms_emoa_run(config, evaluator)
        assert result.n_evals > (config.ocd.window + 1) * config.mu

    @pytest.mark.parametrize(
        "kind, objective",
        [(ObjectiveKind.DOMINANCE, dominance_evaluator), (ObjectiveKind.SURROGATE, surrogate_evaluator)],
    )
    def test_deterministic_objectives_get_no_generator(self, kind, objective):
        handed = []

        def recording_evaluator(deck, rng):
            handed.append(rng)
            return objective(deck, rng)

        config = self.small_config(kind, max_evals=60)
        optimize = so_ea_run if kind is ObjectiveKind.DOMINANCE else sms_emoa_run
        result = optimize(config, recording_evaluator)
        assert handed == [None] * result.n_evals

    def test_balance_generator_is_the_evaluations_own(self):
        # Each B evaluation draws what a fresh generator for its seed and
        # evaluation index draws.
        drawn = []

        def recording_evaluator(deck, rng):
            drawn.append(rng.random(3))
            changes, tightness = (int(1000 * u) for u in drawn[-1][1:])
            return SimulationSummary(1000, int(1000 * drawn[-1][0]), 0, changes, tightness)

        config = self.small_config(ObjectiveKind.BALANCE, max_evals=40)
        result = sms_emoa_run(config, recording_evaluator)
        assert len(drawn) == result.n_evals
        for index, values in enumerate(drawn):
            assert values.tolist() == _eval_rng(config.seed, index).random(3).tolist()

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_b_individuals_keep_the_summary_of_their_objectives(self, kind):
        config = self.small_config(kind, max_evals=40, games=20)
        optimize = so_ea_run if kind is ObjectiveKind.DOMINANCE else sms_emoa_run
        result = optimize(config, make_evaluator(kind, config.shape, config.games))
        for ind in result.final_population:
            if kind is ObjectiveKind.BALANCE:
                assert ind.summary.games == config.games
                assert ind.objectives.tolist() == balance_objectives(ind.summary).values.tolist()
            else:
                assert ind.summary is None

    def test_warning_inside_a_run_is_an_error(self):
        def warning_evaluator(deck, rng):
            warnings.warn("degenerate objective value")
            return surrogate_objectives(deck, deck.shape).values

        config = self.small_config(ObjectiveKind.SURROGATE)
        with pytest.raises(EvaluationError, match="degenerate objective value"):
            sms_emoa_run(config, warning_evaluator)

    def test_offspring_decode_to_valid_decks(self):
        config = self.small_config(ObjectiveKind.SURROGATE, max_evals=80)
        algo = SmsEmoa(config, surrogate_evaluator)
        algo.initialize()
        for _ in range(30):
            child = algo.spawn_offspring()
            assert child.shape == config.shape
            assert deck_is_valid(child).valid

    def test_offspring_falls_back_to_a_random_valid_deck(self, monkeypatch):
        # Every child is rejected, so after OFFSPRING_TRIES children the
        # offspring is a random valid deck drawn from the variation stream.
        config = self.small_config(ObjectiveKind.SURROGATE)
        algo = SmsEmoa(config, surrogate_evaluator)
        algo.initialize()
        rejected, fallbacks = [], []

        def reject(deck):
            rejected.append(deck)
            return ValidityReport(valid=False)

        def fallback(shape, rng):
            fallbacks.append((rng, random_valid_deck(shape, rng)))
            return fallbacks[-1][1]

        monkeypatch.setattr(moea, "OFFSPRING_TRIES", 3)
        monkeypatch.setattr(moea, "deck_is_valid", reject)
        monkeypatch.setattr(moea, "random_valid_deck", fallback)
        child = algo.spawn_offspring()
        assert len(rejected) == 3
        assert len(fallbacks) == 1
        rng, deck = fallbacks[0]
        assert rng is algo.var_rng and deck is child
        assert deck_is_valid(child).valid


def test_hv_contributions_alias():
    front = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    assert hv_contributions(front, np.array([4.0, 4.0])) == pytest.approx([1.0, 1.0, 1.0])


# Indicator traces of two pinned runs on the 8x2 deck with mu=4, as run-length
# pairs: (hv, eps, r2, generations) for the B run, re-pinned when B deals came
# to be drawn by sorting random keys, and (min, mean, max, generations) for
# the D run.
PINNED_B_TRACE = [
    (0.0, 0.0, 0.0, 15),
    (0.01904761904761909, 0.1428571428571428, 0.002813955885384467, 1),
    (0.024242424242424288, 0.1818181818181821, 0.003325965280510712, 1),
    (0.029629629629629672, 0.22222222222222232, 0.0038124098124098227, 2),
    (0.044973544973545, 0.11111111111111116, 0.005149281934996225, 1),
    (0.016410256410256507, 0.1333333333333333, 0.004362415362415328, 3),
    (0.0, 0.0, 0.0, 4),
    (0.0007142857142857784, 0.0714285714285714, 0.000640383426097707, 4),
    (0.037448979591836684, 0.2142857142857142, 0.0036471861471861627, 5),
    (0.011328671328671325, 0.2999999999999998, 0.004676808040444375, 4),
    (0.002564102564102555, 0.07692307692307687, 0.0009589484589484498, 3),
    (0.012820512820512775, 0.11111111111111072, 0.00293580493580492, 2),
    (0.010256410256410109, 0.07692307692307687, 0.00197685647685647, 7),
    (0.0, 0.0, 0.0, 2),
]
PINNED_D_TRACE = [
    (-5.75, -5.25, -4.75, 1),
    (-5.875, -5.5625, -5.25, 1),
    (-5.875, -5.8125, -5.75, 1),
    (-5.875, -5.84375, -5.75, 1),
    (-5.875, -5.875, -5.875, 2),
    (-6.0, -5.90625, -5.875, 1),
    (-6.125, -6.0, -5.875, 1),
    (-6.125, -6.09375, -6.0, 1),
    (-6.375, -6.1875, -6.125, 1),
    (-6.375, -6.25, -6.125, 1),
    (-6.375, -6.34375, -6.25, 1),
    (-6.375, -6.375, -6.375, 39),
    (-6.5, -6.40625, -6.375, 2),
    (-6.625, -6.53125, -6.5, 2),
    (-6.625, -6.59375, -6.5, 2),
    (-6.625, -6.625, -6.625, 5),
    (-6.75, -6.65625, -6.625, 4),
    (-6.75, -6.6875, -6.625, 3),
    (-6.75, -6.75, -6.75, 37),
    (-6.875, -6.78125, -6.75, 2),
    (-6.875, -6.8125, -6.75, 1),
    (-6.875, -6.875, -6.875, 30),
    (-7.0, -6.9375, -6.875, 1),
    (-7.0, -7.0, -7.0, 500),
]


class TestPinnedRuns:
    """Two runs stopped by their convergence detectors, pinned to the
    evaluation count, stop reason and indicator trace they produce."""

    def run(self, kind, **kw):
        config = EAConfig(mu=4, objective=kind, shape=DeckShape(K=8, L=2), **kw)
        optimize = so_ea_run if kind is ObjectiveKind.DOMINANCE else sms_emoa_run
        return optimize(config, make_evaluator(kind, config.shape, config.games))

    def test_balance_run_stops_by_ocd(self):
        # The budget only has to lie beyond the OCD stop, at 216 evaluations.
        result = self.run(ObjectiveKind.BALANCE, games=30, max_evals=400, seed=0)
        assert (result.n_evals, result.stop_reason) == (216, StopReason.CONVERGED)
        assert len(result.indicator_trace) == 54
        expected = [row[:3] for row in PINNED_B_TRACE for _ in range(row[3])]
        trace = [(row["hv"], row["eps"], row["r2"]) for row in result.indicator_trace]
        assert trace == [pytest.approx(row, rel=1e-9) for row in expected]

    def test_dominance_run_stops_by_stagnation(self):
        result = self.run(ObjectiveKind.DOMINANCE, max_evals=6000, seed=1)
        assert (result.n_evals, result.stop_reason) == (2560, StopReason.CONVERGED)
        assert len(result.indicator_trace) == 640
        expected = [row[:3] for row in PINNED_D_TRACE for _ in range(row[3])]
        trace = [(row["min"], row["mean"], row["max"]) for row in result.indicator_trace]
        assert trace == [pytest.approx(row, rel=1e-9) for row in expected]
