"""Unit tests for the correlation measures and threshold solvers."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbuffer import cli, dynamics
from qbuffer.cli import build_config
from qbuffer.dynamics import SPEED_OF_LIGHT, length_from_time
from qbuffer.measures import (classical_correlation, concurrence,
                              correlation_report, discord,
                              discord_concurrence_crossover,
                              solve_level_crossing, total_correlation)

GRID = np.linspace(0.0, 1.0, 10_000)  # the grid solve_level_crossing searches on (0, 1)


class TestClosedForms:
    def test_pure_bell_limit(self):
        assert total_correlation(1.0) == pytest.approx(2.0, abs=1e-12)
        assert classical_correlation(1.0) == pytest.approx(1.0, abs=1e-12)
        assert discord(1.0) == pytest.approx(1.0, abs=1e-12)
        assert concurrence(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_limit(self):
        assert total_correlation(0.0) == 0.0
        assert classical_correlation(0.0) == 0.0
        assert discord(0.0) == 0.0
        assert concurrence(0.0) == 0.0

    def test_separability_point(self):
        # at P = 1/3 entanglement vanishes but the discord does not
        assert concurrence(1.0 / 3.0) == 0.0
        assert total_correlation(1.0 / 3.0) == pytest.approx(0.2075187, abs=1e-4)
        assert classical_correlation(1.0 / 3.0) == pytest.approx(0.0817042, abs=1e-4)
        assert discord(1.0 / 3.0) == pytest.approx(0.1258146, abs=1e-3)

    def test_concurrence_piecewise(self):
        assert concurrence(0.2) == 0.0
        assert concurrence(0.5) == pytest.approx(0.25)
        for p in np.linspace(0.0, 1.0 / 3.0, 30):
            assert concurrence(p) == 0.0
        for p in np.linspace(1.0 / 3.0 + 1e-9, 1.0, 30):
            assert concurrence(p) > 0.0


class TestGridProperties:
    grid = np.linspace(0.0, 1.0, 1001)

    def test_discord_nonnegative(self):
        assert all(discord(p) >= -1e-15 for p in self.grid)

    def test_monotone_nondecreasing(self):
        for fn in (total_correlation, classical_correlation, discord):
            vals = np.array([fn(p) for p in self.grid])
            assert np.all(np.diff(vals) >= -1e-12)

    def test_sum_identity(self):
        for p in self.grid[::10]:
            rep = correlation_report(p)
            assert rep.total == pytest.approx(rep.classical + rep.discord,
                                              abs=1e-12)

    def test_single_crossover_in_entangled_range(self):
        gap = np.array([discord(p) - concurrence(p)
                        for p in np.linspace(0.334, 0.999, 2000)])
        sign_changes = np.sum(np.diff(np.sign(gap)) != 0)
        assert sign_changes == 1


class TestArrayMatchesScalar:
    """Each measure and decay model on an array equals the list of its scalar
    values, bit for bit; the scalar calls are the reference.  The threshold's
    root search relies on it: ``solve_level_crossing`` compares a model's grid
    values with its scalar values at the times ``brentq`` tries."""

    MEASURES = (total_correlation, classical_correlation, discord, concurrence)
    CONFIG = build_config({})
    MODELS = {
        "length_from_time": lambda t, c=CONFIG: length_from_time(t, c.n_r),
        "prob_pasy": lambda t, c=CONFIG: dynamics.prob_pasy(t, c.pmd, c.n_r),
        "p3": lambda t, c=CONFIG: dynamics.p3(t, c.cavity),
        # non-Markovian, Markovian and boundary regimes
        "cavity_p nonmarkovian": lambda t: dynamics.cavity_p(t, 4281.0, 16292.0),
        "cavity_p markovian": lambda t: dynamics.cavity_p(t, 753.0, 16292.0),
        "cavity_p boundary": lambda t: dynamics.cavity_p(t, 4073.0, 16292.0),
        "markovian_exponential":
            lambda t, c=CONFIG: dynamics.markovian_exponential(t, c.pmd.mu, c.n_r),
    }

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), max_size=40))
    def test_array_equals_scalar_list(self, extra):
        p = np.array([0.0, 1.0 / 3.0, 1.0, *extra])
        for fn in self.MEASURES:
            expected = np.array([fn(float(x)) for x in p])
            assert fn(p).tobytes() == expected.tobytes(), fn.__name__
        report = correlation_report(p)
        scalar_reports = [correlation_report(float(x)) for x in p]
        for field in ("total", "classical", "discord", "concurrence"):
            expected = np.array([getattr(r, field) for r in scalar_reports])
            assert getattr(report, field).tobytes() == expected.tobytes(), field
        t = p * 10e-3  # times across the threshold's bracket
        for name, model in self.MODELS.items():
            expected = np.array([model(float(x)) for x in t])
            assert model(t).tobytes() == expected.tobytes(), name


FINITE = st.floats(allow_nan=False, allow_infinity=False)
RATE = st.one_of(st.floats(0.0, 1e12), FINITE.map(abs))
WEIGHT = st.one_of(st.floats(0.0, 10.0), FINITE.map(abs))


@st.composite
def sweep_configs(draw):
    """Configs that build_config accepts, on a small grid: nonnegative rates
    and weights with a positive sum, any phase coefficients, either sign."""
    weights = [draw(WEIGHT) for _ in range(4)]
    assume(weights[0] + weights[1] > 0 and weights[2] + weights[3] > 0)
    t_start = draw(st.floats(0.0, 1.0))
    return build_config({
        "n_r": draw(st.floats(1.0, 10.0, exclude_min=True)),
        "delta_omega_rad_s": draw(st.one_of(st.floats(-1e15, 1e15), FINITE)),
        "d_p1_s_per_sqrt_m": draw(st.one_of(st.floats(-1e-10, 1e-10), FINITE)),
        "d_p2_s_per_sqrt_m": draw(st.one_of(st.floats(-1e-10, 1e-10), FINITE)),
        "mu_per_m": draw(RATE), "kappa1_per_s": draw(RATE), "kappa2_per_s": draw(RATE),
        "gamma0_per_s": draw(RATE), "sign": draw(st.sampled_from((1, -1))),
        "a1": weights[0], "a2": weights[1], "w1": weights[2], "w2": weights[3],
        "t_start_s": t_start, "t_end_s": t_start + draw(st.floats(1e-9, 1.0)),
        "n_points": draw(st.integers(2, 40))})


class TestSweepPrecondition:
    @settings(max_examples=300, deadline=None)
    @given(config=sweep_configs())
    def test_model_columns_are_nonnegative_before_the_clip(self, config):
        # why the measures take P unchecked: the sweep clips its model values
        # at 1 only, and they are never negative
        try:
            table = cli._sweep_table(config)
        except ValueError as exc:  # a value overflowed: the sweep writes no row
            assert " is not finite at t = " in str(exc)
            return
        assert (table[:, 2:4] >= 0.0).all()


class TestCrossover:
    def test_location(self):
        p_star = discord_concurrence_crossover()
        assert 0.5225 <= p_star <= 0.5235

    def test_defining_equation(self):
        p_star = discord_concurrence_crossover()
        assert discord(p_star) - concurrence(p_star) == pytest.approx(0.0, abs=1e-6)

    def test_entanglement_dominates_above(self):
        assert concurrence(0.9) > discord(0.9)
        assert discord(0.45) > concurrence(0.45)


class TestLevelCrossing:
    def test_exponential_against_closed_form(self):
        n_r = build_config({}).n_r
        mu = 6e-6
        rate = 2 * mu * SPEED_OF_LIGHT / n_r
        model = lambda t: np.exp(-rate * t)
        t_star = solve_level_crossing(model, 1.0 / 3.0, (0.0, 10e-3))
        assert t_star == pytest.approx(math.log(3.0) / rate, rel=1e-6)
        length_km = length_from_time(t_star, n_r) / 1e3
        assert length_km == pytest.approx(91.5510, abs=1e-2)

    def test_constant_model_not_found(self):
        assert solve_level_crossing(lambda t: np.full_like(t, 0.7), 0.5, (0.0, 1.0)) is None

    def test_earliest_crossing_of_oscillatory_model(self):
        model = lambda t: np.cos(2 * math.pi * t) ** 2
        t_star = solve_level_crossing(model, 0.5, (0.0, 3.0))
        assert t_star == pytest.approx(0.125, abs=1e-9)

    def test_composed_concurrence_known_inverse(self):
        # P(t) linear from 1 to 0 over [0, 1]; concurrence hits zero where
        # P = 1/3, i.e. t0 = 2/3
        model = lambda t: concurrence(np.maximum(0.0, 1.0 - t))
        t_star = solve_level_crossing(model, 1e-12, (0.0, 1.0))
        assert t_star == pytest.approx(2.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize("model, level, want", [
        (lambda t: 1.0 - t, 1.0, 0.0),
        (lambda t: t, 1.0, 1.0),
        (lambda t: t, GRID[4321], GRID[4321]),
        # a crossing near 0.3 between grid points comes before the hit at GRID[7000]
        (lambda t: np.where(t < 0.5, 0.3 - t, t - GRID[7000])[()], 0.0,
         pytest.approx(0.3, abs=1e-12)),
    ], ids=["first", "last", "interior", "change-before-hit"])
    def test_exact_grid_hit(self, model, level, want):
        assert solve_level_crossing(model, level, (0.0, 1.0)) == want

    def test_residual_tolerance_met(self):
        model = lambda t: np.exp(-3.0 * t)
        t_star = solve_level_crossing(model, 0.2, (0.0, 2.0))
        assert abs(model(t_star) - 0.2) < 1e-9

    def test_grid_evaluated_in_one_call(self):
        # one call for the whole grid, then Brent's method (maxiter 200) on
        # the first bracket, one call per step
        calls = []

        def model(t):
            calls.append(np.shape(t))
            return np.exp(-3.0 * t)

        t_star = solve_level_crossing(model, 0.2, (0.0, 2.0))
        assert t_star == pytest.approx(math.log(5.0) / 3.0, rel=1e-12)
        assert calls[0] == (10_000,)
        assert len(calls) <= 201

    @pytest.mark.parametrize("model, level, bracket", [
        (lambda t: np.exp(-3.0 * t), 0.2, (0.0, 2.0)),
        (lambda t: np.cos(2 * math.pi * t) ** 2, 0.5, (0.0, 3.0)),
        (lambda p: discord(p) - concurrence(p), 0.0, (0.34, 0.999)),  # criterion 02
    ], ids=["exp", "oscillatory", "crossover"])
    def test_no_point_evaluated_twice(self, model, level, bracket):
        # after the grid call, the refinement starts from the grid's values
        # at the bracket ends and reads the residual from Brent's last call:
        # each later call is at a new point, inside the bracket
        calls = []

        def spy(t):
            calls.append(t)
            return model(t)

        t_star = solve_level_crossing(spy, level, bracket)
        grid, *points = calls
        assert np.shape(grid) == (10_000,) and all(np.ndim(t) == 0 for t in points)
        points = [float(t) for t in points]
        assert len(set(points)) == len(points)
        assert not set(points) & set(grid.tolist())
        assert t_star in points
