"""The dilatation/contraction ladder and its best-seen memory."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from bcmaes.restart import CONTINUE, TERMINATE, init_restart, step_restart

_SIGMA = np.eye(2)
_POINT = np.array([1.0, 2.0])


def _drive_without_improvement(state, steps):
    """Feed `steps` non-improving evaluations; returns (state, [(retrial, decision)])."""
    state, _ = step_restart(state, _POINT, 0.0, _SIGMA)  # set a baseline optimum
    out = []
    for _ in range(steps):
        state, decision = step_restart(state, _POINT, 1.0, _SIGMA)
        out.append((state.retrial, decision))
        if decision.action == TERMINATE:
            break
    return state, out


class TestInit:
    def test_defaults_valid(self):
        state = init_restart()
        assert state.retrial == 0
        assert state.x_min is None

    def test_sentinel_dominates_any_finite_fitness(self):
        # the record starts at +inf: any finite fitness improves on it, +inf never does
        state = init_restart()
        assert state.f_min == math.inf
        stalled, _ = step_restart(state, _POINT, math.inf, _SIGMA)
        assert (stalled.retrial, stalled.f_min, stalled.x_min) == (1, math.inf, None)
        top = float(np.finfo(float).max)
        improved, _ = step_restart(stalled, _POINT, top, _SIGMA)
        assert (improved.retrial, improved.f_min) == (0, top)
        assert np.array_equal(improved.x_min, _POINT)


class TestImprovement:
    def test_improvement_resets_and_records(self):
        state = init_restart()
        state, _ = _drive_without_improvement(state, 8)
        assert state.retrial == 8
        state, decision = step_restart(state, _POINT * 2, -1.0, 3 * _SIGMA)
        assert state.retrial == 0
        assert decision.new_sigma_scale == 1.0
        assert state.f_min == -1.0
        assert np.array_equal(state.x_min, _POINT * 2)
        assert np.array_equal(state.sigma_min, 3 * _SIGMA)

    def test_record_is_its_own_copy(self):
        # writing to the arrays passed in leaves the recorded point and covariance
        x_best, sigma = _POINT.copy(), _SIGMA.copy()
        state, _ = step_restart(init_restart(), x_best, 1.0, sigma)
        x_best[:] = np.nan
        sigma[:] = np.nan
        assert np.array_equal(state.x_min, _POINT)
        assert np.array_equal(state.sigma_min, _SIGMA)

    def test_plateau_counts_as_improvement(self):
        state = init_restart()
        state, _ = step_restart(state, _POINT, 5.0, _SIGMA)
        state, decision = step_restart(state, _POINT, 5.0, _SIGMA)
        assert state.retrial == 0
        assert decision.new_sigma_scale == 1.0

    def test_f_min_monotone(self):
        rng = np.random.default_rng(0)
        state = init_restart()
        best = np.inf
        for _ in range(200):
            f = float(rng.normal())
            state, _ = step_restart(state, _POINT, f, _SIGMA)
            best = min(best, f)
            assert state.f_min == best


class TestLadder:
    def test_exact_schedule_under_defaults(self):
        state = init_restart()
        _, steps = _drive_without_improvement(state, 50)
        for retrial, decision in steps:
            if retrial <= 5:
                assert decision.new_sigma_scale == 1.0
                assert decision.restart_point is None
            elif retrial < 20:
                assert decision.new_sigma_scale == 1.5
            elif retrial == 20:
                assert decision.new_sigma_scale == 0.9
                assert decision.restart_point is not None
                assert decision.restart_sigma is not None
            elif retrial < 30:
                assert decision.new_sigma_scale == 0.9
                assert decision.restart_point is None
            elif retrial < 40:
                assert decision.new_sigma_scale == 0.7
            elif retrial < 50:
                assert decision.new_sigma_scale == 0.5
            else:
                assert decision.action == TERMINATE
        assert steps[-1][0] == 50
        assert steps[-1][1].action == TERMINATE

    def test_restart_carries_best_memory(self):
        state = init_restart()
        state, _ = step_restart(state, _POINT * 3, -2.0, 7 * _SIGMA)
        state, decisions = _drive_without_improvement(state, 25)
        # note _drive refreshed the optimum with (POINT, 0.0, I) first; fitness
        # 0.0 > -2.0 is non-improving there, so memory is from the -2.0 step
        at_20 = [d for r, d in decisions if r == 20]
        assert len(at_20) == 1
        assert np.array_equal(at_20[0].restart_point, _POINT * 3)
        assert np.array_equal(at_20[0].restart_sigma, 7 * _SIGMA)

    def test_terminate_has_no_fields(self):
        state = init_restart()
        _, steps = _drive_without_improvement(state, 60)
        final = steps[-1][1]
        assert final.action == TERMINATE
        assert final.new_sigma_scale is None
        assert final.restart_point is None
        assert final.restart_sigma is None

    def test_termination_on_exactly_l5_consecutive_misses(self):
        state = init_restart()
        _, steps = _drive_without_improvement(state, 100)
        assert len(steps) == 50
        assert all(d.action == CONTINUE for _, d in steps[:-1])

    @given(st.integers(min_value=1, max_value=60))
    def test_ladder_totality(self, retrial):
        # every retrial value fires exactly one branch
        state = init_restart()
        state, _ = step_restart(state, _POINT, 0.0, _SIGMA)
        for _ in range(retrial):
            state, decision = step_restart(state, _POINT, 1.0, _SIGMA)
            if decision.action == TERMINATE:
                break
        if retrial >= 50:
            assert decision.action == TERMINATE
        else:
            scale = decision.new_sigma_scale
            if retrial <= 5:
                assert scale == 1.0
            elif retrial < 20:
                assert scale == 1.5
            elif retrial < 30:
                assert scale == 0.9
            elif retrial < 40:
                assert scale == 0.7
            else:
                assert scale == 0.5

    def test_no_restart_fields_before_any_improvement(self):
        # pathological: nothing ever improves on the sentinel (e.g. +inf
        # fitness everywhere), so there is no memory to restart from
        state = init_restart()
        decision = None
        for _ in range(20):
            state, decision = step_restart(state, _POINT, np.inf, _SIGMA)
        assert state.retrial == 20
        assert decision.restart_point is None
