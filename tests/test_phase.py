import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xxteleport.phase as phase
from xxteleport.cli import main
from xxteleport.entanglement import thermal_concurrence
from xxteleport.model import ModelParams
from xxteleport.phase import (ARCSINH_1, ROOT_TOL, TABLE1_REFERENCE, TABLE1_TOLERANCE,
                              NoClassicalAdvantageError, better_than_classical,
                              critical_temperature, reproduce_table1, sweep,
                              table1_deviations)
from xxteleport.teleport import average_fidelity


class TestBetterThanClassical:
    def test_strong_field_never_beats(self):
        for b_m in (1.0, 1.5, 3.0):
            for t in np.linspace(0.05, 5, 20):
                assert not better_than_classical(ModelParams(j=1.0, b_m=b_m, t=t))

    def test_reference_point_true(self):
        assert better_than_classical(ModelParams(j=1.0, b_m=0.5, t=1.0))
        assert math.sinh(1.0) > math.cosh(0.5)

    def test_just_above_boundary_false(self):
        # boundary for eta = 0.5 sits near T/J = 1.039, so T = 1.05 is beyond it
        assert not better_than_classical(ModelParams(j=1.0, b_m=0.5, t=1.05))

    def test_ferromagnetic_never_beats(self):
        for t in (0.1, 1.0):
            assert not better_than_classical(ModelParams(j=-1.0, b_m=0.0, t=t))

    def test_agrees_with_fidelity_threshold(self):
        rng = np.random.default_rng(40)
        for _ in range(500):
            p = ModelParams(rng.uniform(0.1, 2), rng.uniform(0, 2), rng.uniform(0.1, 5))
            beta = p.beta
            if abs(math.sinh(beta * p.j) - math.cosh(beta * p.b_m)) < 1e-9:
                continue
            assert better_than_classical(p) == (average_fidelity(p).average > 2 / 3)


class TestCriticalTemperature:
    @pytest.mark.parametrize("eta,t_ref,cr_ref", TABLE1_REFERENCE)
    def test_reference_rows(self, eta, t_ref, cr_ref):
        point = critical_temperature(eta)
        assert abs(point.t_critical_over_j - t_ref) / t_ref < 1e-5
        assert abs(point.residual_concurrence - cr_ref) < 1e-5

    def test_solver_residual(self):
        for eta in np.linspace(0.05, 0.95, 19):
            point = critical_temperature(eta)
            x = 1.0 / point.t_critical_over_j
            assert point.solver_residual < 1e-12
            assert abs(math.sinh(x) - math.cosh(eta * x)) < 1e-12

    def test_residual_concurrence_identity(self):
        # at the root sinh(x) = cosh(eta x), so C_r = (cosh(eta x) - 1)/(cosh(eta x) + cosh x)
        for eta in (0.2, 0.5, 0.8):
            point = critical_temperature(eta)
            x = 1.0 / point.t_critical_over_j
            want = (math.cosh(eta * x) - 1) / (math.cosh(eta * x) + math.cosh(x))
            assert abs(point.residual_concurrence - want) < 1e-12

    def test_no_solution_regime(self):
        with pytest.raises(NoClassicalAdvantageError):
            critical_temperature(1.0)
        with pytest.raises(NoClassicalAdvantageError):
            critical_temperature(1.2)

    def test_out_of_range_eta(self):
        with pytest.raises(ValueError):
            critical_temperature(0.0)
        with pytest.raises(ValueError):
            critical_temperature(-0.3)

    @pytest.mark.parametrize("eta", [5e-324, 1e-300, 1e-9, 1e-8])
    def test_tiny_eta_limit(self, eta):
        # the gap at arcsinh(1) rounds to >= 0 here; the root still tends to
        # arcsinh(1), not to the far end of the bracket
        point = critical_temperature(eta)
        assert abs(point.t_critical_over_j - 1.0 / ARCSINH_1) < 1e-9
        assert point.solver_residual <= ROOT_TOL
        assert point.residual_concurrence < 1e-9

    def test_bracket_without_sign_change_rejected(self, monkeypatch):
        # sinh(0.9) < cosh(0.45): a bracket ending at 0.9 holds no root for eta = 0.5
        monkeypatch.setattr(phase, "BRACKET_HIGH", 0.9)
        with pytest.raises(ValueError, match="does not change sign"):
            critical_temperature(0.5)

    def test_nan_eta_rejected(self):
        with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1\), got nan$"):
            critical_temperature(float("nan"))

    def test_bool_eta_rejected(self):
        # True >= 1.0 would otherwise report the no-solution regime
        with pytest.raises(ValueError, match=r"^eta must be a number, not a bool$"):
            critical_temperature(True)

    # T_c/J does not depend on j, so the critical command checks its --j
    # itself, before eta, with exit code 2.
    @pytest.mark.parametrize("j", [math.inf, math.nan])
    def test_non_finite_coupling_rejected(self, j, capsys):
        assert main(["critical", "--eta", "0.5", "--j", str(j)]) == 2
        assert capsys.readouterr() == ("", f"error: j must be finite, got {j}\n")

    def test_bad_coupling(self, capsys):
        for eta, j in [("0.5", "0"), ("0.5", "-0.5"), ("1.2", "0")]:
            assert main(["critical", "--eta", eta, "--j", j]) == 2
            assert capsys.readouterr() == ("", f"error: j must be positive, got {float(j)}\n")

    def test_bracket_is_valid(self):
        rng = np.random.default_rng(41)
        etas = list(rng.uniform(1e-6, 1 - 1e-12, 500)) + [0.999, 0.9999, 1 - 1e-12]
        for eta in etas:
            assert math.sinh(ARCSINH_1) - math.cosh(eta * ARCSINH_1) <= 0.0
            assert np.sinh(50.0) - np.cosh(eta * 50.0) > 0.0

    def test_boundary_fidelity_is_classical(self):
        for eta in np.linspace(0.05, 0.95, 19):
            point = critical_temperature(eta)
            p = ModelParams(j=1.0, b_m=eta, t=point.t_critical_over_j)
            assert abs(average_fidelity(p).average - 2 / 3) < 1e-10


class TestResidualConcurrence:
    def test_reference_values(self):
        assert abs(critical_temperature(0.5).residual_concurrence - 0.045085) < 1e-5
        assert abs(critical_temperature(0.9).residual_concurrence - 0.223103) < 1e-5

    def test_small_eta_limit(self):
        assert critical_temperature(1e-4).residual_concurrence < 1e-6


class TestTable1:
    def test_all_rows_match_reference(self):
        points = reproduce_table1()
        assert len(points) == 9
        for point, (eta, t_ref, cr_ref) in zip(points, TABLE1_REFERENCE):
            assert point.eta == eta
            assert abs(point.t_critical_over_j - t_ref) / t_ref < 1e-5
            assert abs(point.residual_concurrence - cr_ref) < 1e-5

    def test_spot_rows(self):
        points = {p.eta: p for p in reproduce_table1()}
        assert abs(points[0.2].t_critical_over_j - 1.12029) / 1.12029 < 1e-5
        assert abs(points[0.2].residual_concurrence - 0.00654425) < 1e-5
        assert abs(points[0.7].t_critical_over_j - 0.928278) / 0.928278 < 1e-5
        assert abs(points[0.7].residual_concurrence - 0.101495) < 1e-5

    def test_monotonic_columns(self):
        etas = np.arange(0.05, 0.96, 0.05)
        points = [critical_temperature(float(e)) for e in etas]
        ts = [p.t_critical_over_j for p in points]
        crs = [p.residual_concurrence for p in points]
        assert all(a > b for a, b in zip(ts, ts[1:]))
        assert all(a < b for a, b in zip(crs, crs[1:]))

    def test_deviations(self):
        points = reproduce_table1()
        devs = table1_deviations(points)
        assert len(devs) == 9
        assert max(devs) <= TABLE1_TOLERANCE
        for point, (_, t_ref, cr_ref), dev in zip(points, TABLE1_REFERENCE, devs):
            assert dev == max(abs(point.t_critical_over_j - t_ref) / t_ref,
                              abs(point.residual_concurrence - cr_ref))

    def test_all_below_zero_entanglement_temperature(self):
        for point in reproduce_table1():
            assert point.t_critical_over_j < 1.13459
            assert point.t_critical_over_j < 1.0 / ARCSINH_1


def loop_sweep(j, etas, ts):
    """The point-by-point reference for sweep: scalar entry points, eta-major."""
    rows = []
    for eta in etas:
        for t in ts:
            p = ModelParams(j=j, b_m=eta * j, t=t)
            rows.append((j, p.b_m, t, thermal_concurrence(p), average_fidelity(p).average,
                         better_than_classical(p)))
    return rows


def sweep_rows(columns):
    return list(zip(*(column.tolist() for column in columns.values())))


def bits(rows):
    """Rows with each float as its hex form, so that == compares bit patterns."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


class TestSweep:
    KEYS = ["j", "b_m", "t", "concurrence", "avg_fidelity", "beats_classical"]

    def test_strong_field_region(self):
        cols = sweep(1.0, [1.2], list(np.arange(0.1, 1.101, 0.1)))
        assert len(cols["t"]) == 11
        assert np.all(cols["concurrence"] > 0.0)  # all below T_c ~ 1.13459
        assert not cols["beats_classical"].any()

    def test_grid_point_beats(self):
        cols = sweep(1.0, [0.5], [0.5])
        assert cols["beats_classical"].tolist() == [True]
        assert math.sinh(2.0) > math.cosh(1.0)

    def test_empty_grid(self):
        for cols in (sweep(1.0, [0.5], []), sweep(1.0, [], [0.5])):
            assert list(cols) == self.KEYS
            assert all(column.shape == (0,) for column in cols.values())

    def test_ordering_and_cardinality(self):
        etas = [0.2, 0.4, 0.6]
        ts = [0.3, 0.9]
        cols = sweep(1.0, etas, ts)
        assert list(cols) == self.KEYS
        assert all(column.shape == (6,) for column in cols.values())
        assert list(zip(cols["b_m"], cols["t"])) == [(e, t) for e in etas for t in ts]

    def test_record_consistency(self):
        etas, ts = [0.3, 0.8, 1.1], [0.4, 1.0, 2.5]
        assert bits(sweep_rows(sweep(2.0, etas, ts))) == bits(loop_sweep(2.0, etas, ts))

    @settings(max_examples=200, deadline=None)
    @given(j=st.floats(-3.0, 3.0),
           etas=st.lists(st.floats(0.0, 1.5), max_size=6),
           ts=st.lists(st.floats(1e-3, 10.0), max_size=6))
    def test_columns_equal_scalar_entry_points(self, j, etas, ts):
        # bitwise, including j <= 0, eta >= 1 and empty axes
        assert bits(sweep_rows(sweep(j, etas, ts))) == bits(loop_sweep(j, etas, ts))

    @pytest.mark.parametrize("j,etas,ts", [
        (1.0, [0.5, 1.0], [1.0, 0.0, -1.0]),          # t <= 0, first bad t in order
        (1.0, [0.5], [1.0, math.nan]),                 # non-finite t
        (1.0, [0.5], [1.0, 5e-324]),                   # beta overflows
        (1.0, [0.5, math.inf], [1.0]),                 # non-finite b_m at i > 0
        (1.0, [0.5, 1e300, 2e300], [1.0, 1e-10, 1e-9]),  # beta*energy overflows at i > 0
        (1.0, [0.5, 1e300, 2e300], [1e-9, 1e-10, 1.0]),  # same, coldest t not first
        (math.inf, [0.5], [1.0]),                      # non-finite j
        (True, [0.5], [1.0]),                          # bool j
    ])
    def test_invalid_point_raises_like_loop(self, j, etas, ts):
        with pytest.raises(ValueError) as want:
            loop_sweep(j, etas, ts)
        with pytest.raises(ValueError) as got:
            sweep(j, etas, ts)
        assert str(got.value) == str(want.value)

    # Valid values, mostly, and values that break a ModelParams rule on their
    # own or together: zero and negative t, NaN, both infinities, a t whose beta
    # overflows, and fields whose beta*energy overflows at small t.
    GRID_VALUES = st.one_of(
        st.floats(1e-3, 2.0), st.floats(-2.0, 2.0),
        st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324,
                         1e-300, 1e10, 1e300, 1e308]))

    @settings(max_examples=300, deadline=None)
    @given(j=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
           etas=st.lists(GRID_VALUES, max_size=5), ts=st.lists(GRID_VALUES, max_size=5))
    @example(j=1.0, etas=[0.5], ts=[1.0, math.inf])  # an infinite t has a finite beta
    @example(j=1.0, etas=[0.5, 1e300], ts=[1.0, 1e-300])  # b_m[1] fails at the coldest t only
    @example(j=1.0, etas=[1e10, 1e300], ts=[1.0, 1e-300])  # row 0 fails before b_m[1]
    def test_grid_check_raises_like_loop(self, j, etas, ts):
        def message(fn):
            try:
                fn(j, etas, ts)
            except ValueError as exc:
                return str(exc)
            return None
        assert message(sweep) == message(loop_sweep)
