import itertools

import numpy as np
import pytest

from nlsgrowth.errors import NumericsError
from nlsgrowth.timegrid import drive, time_grid


class TestTimeGrid:
    @pytest.mark.parametrize("t_final, dt, steps", [
        (0.3, 1e-3, 300),
        (0.3, 1e-4, 3000),
        (20.0, 3.2e-4, 62500),
        (256 ** 0.125, 2e-3, 1000),
        (0.0, 0.01, 0),
    ])
    def test_whole_horizons(self, t_final, dt, steps):
        assert time_grid(t_final, dt) == steps

    @pytest.mark.parametrize("t_final, dt", [(0.555, 0.01), (1.0, 0.15), (0.01, 0.3)])
    def test_rejects_fractional_horizons(self, t_final, dt):
        with pytest.raises(ValueError, match="last step"):
            time_grid(t_final, dt)

    @pytest.mark.parametrize("t_final, dt", [(np.inf, 0.01), (1.0, np.inf), (np.nan, 0.1)])
    def test_rejects_non_finite(self, t_final, dt):
        # an infinite horizon would overflow the step count, an infinite dt
        # would take zero steps
        with pytest.raises(ValueError, match="must be finite"):
            time_grid(t_final, dt)

    @pytest.mark.parametrize("t_final, dt", [(1.0, 0.0), (1.0, -0.1), (0.0, -1e-3), (-1.0, 0.1), (-0.5, -0.1)])
    @pytest.mark.parametrize("whole", (True, False))
    def test_rejects_non_positive_dt_and_negative_horizon(self, t_final, dt, whole):
        # dt = 0 would divide by zero, a negative ratio would count negative steps
        with pytest.raises(ValueError, match="dt > 0"):
            time_grid(t_final, dt, whole)

    def test_bound_takes_whole_steps_below(self):
        # 0.05 / 3.2e-4 = 156.25 steps: a bound, not a run length
        assert time_grid(0.05, 3.2e-4, whole=False) == 156
        assert time_grid(20.0, 3.2e-4, whole=False) == 62500


def counter():
    """A stepper whose state after step n is [n, -n]."""
    return (np.array([n, -n], dtype=float) for n in itertools.count(1))


class TestDrive:
    def test_record_cadence_ends_at_t_final(self):
        # record_dt / dt = 2.5 rounds to 2; the last step is always recorded
        recorded = [(t, s[0]) for t, s in drive(counter(), 0.7, 0.1, 0.25, "run")]
        assert [n for _, n in recorded] == [2, 4, 6, 7]
        assert [t for t, _ in recorded] == [n * 0.1 for n in (2, 4, 6, 7)]

    def test_rejects_fractional_horizon_before_stepping(self):
        states = counter()
        with pytest.raises(ValueError, match="whole number of steps"):
            list(drive(states, 0.75, 0.1, 0.1, "run"))
        assert next(states)[0] == 1

    def test_overflow_names_the_row(self):
        def stepper():
            for n in itertools.count(1):
                yield np.array([[1.0, 2.0], [3.0, np.inf if n >= 3 else 4.0]])

        with pytest.raises(NumericsError, match=r"^run overflowed near t=0\.300 \(b\)$"):
            list(drive(stepper(), 1.0, 0.1, 0.1, "run", ["a", "b"]))
        with pytest.raises(NumericsError, match=r"\(row 1\)"):
            list(drive(stepper(), 1.0, 0.1, 0.1, "run"))

    def test_overflow_checked_only_at_records(self):
        # a NaN from step 3 on is caught at the next record step, t = 0.4
        def stepper():
            for n in itertools.count(1):
                yield np.array([np.nan if n >= 3 else 0.0, 0.0])

        recorded = []
        with pytest.raises(NumericsError, match=r"near t=0\.400$"):
            for t, _ in drive(stepper(), 1.0, 0.1, 0.2, "run"):
                recorded.append(t)
        assert recorded == [0.2]
