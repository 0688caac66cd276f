import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from steadychaos import (
    DivergenceError,
    bifurcation_scan,
    chaos,
    classify,
    deterministic_orbit,
    lyapunov,
    maps,
    solve,
    transition_report,
)


def _orbit_average(kind, r, x0, burn_in, iters):
    """(1/iters) sum of ln|f'(x_t)| over iters steps of the single orbit from
    x0 after burn_in, -inf at a zero derivative: the reference the ensemble
    estimate is held to, in plain floats. Ricker steps y = ln x, so that an
    orbit near 0 keeps its digits, and ln|f'| = r(1 - x) + ln|1 - r x|."""
    x, y, total = x0, math.log(x0), 0.0
    for t in range(burn_in + iters):
        if kind == "logistic":
            if t >= burn_in:
                d = r * (1.0 - 2.0 * x)
                if d == 0.0:
                    return -math.inf
                total += math.log(abs(d))
            x = r * x * (1.0 - x)
        else:
            g = r * (1.0 - x)
            if t >= burn_in:
                d = 1.0 - r * x
                if d == 0.0:
                    return -math.inf
                total += g + math.log(abs(d))
            y += g
            x = math.exp(y)
        assert 0.0 <= x <= maps.UPPER[kind], (kind, r, t)
    return total / iters


class TestDerivative:
    @pytest.mark.parametrize("kind,xs", [
        ("logistic", (0.0, 0.1, 0.3, 0.7, 0.9, 1.0)),
        ("ricker", (0.0, 0.1, 0.7, 1.0, 1.3, 3.0, 10.0)),
    ])
    @pytest.mark.parametrize("r", [0.5, 1.5, 2.0, 3.7, 9.146])
    def test_log_abs_derivative_vs_mpmath(self, kind, xs, r):
        # every x is away from the zero of f' (logistic 1/2, Ricker 1/r)
        f = {
            "logistic": lambda x: r * x * (1 - x),
            "ricker": lambda x: x * mpmath.exp(r * (1 - x)),
        }[kind]
        for x in xs:
            with mpmath.workdps(40):
                exact = mpmath.log(abs(mpmath.diff(f, mpmath.mpf(x))))
            # rounding of r(1-x), and of ln|f'| itself
            tol = 8 * 2.0**-52 * (1 + abs(r * (1.0 - x)) + abs(float(exact)))
            assert abs(maps.log_abs_derivative(kind, r, x) - exact) <= tol, x

    def test_known_points(self):
        with np.errstate(divide="ignore"):
            assert maps.log_abs_derivative("logistic", 3.0, 0.5) == -math.inf
        assert maps.log_abs_derivative("ricker", 2.0, 1.0) == 0.0


class TestSharedKernel:
    @given(
        r=st.floats(min_value=0.5, max_value=4.0),
        xs=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=20),
    )
    @settings(max_examples=100)
    def test_array_step_matches_scalar(self, r, xs):
        logistic = [x for x in xs if x <= 1.0] or [0.5]
        scalar = [maps.step("logistic", r, x) for x in logistic]
        assert maps.step("logistic", r, np.array(logistic)).tolist() == scalar
        # np.exp and math.exp differ by at most 1 ulp; rounding the product
        # with x can carry that to 2 ulps of the step
        scalar = np.array([maps.step("ricker", r, x) for x in xs])
        array = maps.step("ricker", r, np.array(xs))
        assert np.all(np.abs(array - scalar) <= 2.0 * np.spacing(scalar))

    @pytest.mark.parametrize("kind,xs", [
        ("logistic", (0.0, 0.1, 0.5, 0.9, 1.0)),
        ("ricker", (0.0, 0.1, 0.7, 1.0, 1.3, 3.0, 10.0)),
    ])
    @pytest.mark.parametrize("r", [0.5, 1.5, 2.0, 3.7, 9.146])
    def test_second_derivative_vs_mpmath(self, kind, xs, r):
        f = {
            "logistic": lambda x: r * x * (1 - x),
            "ricker": lambda x: x * mpmath.exp(r * (1 - x)),
        }[kind]
        for x in xs:
            with mpmath.workdps(40):
                exact = mpmath.diff(f, mpmath.mpf(x), 2)
            # rounding of r(1-x) in the exponent, and of rx - 2 next to its zero
            scale = r * math.exp(r * (1.0 - x)) * (r * x + 2.0) if kind == "ricker" else r
            tol = 8 * 2.0**-52 * (1 + abs(r * (1.0 - x))) * scale
            assert abs(maps.second_derivative(kind, r, x) - exact) <= tol, x

    @staticmethod
    def _kernel_orbit(kind, r, x0, steps, states):
        """("orbit", x, y) after ``steps`` steps of maps.orbit_step, the kernel
        maps.orbit is written out from, or ("escaped", step, x) at the first
        state outside the closed domain, x = inf where the step overflowed;
        each (x, y) stepped to inside the domain is appended to ``states``."""
        x, y = x0, (math.log(x0) if x0 > 0.0 else -math.inf)
        for t in range(steps + 1):
            if t:
                try:
                    x, y = maps.orbit_step(kind, r, x, y)
                except OverflowError:
                    return "escaped", t, math.inf
            if not maps.in_domain(kind, x):
                return "escaped", t, x
            if t:
                states.append((x, y))
        return "orbit", x, y

    def _check_orbit(self, kind, r, x0, burn_in, iters):
        """maps.orbit against the kernel: the same floats after burn_in +
        iters steps, taken at once or as burn_in steps and then iters more
        (as the cycle check does), and the same states recorded in ``out``
        up to the end or the escape; the escape named as the kernel's."""
        y0 = math.log(x0) if x0 > 0.0 else -math.inf
        want_states, states = [], []
        outcome, *want = self._kernel_orbit(kind, r, x0, burn_in + iters, want_states)
        if outcome == "escaped":
            with pytest.raises(DivergenceError) as err:
                maps.orbit(kind, r, x0, y0, burn_in + iters, states)
            assert str(err.value) == str(maps.escaped(kind, x0, *want))
            assert states == want_states
            return
        assert maps.orbit(kind, r, x0, y0, burn_in + iters, states) == tuple(want)
        assert states == want_states
        assert maps.orbit(kind, r, *maps.orbit(kind, r, x0, y0, burn_in), iters) == tuple(want)

    @given(
        r=st.floats(min_value=2.9, max_value=4.5),
        x0=st.floats(min_value=0.0, max_value=1.0),
        burn_in=st.integers(min_value=0, max_value=10),
        iters=st.integers(min_value=1, max_value=20),
    )
    @example(r=2.0, x0=0.5, burn_in=0, iters=5)  # superstable at once
    @settings(max_examples=200)
    def test_logistic_lyapunov_loop_is_the_kernel(self, r, x0, burn_in, iters):
        self._check_orbit("logistic", r, x0, burn_in, iters)

    @given(
        r=st.floats(min_value=1.5, max_value=3.0),
        x0=st.floats(min_value=0.0, max_value=3.0),
        burn_in=st.integers(min_value=0, max_value=10),
        iters=st.integers(min_value=1, max_value=20),
    )
    @example(r=2.0, x0=0.5, burn_in=0, iters=5)  # 1 - r x = 0 at once
    @example(r=20.0, x0=0.7, burn_in=3, iters=5)  # beyond the cap
    @example(r=2.0, x0=2e6, burn_in=0, iters=5)  # starts beyond it; f(x0) underflows to 0
    @example(r=750.0, x0=1e-17, burn_in=0, iters=5)  # e^y overflows
    @example(r=750.0, x0=1e-17, burn_in=5, iters=5)
    @settings(max_examples=200)
    def test_ricker_lyapunov_loop_is_the_kernel(self, r, x0, burn_in, iters):
        self._check_orbit("ricker", r, x0, burn_in, iters)

    @given(
        r=st.floats(min_value=0.1, max_value=7.0),
        x0=st.floats(min_value=0.01, max_value=20.0),
        burn_in=st.integers(min_value=0, max_value=50),
        steps=st.integers(min_value=2, max_value=3 * maps.BLOCK),
    )
    @settings(max_examples=100)
    def test_ricker_terms_drop_a_telescoping_sum(self, r, x0, burn_in, steps):
        # ln|f'(x)| - lyapunov_terms = r(1 - x), the step y_{t+1} - y_t of
        # y = ln x; over the m rows of a block the first m - 1 of them sum to
        # y_{m-1} - y_0. For r <= 7 every state stays above e^-400, so y is
        # read back from x as ln x.
        u = 2.0**-53
        for _, rows in maps.blocks("ricker", r, np.array([x0]), (burn_in, steps)):
            x = rows[:, 0]
            assert x.min() > np.finfo(float).tiny
            # where 1 - r x = 0 (superstable) both sums are -inf
            assume(np.all(1.0 - r * x[:-1] != 0.0))
            full = maps.log_abs_derivative("ricker", r, x[:-1])
            telescoped = maps.lyapunov_terms("ricker", r, x[:-1])
            y = np.log(x)
            m = len(x)
            # each sum of m - 1 terms errs by at most (m - 1) u sum|term|, and
            # each full term by u |term| from its addition; each step of y by
            # u |y|; each ln(e^y) read-back by u |y| plus a few u from exp
            tol = m * u * (np.abs(full).sum() + np.abs(telescoped).sum()) \
                + u * np.abs(full).sum() + u * np.abs(y).sum() + 2.0 * u * (np.abs(y).max() + 4.0)
            assert abs(full.sum() - telescoped.sum() - (y[-1] - y[0])) <= tol

    @staticmethod
    def _chained(kind, r, x):
        """(lyapunov_terms, log_abs_derivative) as chained expressions, one
        temporary per operation: the reference for the one-temporary form."""
        if kind == "ricker":
            terms = np.log(np.abs(1.0 - r * x))
            return terms, r * (1.0 - x) + terms
        terms = np.log(np.abs(r * (1.0 - 2.0 * x)))
        return terms, terms

    @pytest.mark.parametrize("kind", ["logistic", "ricker"])
    @given(
        r=st.floats(min_value=0.5, max_value=20.0),
        shape=st.sampled_from([(), (5,), (3, 4)]),
        per_orbit=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_terms_are_the_chained_expressions(self, kind, r, shape, per_orbit, data):
        # bit for bit, on the zeros of f' (x = 1/2, x = 1/r: -inf), 0, NaN and
        # states past the domain; a per-orbit r of shape (n,) against (m, n)
        # rows; () is a float x
        special = st.sampled_from([0.0, 0.5, 1.0 / r, 1.0, math.nan, -0.5, 2.0, 3e6])
        cell = st.one_of(special, st.floats(min_value=-1.0, max_value=3.0))
        if shape == ():
            x = data.draw(cell)
        else:
            x = np.array(data.draw(st.lists(cell, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
            if per_orbit:
                r = np.array(data.draw(st.lists(st.floats(min_value=0.5, max_value=20.0),
                                                min_size=shape[-1], max_size=shape[-1])))
        before = np.array(x, copy=True)
        with np.errstate(divide="ignore"):
            want = self._chained(kind, r, x)
            got = maps.lyapunov_terms(kind, r, x), maps.log_abs_derivative(kind, r, x)
        for g, w in zip(got, want):
            assert type(g) is type(w) and np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
        assert np.array_equal(x, before, equal_nan=True)

    def test_ricker_blocks_meet_the_finite_n_mean_identity(self):
        # y_{t+1} = y_t + r(1 - x_t) sums to the exact identity
        # sum_{t<n} x_t = n - (ln x_n - ln x_0)/r, so only rounding separates
        # the two sides; phase 1 holds x_n
        r, x0, n = np.linspace(1.5, 3.0, 7), np.full(7, 0.7), 1000
        phases = {0: [], 1: []}
        for phase, rows in maps.blocks("ricker", r, x0, (n, 1)):
            phases[phase].append(rows.copy())
        x_n = phases[1][0][0]
        total = np.concatenate(phases[0]).sum(axis=0)
        assert np.all(np.abs(total - (n - (np.log(x_n) - np.log(x0)) / r)) <= 1e-12 * n)

    @staticmethod
    def _kernel_cycle(kind, r, x0, p_max):
        """The closure rule of the cycle check on the maps.orbit_step orbit,
        the kernel of the maps.orbit loops it steps with; "escaped" once the
        orbit leaves the closed domain."""
        x, y = x0, (math.log(x0) if x0 > 0.0 else -math.inf)
        orbit = [(x, y)]
        for _ in range(chaos._CYCLE_TRANSIENT + 2 * p_max):
            x, y = maps.orbit_step(kind, r, x, y)
            if not maps.in_domain(kind, x):
                return "escaped"
            orbit.append((x, y))
        orbit = orbit[chaos._CYCLE_TRANSIENT:]
        z = [y if kind == "ricker" else x for x, y in orbit]

        def closes(a, b):
            # exactly equal states close too: y = -inf on Ricker's extinct fixed point
            return a == b or abs(a - b) < chaos._CYCLE_TOL

        for p in range(1, p_max + 1):
            if closes(z[p], z[0]) and closes(z[2 * p], z[p]):
                with np.errstate(divide="ignore"):
                    terms = maps.log_abs_derivative(kind, r, np.array([x for x, _ in orbit[:p]]))
                return p, float(terms.mean())
        return None

    @pytest.mark.parametrize("kind,r_min,r_max,x_max", [
        ("logistic", 2.9, 4.0, 1.0),
        ("ricker", 1.5, 3.0, 3.0),
    ])
    def test_cycle_check_is_the_kernel(self, kind, r_min, r_max, x_max):
        @given(
            r=st.floats(min_value=r_min, max_value=r_max),
            x0=st.floats(min_value=0.0, max_value=x_max),
            p_max=st.integers(min_value=1, max_value=16),
        )
        @settings(max_examples=40, deadline=None)
        def check(r, x0, p_max):
            want = self._kernel_cycle(kind, r, x0, p_max)
            if want == "escaped":
                with pytest.raises(DivergenceError):
                    chaos._attracting_cycle(kind, r, x0, p_max)
            else:
                assert chaos._attracting_cycle(kind, r, x0, p_max) == want

        check()

    @staticmethod
    def _kernel_blocks(kind, r, x, phases):
        """[(phase, states stepped from)] of maps.blocks, by a loop of
        maps.orbit_step that cuts each phase into runs of maps.BLOCK rows."""
        y, want = np.log(x), []
        for phase, steps in enumerate(phases):
            for start in range(0, steps, maps.BLOCK):
                rows = []
                for _ in range(min(maps.BLOCK, steps - start)):
                    rows.append(x)
                    x, y = maps.orbit_step(kind, r, x, y)
                want.append((phase, np.array(rows)))
        return want

    # starts on 0, 1 and NaN; per orbit, logistic r > 4 leaves [0, 1] and Ricker
    # r = 750 from 1e-17 steps past e^709.78, which overflows to inf; r also as
    # a Python int and an np.float64, which blocks makes 0-d arrays. The phases
    # hold an empty phase, lengths that are no multiple of maps.BLOCK, and
    # (3, 7) a block shorter than maps.BLOCK
    @pytest.mark.parametrize("kind,r,x0", [
        ("logistic", 3.9, [0.37, 0.5, 0.0, 1.0, math.nan]),
        ("logistic", np.array([2.5, 3.57, 3.9, 4.0, 4.3]), [0.37, 0.1, 0.8, 0.2, 0.37]),
        ("ricker", 3.0, [0.7, 1e-300, 2.0, 0.0, math.nan]),
        ("ricker", np.array([2.0, 9.146311040868133, 20.0, 750.0, 750.0]), [0.7, 0.7, 0.7, 1e-17, 0.3]),
        ("logistic", 4, [0.37, 0.5, 0.0, 1.0, math.nan]),
        ("ricker", np.float64(3.0), [0.7, 1e-300, 2.0, 0.0, math.nan]),
    ], ids=["logistic", "logistic_per_orbit", "ricker", "ricker_per_orbit", "logistic_int_r", "ricker_float64_r"])
    @pytest.mark.parametrize("phases", [(0, 450, 7), (200, 1, 401), (3, 7)])
    @pytest.mark.parametrize("overwrite", [False, True], ids=["read", "nan_written"])
    def test_blocks_are_the_kernel(self, kind, r, x0, phases, overwrite):
        # bit for bit, NaN included; a caller that writes NaN into each block
        # it is handed (as bifurcation_scan does) changes no later state
        x = np.array(x0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            want = self._kernel_blocks(kind, r, x, phases)
            got = []
            for phase, rows in maps.blocks(kind, r, x, phases):
                got.append((phase, rows.copy()))
                if overwrite:
                    rows[:] = np.nan
        assert [phase for phase, _ in got] == [phase for phase, _ in want]
        for (_, rows), (_, ref) in zip(got, want):
            assert rows.shape == ref.shape and rows.tobytes() == ref.tobytes()
        # the start is not written to; per orbit, logistic r = 4.3 leaves [0, 1]
        # and Ricker r = 750 overflows on its first step
        assert np.array_equal(x, x0, equal_nan=True)
        if isinstance(r, np.ndarray):
            states = np.concatenate([rows for _, rows in got])
            if kind == "logistic":
                assert not maps.in_domain(kind, states[1:, 4]).all()
            else:
                assert states[1, 3] == math.inf


class TestLyapunov:
    def test_logistic_r4_is_ln2(self):
        lam = lyapunov("logistic", 4.0)
        assert lam == pytest.approx(math.log(2.0), abs=1e-3)

    def test_stable_fixed_point_exact(self):
        # at an attracting fixed point the orbit average equals ln|f'(x*)|
        r = 2.5
        lam = lyapunov("logistic", r)
        assert lam == pytest.approx(math.log(abs(2.0 - r)), abs=1e-10)
        lam = lyapunov("ricker", 1.5)
        assert lam == pytest.approx(math.log(abs(1.0 - 1.5)), abs=1e-10)

    def test_period_two_window(self):
        # lambda = (ln|f'(p)| + ln|f'(q)|)/2 over the 2-cycle; r=3.2 cycle is
        # p,q = (r+1 +- sqrt((r-3)(r+1)))/(2r)
        r = 3.2
        s = math.sqrt((r - 3.0) * (r + 1.0))
        p = (r + 1.0 + s) / (2.0 * r)
        q = (r + 1.0 - s) / (2.0 * r)
        expected = 0.5 * (
            math.log(abs(r * (1 - 2 * p))) + math.log(abs(r * (1 - 2 * q)))
        )
        assert lyapunov("logistic", r) == pytest.approx(expected, abs=1e-8)

    def test_sign_change_across_onset(self):
        assert lyapunov("logistic", 3.55) < 0.0
        assert lyapunov("logistic", 3.60) > 0.0

    @pytest.mark.parametrize("burn_in", [0, 5])
    def test_ricker_overflow_is_a_named_escape(self, burn_in):
        # the first step from 0.7 needs e^900; it falls in the burn-in or,
        # without one, in the averaging blocks
        with pytest.raises(DivergenceError) as err:
            lyapunov("ricker", 3000.0, burn_in=burn_in)
        assert str(err.value) == "ricker orbit from x0=0.7 escaped [0, 1e+06] at step 1, x=inf"

    def test_superstable_returns_neg_inf(self):
        # every orbit reaches the superstable fixed point 1/2 within a block
        assert lyapunov("logistic", 2.0, burn_in=0) == float("-inf")

    @pytest.mark.parametrize("kind,r", [("logistic", 2.0), ("ricker", 1.0)])
    def test_superstable_ensemble_stops_after_one_chunk(self, kind, r):
        # every orbit lands on the superstable fixed point: a -inf term,
        # which has no spread
        lam, se, n = chaos._ensemble_exponent(kind, r, 1_000, 100_000)
        assert lam == -math.inf and math.isnan(se) and n == maps.BLOCK

    def test_divergence_raises(self):
        with pytest.raises(DivergenceError):
            lyapunov("logistic", 4.2)

    def test_ricker_chaotic_at_r28(self):
        assert lyapunov("ricker", 2.8) > 0.1

    def test_ricker_orbit_near_zero_keeps_its_digits(self):
        # at the k = 0.2 equilibrium r the orbit dips below e^-3000, where a
        # directly stepped x underflows to the extinct state and the exponent
        # reads r itself
        r = 9.146311040868133
        assert 0.0 < lyapunov("ricker", r, iters=20_000) < 1.0

    @pytest.mark.parametrize("r", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_growth_rate_rejected(self, r):
        with pytest.raises(ValueError):
            lyapunov("logistic", r)

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError, match="^burn_in must be >= 0, got -3$"):
            lyapunov("logistic", 4.0, burn_in=-3)

    def test_no_start_option(self):
        # one estimator: the ensemble from maps.DEFAULT_X0
        with pytest.raises(TypeError):
            lyapunov("logistic", 4.0, x0=0.3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            lyapunov("henon", 1.5)
        with pytest.raises(ValueError):
            classify("henon", 1.5)

    def test_domain_is_closed(self):
        # logistic 1 maps onto the extinct fixed point 0, where f'(0) = r, and
        # Ricker stays at 0; neither orbit escapes
        assert chaos._attracting_cycle("logistic", 2.0, 1.0, 1) == (1, math.log(2.0))
        # the full ln|f'(0)| = r; the telescoped lyapunov_terms would read 0 there
        assert chaos._attracting_cycle("ricker", 2.0, 0.0, 1) == (1, 2.0)
        orbit = deterministic_orbit("logistic", 2.0, 1.0, 10)
        assert orbit.tolist() == [1.0] + [0.0] * 10
        assert maps.log_abs_derivative("logistic", 2.0, orbit).mean() == math.log(2.0)
        orbit = deterministic_orbit("ricker", 2.0, 0.0, 10)
        assert orbit.tolist() == [0.0] * 11
        assert maps.log_abs_derivative("ricker", 2.0, orbit).mean() == 2.0

    @pytest.mark.parametrize("kind", ["logistic", "ricker"])
    def test_nan_start_is_outside_the_domain(self, kind):
        r = 3.5 if kind == "logistic" else 2.0
        with pytest.raises(DivergenceError):
            chaos._attracting_cycle(kind, r, math.nan, chaos._P_MAX)
        with pytest.raises(DivergenceError):
            deterministic_orbit(kind, r, math.nan, 10)

    def test_ricker_escape_above_cap_raises(self):
        # f(1/r) = e^{r-1}/r exceeds the 1e6 cap at r = 20
        with pytest.raises(DivergenceError):
            lyapunov("ricker", 20.0)

    @pytest.mark.parametrize("kind,r,message", [
        ("logistic", 4.2, "logistic orbit from x0=0.6060679774997899 escaped [0, 1] at step 1, "
                          "x=1.002748253426237"),
        # e^{3000 (1 - 0.7)} is past the float range
        ("ricker", 3000.0, "ricker orbit from x0=0.7 escaped [0, 1e+06] at step 1, x=inf"),
    ])
    def test_ensemble_escape_is_named(self, kind, r, message):
        # orbit j of the ensemble starts at frac(x0 + j (sqrt(5) - 1)/2)
        with pytest.raises(DivergenceError) as err:
            lyapunov(kind, r)
        assert str(err.value) == message


class TestClassify:
    # on an attracting cycle the exponent is the exact multiplier, so at a
    # fixed point it is ln|f'(x*)| to rounding: ln|2 - r| logistic, ln|1 - r|
    # Ricker
    @pytest.mark.parametrize("r", np.linspace(1.05, 2.95, 20))
    def test_logistic_stable_window(self, r):
        rep = classify("logistic", float(r), iters=20_000)
        assert rep.regime == "stable_fixed"
        assert rep.period == 1
        assert rep.lyapunov == pytest.approx(math.log(abs(2.0 - r)), rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("r", np.linspace(0.05, 1.95, 20))
    def test_ricker_stable_window(self, r):
        rep = classify("ricker", float(r), iters=20_000)
        assert rep.regime == "stable_fixed"
        assert rep.period == 1
        assert rep.lyapunov == pytest.approx(math.log(abs(1.0 - r)), rel=0.0, abs=1e-12)

    def test_logistic_two_cycle_multiplier(self):
        # the r = 3.2 cycle p, q = (r+1 +- sqrt((r-3)(r+1)))/(2r) has
        # f'(p) f'(q) = 4 + 2r - r^2
        r = 3.2
        rep = classify("logistic", r)
        assert rep.regime == "periodic" and rep.period == 2
        want = 0.5 * math.log(abs(4.0 + 2.0 * r - r * r))
        assert rep.lyapunov == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_ricker_two_cycle_multiplier_vs_mpmath(self):
        r = 2.3
        with mpmath.workdps(40):
            def f(x):
                return x * mpmath.exp(r * (1 - x))

            def df(x):
                return mpmath.exp(r * (1 - x)) * (1 - r * x)

            a = mpmath.findroot(lambda x: f(f(x)) - x, 0.4)
            assert abs(a - 1) > 0.1  # a point of the 2-cycle, not the fixed point 1
            want = float(mpmath.log(abs(df(a) * df(f(a)))) / 2)
        rep = classify("ricker", r)
        assert rep.regime == "periodic" and rep.period == 2
        assert rep.lyapunov == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_superstable_cycles_without_warning(self):
        # f' = 0 on the cycle: the exponent is -inf, and the log of the zero
        # derivative raises no RuntimeWarning (the suite makes those errors)
        for kind, r in (("logistic", 2.0), ("ricker", 1.0)):
            rep = classify(kind, r)
            assert (rep.regime, rep.period, rep.lyapunov) == ("stable_fixed", 1, -math.inf)
        # r = 1 + sqrt(5) is superstable through x = 1/2 in exact arithmetic;
        # in floats the cycle passes within rounding of it
        rep = classify("logistic", 1.0 + math.sqrt(5.0))
        assert rep.regime == "periodic" and rep.period == 2 and rep.lyapunov < -10.0

    def test_ricker_orbit_near_zero_has_no_cycle(self):
        # at the k = 0.2 equilibrium r the orbit dips below e^-745, where a
        # directly stepped x underflows to the extinct fixed point 0 and
        # closes at period 1; stepped in ln x it closes nowhere
        r = 9.146311040868133
        for x0 in (0.7, 1.3):
            assert chaos._attracting_cycle("ricker", r, x0, chaos._P_MAX) is None
        # the long-run exponent is about 0.049 (a 4e5-step orbit average)
        rep = classify("ricker", r)
        assert rep.regime == "chaotic" and rep.se > 0.0
        assert abs(rep.lyapunov - 0.049) <= 4.0 * rep.se

    @staticmethod
    def _orbit_average_rule(kind, r, iters):
        """Regime and period by the orbit-average rule: the sign of the
        lyapunov orbit average decides, and a period counts only below
        -_LYAP_TOL, as the least p whose directly stepped orbit returns within
        1e-8 after the cycle-check transient."""
        lam = _orbit_average(kind, r, maps.DEFAULT_X0[kind], chaos.DEFAULT_BURN_IN, iters)
        if lam > chaos._LYAP_TOL:
            return "chaotic", None
        x = maps.DEFAULT_X0[kind]
        for _ in range(chaos._CYCLE_TRANSIENT):
            x = maps.step(kind, r, x)
        ref = x
        for p in range(1, chaos._P_MAX + 1):
            x = maps.step(kind, r, x)
            if abs(x - ref) < 1e-8 * max(1.0, abs(ref)) and lam < -chaos._LYAP_TOL:
                return ("stable_fixed" if p == 1 else "periodic"), p
        return "marginal", None

    @pytest.mark.parametrize("kind,r_min,r_max", [("logistic", 0.5, 4.0), ("ricker", 0.1, 4.5)])
    def test_cycle_first_agrees_with_orbit_average_rule(self, kind, r_min, r_max):
        for r in np.linspace(r_min, r_max, 60):
            rep = classify(kind, float(r), iters=20_000)
            assert (rep.regime, rep.period) == self._orbit_average_rule(kind, float(r), 20_000), r

    def test_onset_bracket(self):
        assert classify("logistic", 3.55).regime == "periodic"
        assert classify("logistic", 3.60).regime == "chaotic"

    def test_periodic(self):
        rep = classify("logistic", 3.2, iters=20_000)
        assert rep.regime == "periodic" and rep.period == 2
        rep = classify("logistic", 3.5, iters=20_000)
        assert rep.regime == "periodic" and rep.period == 4
        rep = classify("ricker", 2.3, iters=20_000)
        assert rep.regime == "periodic" and rep.period == 2

    def test_chaotic(self):
        assert classify("logistic", 3.7, iters=20_000).regime == "chaotic"
        assert classify("logistic", 4.0, iters=20_000).regime == "chaotic"
        assert classify("ricker", 2.8, iters=20_000).regime == "chaotic"

    def test_marginal_at_neutral_fixed_point(self):
        # logistic r=1: x*=0 has f'(0)=1, lambda ~ 0, no attracting cycle
        rep = classify("logistic", 1.0, iters=20_000)
        assert rep.regime == "marginal"
        assert abs(rep.lyapunov) < 1e-2

    def test_divergent(self):
        assert classify("logistic", 4.5, iters=5_000).regime == "divergent"

    def test_logistic_r4_standard_error_covers_ln2(self):
        rep = classify("logistic", 4.0)
        assert rep.regime == "chaotic" and rep.se > 0.0
        assert abs(rep.lyapunov - math.log(2.0)) <= 4.0 * rep.se

    @pytest.mark.parametrize("k", [0.2, 1.0, 2.0])
    def test_standard_error_covers_a_long_orbit_average(self, k):
        # the Ricker k = 0.2, 1 and 2 roots against one 10^6-step orbit from
        # 0.7 of the full ln|f'|; at k = 0.2 its dropped half, (y_n - y_0)/n,
        # is at most about 3600/10^6
        r = solve("ricker", k, 0.0).branches[0].r
        rep = classify("ricker", r)
        reference = _orbit_average("ricker", r, 0.7, chaos.DEFAULT_BURN_IN, 1_000_000)
        assert rep.regime == "chaotic" and rep.se > 0.0
        assert abs(rep.lyapunov - reference) <= 4.0 * rep.se

    def test_chaotic_stops_before_the_cap(self):
        rep = classify("logistic", 3.7, iters=20_000)
        assert rep.regime == "chaotic" and rep.iters < 20_000
        assert rep.lyapunov > 4.0 * rep.se

    def test_unsettled_sign_at_the_cap_is_marginal(self):
        # at the logistic accumulation point of period doubling the exponent
        # is 0, and after 1100 steps its estimate is still within 4 se of it;
        # the cap need not be a whole number of chunks
        rep = classify("logistic", 3.5699456718709449, iters=1_100)
        assert rep.regime == "marginal" and rep.iters == 1_100
        assert rep.lyapunov > 0.0 and rep.lyapunov <= 4.0 * rep.se

    def test_k02_root_settles_in_one_block(self):
        # the telescoped Ricker terms settle the sign at the k = 0.2 root
        # after one block; the full ln|f'| needed 6200 steps
        rep = classify("ricker", 9.146311040868133)
        assert rep.regime == "chaotic" and rep.iters <= 400

    @pytest.mark.parametrize("kind,r", [("logistic", 3.7), ("ricker", 2.8)])
    def test_lyapunov_without_x0_is_the_classify_estimate(self, kind, r):
        assert lyapunov(kind, r) == classify(kind, r).lyapunov

    def test_period_80_cycle(self):
        # the k = 2.6 root closes only at period 80, beyond a window of 64
        r = solve("ricker", 2.6, 0.0).branches[0].r
        assert chaos._attracting_cycle("ricker", r, 0.7, 64) is None
        rep = classify("ricker", r)
        assert (rep.regime, rep.period, rep.se, rep.iters) == ("periodic", 80, None, None)
        assert rep.lyapunov == pytest.approx(-0.034200126355, rel=0.0, abs=1e-12)

    def test_ricker_overflow_is_divergent(self):
        # at r = 3000 the orbits from the default start 0.7 overflow the
        # float range: the first step needs e^900
        report = classify("ricker", 3000.0)
        assert report.regime == "divergent" and math.isnan(report.lyapunov)


def _reference_scan(kind, r_min, r_max, n_r, samples_per_r, burn_in, lyap_iters):
    """(rs, exponents, standard errors, samples by grid point, escape step per
    point or -1), stepping all points one step at a time: a point is NaN from
    the step on which it leaves the domain, 0 for the start. The
    lyapunov_terms of each step are kept, summed over each run of maps.BLOCK
    averaging steps, and the standard error is that of the run means (batch
    means, weighted by run length)."""
    rs = np.linspace(r_min, r_max, n_r)
    x = np.full(n_r, maps.DEFAULT_X0[kind])
    terms, samples, escape = np.empty((lyap_iters, n_r)), np.empty((n_r, samples_per_r)), np.full(n_r, -1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = np.log(x)
        escape[~maps.in_domain(kind, x)] = 0
        x[escape == 0] = np.nan
        for t in range(burn_in + lyap_iters + samples_per_r):
            if t >= burn_in + lyap_iters:
                samples[:, t - burn_in - lyap_iters] = x
            elif t >= burn_in:
                terms[t - burn_in] = maps.lyapunov_terms(kind, rs, x)
            x, y = maps.orbit_step(kind, rs, x, y)
            out = ~maps.in_domain(kind, x)
            escape[out & (escape < 0)] = t + 1
            x[out] = np.nan
        starts = range(0, lyap_iters, maps.BLOCK)
        sums = [terms[i:i + maps.BLOCK].sum(axis=0) for i in starts]
        lam = np.sum(sums, axis=0) / lyap_iters
        sizes = [min(maps.BLOCK, lyap_iters - i) for i in starts]
        spread = sum(b * (s / b - lam) ** 2 for b, s in zip(sizes, sums))
        se = np.sqrt(spread / (len(sizes) - 1) / lyap_iters)
    return rs, lam, se, samples, escape


class TestBifurcationScan:
    @pytest.mark.parametrize("kind,r_min,r_max,n_r,samples_per_r,burn_in,lyap_iters,escapes", [
        # escapes in all three phases; several blocks in each Ricker phase
        ("logistic", 3.9, 4.3, 81, 450, 3, 21, True),
        ("ricker", 1.0, 40.0, 100, 450, 301, 457, True),
        # nothing escapes in the first block: the first escape is at step 284,
        # the orbits then lie at 0, inside the domain
        ("ricker", 17.0, 25.0, 9, 450, 300, 457, True),
        # superstable at r = 2, giving an exponent of -inf
        ("logistic", 2.0, 4.0, 9, 5, 1_000, 5_000, False),
        # Ricker orbits that dip below e^-745
        ("ricker", 9.0, 9.2, 3, 201, 399, 1_001, False),
    ])
    def test_matches_per_step_reference(self, kind, r_min, r_max, n_r, samples_per_r, burn_in,
                                        lyap_iters, escapes):
        recs = bifurcation_scan(kind, r_min, r_max, n_r, samples_per_r, burn_in, lyap_iters)
        rs, lam, se, samples, escape = _reference_scan(kind, r_min, r_max, n_r, samples_per_r,
                                                       burn_in, lyap_iters)
        assert [rec.r for rec in recs] == list(rs)
        assert np.array_equal([rec.lyapunov for rec in recs], lam, equal_nan=True)
        assert np.array_equal([rec.se for rec in recs], se, equal_nan=True)
        # NaN with one block (lyap_iters <= BLOCK), at -inf and after an escape
        assert np.isnan(se).all() == (lyap_iters <= maps.BLOCK)
        assert np.array_equal([rec.samples for rec in recs], samples, equal_nan=True)
        # the phase of each escape: burn-in 0, averaging 1, sampling 2
        phases = np.searchsorted([burn_in, burn_in + lyap_iters], escape[escape >= 0], "right")
        assert set(phases) == ({0, 1, 2} if escapes else set())
        # f'(x*) = 0 at the fixed point x* = 1/2 of logistic r = 2 and x* = 1 of Ricker r = 1
        assert (lam[0] == -math.inf) == ((kind, r_min) in {("logistic", 2.0), ("ricker", 1.0)})

    @pytest.mark.parametrize("kind,x0", [("logistic", 1.5), ("ricker", math.nan)])
    def test_escaped_start_matches_per_step_reference(self, monkeypatch, kind, x0):
        # a start outside the domain: every point is NaN from step 0 on
        monkeypatch.setitem(maps.DEFAULT_X0, kind, x0)
        args = (kind, 2.0, 3.0, 5, 450, 300, 457)
        recs = bifurcation_scan(*args)
        rs, lam, se, samples, escape = _reference_scan(*args)
        assert (escape == 0).all() and np.isnan(lam).all()
        assert np.array_equal([rec.lyapunov for rec in recs], lam, equal_nan=True)
        assert np.array_equal([rec.se for rec in recs], se, equal_nan=True)
        assert np.array_equal([rec.samples for rec in recs], samples, equal_nan=True)

    @pytest.mark.parametrize("arg,value", [
        ("burn_in", -1), ("lyap_iters", 0), ("samples_per_r", -1),
    ])
    def test_rejects_bad_orbit_length(self, arg, value):
        with pytest.raises(ValueError, match=f"^{arg} must be >= "):
            bifurcation_scan("logistic", 2.0, 3.0, 10, **{arg: value})

    def test_shape_and_grid(self):
        recs = bifurcation_scan("logistic", 2.5, 4.0, 16, samples_per_r=10, lyap_iters=2_000)
        assert len(recs) == 16
        assert recs[0].r == 2.5 and recs[-1].r == 4.0
        assert all(rec.samples.shape == (10,) for rec in recs)
        assert np.allclose(recs[0].samples, 0.6, rtol=0.0, atol=1e-9)
        assert recs[0].lyapunov == pytest.approx(math.log(0.5), abs=1e-8)

    def test_ricker_orbit_near_zero_is_not_extinct(self):
        # at r ~ 9 the orbit spends about half its time below e^-745, where
        # a sample reads 0.0; a directly stepped x stays at 0 from the first
        # such dip on, and the exponent then reads r
        recs = bifurcation_scan("ricker", 9.0, 9.2, 3, samples_per_r=500)
        for rec in recs:
            assert np.all(np.isfinite(rec.samples)) and np.all(rec.samples >= 0.0)
            assert rec.samples.max() > 1.0
            assert math.isfinite(rec.lyapunov) and rec.lyapunov != rec.r

    def test_ricker_k02_band_has_a_settled_sign(self):
        # around the k = 0.2 root (r = 9.1463) at the default lyap_iters; the
        # full ln|f'| read -0.21 +- 1.57 at that root
        for rec in bifurcation_scan("ricker", 9.0, 9.2, 5):
            assert rec.lyapunov > 4.0 * rec.se > 0.0, rec.r

    def test_ricker_k02_root_is_chaotic(self):
        # the k = 0.2 equilibrium growth rate, as in the scalar test above
        r = 9.146311040868133
        rec = bifurcation_scan("ricker", r, r + 0.1, 2, samples_per_r=1, lyap_iters=20_000)[0]
        assert 0.0 < rec.lyapunov < 1.0

    def test_lyapunov_crosses_zero_on_grid(self):
        recs = bifurcation_scan("logistic", 2.9, 4.0, 112, samples_per_r=5, lyap_iters=4_000)
        lams = np.array([rec.lyapunov for rec in recs])
        rs = np.array([rec.r for rec in recs])
        assert np.all(lams[rs < 3.4] < 0.0)
        assert lams[np.argmin(np.abs(rs - 3.7))] > 0.0

    def test_matches_scalar_lyapunov(self):
        recs = bifurcation_scan("logistic", 3.7, 4.0, 2, samples_per_r=5, lyap_iters=50_000)
        for rec in recs:
            assert rec.lyapunov == pytest.approx(lyapunov("logistic", rec.r), abs=5e-3)

    def test_fixed_point_samples_constant(self):
        recs = bifurcation_scan("ricker", 1.0, 1.5, 3, samples_per_r=20, lyap_iters=500)
        for rec in recs:
            assert np.allclose(rec.samples, 1.0, atol=1e-6)

    def test_escaped_points_are_nan(self):
        recs = bifurcation_scan("logistic", 3.9, 4.3, 5, samples_per_r=5, lyap_iters=500)
        assert np.isnan(recs[-1].samples).all()
        assert math.isnan(recs[-1].lyapunov)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            bifurcation_scan("logistic", 3.0, 2.0, 10)
        with pytest.raises(ValueError):
            bifurcation_scan("logistic", 2.0, 3.0, 1)
        with pytest.raises(ValueError):
            bifurcation_scan("logistic", math.nan, 3.0, 10)
        with pytest.raises(ValueError):
            bifurcation_scan("henon", 2.0, 3.0, 10)


class TestTransitionReport:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 10.0, 100.0])
    def test_logistic_never_transitions(self, k):
        # both logistic branches sit below 3, inside the stable window
        from steadychaos import logistic_noise_bound

        v = min(0.05, 0.5 * logistic_noise_bound(k))
        rep = transition_report("logistic", k, v)
        assert not rep.transition_found
        for _, branch_rep in rep.branches:
            assert branch_rep.regime in ("stable_fixed", "marginal")

    @pytest.mark.parametrize("k", [0.5, 1.0])
    def test_ricker_small_k_transitions(self, k):
        rep = transition_report("ricker", k, 0.0)
        assert rep.transition_found
        labels = dict(rep.branches)
        assert labels["plus"].regime == "chaotic"

    def test_ricker_large_k_no_transition(self):
        rep = transition_report("ricker", 100.0, 0.0)
        assert not rep.transition_found

    def test_branch_labels_match_solution(self):
        rep = transition_report("ricker", 1.0, 0.05)
        assert [label for label, _ in rep.branches] == [b.label for b in rep.solution.branches]
