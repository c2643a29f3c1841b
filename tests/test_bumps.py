import numpy as np

from bilop.bumps import cinf_germ, smooth_step


def two_germ_step(t):
    """The step as a / (a + b + tiny) with both germs taken everywhere."""
    a = cinf_germ(t)
    b = cinf_germ(1.0 - np.asarray(t, dtype=float))
    return a / (a + b + np.finfo(float).tiny)


class TestSmoothStep:
    def test_bitwise_equal_to_two_germ_formula(self):
        rng = np.random.default_rng(0)
        edges = [0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300]
        edges += [np.nextafter(x, d) for x in (0.0, 1.0) for d in (-np.inf, np.inf)]
        with np.errstate(over="ignore"):  # exp(-1/1e-300) overflows in the divide
            for t in (rng.uniform(-6.0, 6.0, 4_000_000), np.linspace(-3.0, 4.0, 1_000_000), np.array(edges)):
                out = smooth_step(t)
                assert out.dtype == np.float64
                assert np.array_equal(out, two_germ_step(t))
                assert np.array_equal(np.signbit(out), np.signbit(two_germ_step(t)))

    def test_scalar_in_scalar_out(self):
        for t in (-1.0, 0.0, 0.25, 1.0, 2.0, np.nan):
            out = smooth_step(t)
            assert np.ndim(out) == 0 and not isinstance(out, np.ndarray)
            assert out == two_germ_step(t)
        assert smooth_step(np.nan) == 0.0
