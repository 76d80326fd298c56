import math

import numpy as np
import pytest

from piecewise_prox import CertificateError, certify_step_size


class TestSentinels:
    def test_single_piece_binds_inverse_lipschitz(self):
        cert = certify_step_size(L_g=2.0, G=1.0, F0=0.5)
        assert cert.binding_term == "1/L_g"
        assert cert.s_max == pytest.approx(0.5)
        assert cert.feasible
        # all kappas are +inf sentinels below s_max
        kappa, k0, k1, k2 = cert.kappas(0.25)
        assert math.isinf(kappa) and math.isinf(k0)

    def test_jump_only_penalty_never_infeasible(self):
        cert = certify_step_size(L_g=1.0, G=1.0, F0=0.0, J=1.0, d=5)
        assert cert.feasible
        kappa, k0, k1, k2 = cert.kappas(0.5 * cert.s_max)
        assert kappa > 0 and k0 > 0 and k2 > 0
        assert math.isinf(k1)

    def test_eps0_required_with_continuous_endpoints(self):
        with pytest.raises(CertificateError, match="eps0"):
            certify_step_size(L_g=1.0, G=0.1, F0=0.2, C=0.2)

    def test_eps0_not_required_without_them(self):
        cert = certify_step_size(L_g=1.0, G=0.1, F0=0.2, J=0.5)
        assert cert.feasible


class TestFeasibility:
    def test_gradient_dominated_constants_are_infeasible(self):
        # C w0 eps0 <= G (G + sqrt(d) F0) leaves no positive kappa step
        cert = certify_step_size(L_g=1.0, G=4.0, F0=0.2, C=0.2, eps0=0.8,
                                 s0=1.0, R0=2.0, w0=0.5, d=1)
        assert cert.s_max == 0.0
        assert not cert.feasible

    def test_kappa_positive_below_root_negative_above(self):
        cert = certify_step_size(L_g=1.0, G=0.05, F0=0.2, C=0.2, eps0=0.8,
                                 s0=1.0, R0=2.0, w0=0.5, d=1)
        assert cert.feasible
        root = cert.terms["kappa-positivity"]
        assert cert.kappas(0.99 * root)[0] > 0
        assert cert.kappas(1.01 * root)[0] < 0

    def test_closed_form_root_is_where_kappa_changes_sign(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(500):
            kw = dict(L_g=rng.uniform(0.01, 10.0), G=rng.uniform(0.0, 1.0),
                      F0=rng.uniform(0.0, 1.0), w0=rng.choice([rng.uniform(0.01, 1.0), 1.0]),
                      d=int(rng.integers(1, 50)))
            which = rng.integers(0, 3)
            if which != 1:
                kw.update(C=rng.uniform(0.01, 5.0), eps0=rng.uniform(0.01, 5.0))
            if which != 0:
                kw.update(J=rng.uniform(0.01, 5.0))
            cert = certify_step_size(**kw)
            root = cert.terms["kappa-positivity"]
            if 0 < root < math.inf:
                checked += 1
                assert cert.kappas((1 - 1e-9) * root)[0] > 0, kw
                assert cert.kappas((1 + 1e-9) * root)[0] <= 0, kw
        assert checked > 300

    def test_root_unbounded_without_gradient_or_slope(self):
        cert = certify_step_size(L_g=1.0, G=0.0, F0=0.0, J=0.5)
        assert cert.terms["kappa-positivity"] == math.inf
        assert cert.s_max == 1.0


class TestRandomDraws:
    def test_all_kappas_positive_below_s_max(self):
        # light version of the acceptance criterion: 200 draws here
        rng = np.random.default_rng(0)
        feasible = 0
        for _ in range(200):
            kw = dict(
                L_g=rng.uniform(0.2, 3.0),
                G=rng.uniform(0.005, 0.08),
                F0=rng.uniform(0.02, 0.3),
                w0=rng.uniform(0.3, 1.0),
                d=int(rng.integers(1, 8)),
                s0=rng.uniform(0.1, 2.0),
            )
            which = rng.integers(0, 3)
            if which == 0:
                kw.update(C=rng.uniform(0.2, 2.0), eps0=rng.uniform(0.3, 2.0))
            elif which == 1:
                kw.update(J=rng.uniform(0.1, 2.0))
            else:
                kw.update(C=rng.uniform(0.2, 2.0), eps0=rng.uniform(0.3, 2.0),
                          J=rng.uniform(0.1, 2.0))
            cert = certify_step_size(**kw)
            if not cert.feasible:
                continue
            feasible += 1
            for frac in (0.1, 0.5, 0.999):
                s = frac * cert.s_max
                kappa, k0, k1, k2 = cert.kappas(s)
                assert kappa > 0, (kw, s)
                assert k0 > 0 and k1 > 0 and k2 > 0
        assert feasible > 100  # the draw ranges keep most samples feasible

    def test_s_max_shrinks_when_G_doubles(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            kw = dict(
                L_g=rng.uniform(0.2, 3.0),
                G=rng.uniform(0.005, 0.05),
                F0=rng.uniform(0.02, 0.3),
                C=rng.uniform(0.2, 2.0),
                eps0=rng.uniform(0.3, 2.0),
                J=rng.uniform(0.1, 2.0),
                w0=rng.uniform(0.3, 1.0),
                s0=rng.uniform(0.1, 2.0),
            )
            a = certify_step_size(**kw)
            kw2 = dict(kw)
            kw2["G"] = 2.0 * kw["G"]
            b = certify_step_size(**kw2)
            assert b.s_max <= a.s_max + 1e-15


class TestValidation:
    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(CertificateError):
            certify_step_size(L_g=0.0, G=1.0, F0=0.1)
        with pytest.raises(CertificateError):
            certify_step_size(L_g=1.0, G=1.0, F0=0.1, C=-0.5, eps0=1.0)
        with pytest.raises(CertificateError):
            certify_step_size(L_g=1.0, G=1.0, F0=0.1, w0=0.0)

    @pytest.mark.parametrize("kw", [
        {"C": math.nan, "eps0": 1.0}, {"J": math.nan}, {"s0": math.nan},
        {"C": 1.0, "eps0": math.nan}, {"R0": math.nan}, {"R0": 0.0}, {"R0": -1.0},
    ], ids=["C-nan", "J-nan", "s0-nan", "eps0-nan", "R0-nan", "R0-zero", "R0-negative"])
    def test_nan_or_nonpositive_constant_rejected(self, kw):
        with pytest.raises(CertificateError, match="must be positive"):
            certify_step_size(L_g=1.0, G=0.1, F0=0.2, **kw)

    @pytest.mark.parametrize("name", ["L_g", "G", "F0", "w0"])
    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
    def test_negative_or_non_finite_input_rejected(self, name, value):
        kw = {"L_g": 1.0, "G": 0.1, "F0": 0.2, "w0": 0.5, name: value}
        with pytest.raises(CertificateError, match=f"{name} must be finite and nonnegative"):
            certify_step_size(**kw)

    def test_dimension_below_one_rejected(self):
        with pytest.raises(CertificateError, match="d must be at least 1"):
            certify_step_size(L_g=1.0, G=0.1, F0=0.2, d=0)

    @pytest.mark.parametrize("s", [0.0, -0.5, math.nan])
    def test_kappas_need_a_positive_step(self, s):
        cert = certify_step_size(L_g=1.0, G=0.1, F0=0.2)
        with pytest.raises(ValueError, match="step size must be positive"):
            cert.kappas(s)

    def test_describe_infeasible(self):
        cert = certify_step_size(L_g=1.0, G=4.0, F0=0.2, C=0.2, eps0=0.8, s0=1.0, R0=2.0)
        assert cert.describe().endswith(
            "  infeasible: no positive step size certifies a kappa decrease")

    def test_describe_mentions_binding_term(self):
        cert = certify_step_size(L_g=2.0, G=1.0, F0=0.5)
        assert "binding term: 1/L_g" in cert.describe()
