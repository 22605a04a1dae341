"""Expression grammar, homotopy construction, and assumption validation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hessquot.errors import BadAnnulus, EvalError, ParseError, UnknownIdentifier
from hessquot.fspec import (
    Bin,
    Call,
    Neg,
    Num,
    Var,
    eval_f,
    eval_homotopy,
    make_homotopy,
    parse_f,
    quasi_uniform_directions,
    reference_level,
    to_source,
    validate_assumptions,
)
from hessquot.manufactured import cosine_profile, manufactured_forcing
from hessquot.symfun import QuotientParams


class TestParser:
    def test_literal(self):
        assert parse_f("6") == Num(6.0)

    def test_product_with_power(self):
        got = parse_f("6 * rho^(-2)")
        assert got == Bin("*", Num(6.0), Bin("^", Var("rho", 0), Neg(Num(2.0))))

    def test_unknown_identifier_with_offset(self):
        with pytest.raises(UnknownIdentifier) as err:
            parse_f("2*sigma")
        assert err.value.position == 2

    def test_coordinate_beyond_ambient_dimension(self):
        # with the ambient dimension the parser rejects the token where it stands
        for text, at in (("1 + x4", 4), ("x0", 0), ("2 * nu4", 4)):
            with pytest.raises(UnknownIdentifier) as err:
                parse_f(text, 3)
            assert err.value.position == at
        assert parse_f("x3 + nu3", 3) == parse_f("x3 + nu3")
        assert parse_f("x4") == Var("x", 4)

    def test_precedence_power_over_unary_minus(self):
        assert eval_f(parse_f("-2^2"), np.array([1.0, 0.0]), np.array([1.0, 0.0])) == -4.0

    def test_power_right_associative(self):
        assert eval_f(parse_f("2^3^2"), np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 512.0

    def test_left_associative_subtraction(self):
        assert eval_f(parse_f("1 - 2 - 3"), np.array([1.0, 0.0]), np.array([1.0, 0.0])) == -4.0

    def test_functions_and_whitespace(self):
        expr = parse_f("  exp( log( rho ) )+0* sin(x1)")
        val = eval_f(expr, np.array([0.0, 2.0]), np.array([0.0, 1.0]))
        assert val == pytest.approx(2.0)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_f("")
        with pytest.raises(ParseError):
            parse_f("1 +")
        with pytest.raises(ParseError):
            parse_f("(1 + 2")
        with pytest.raises(ParseError):
            parse_f("1 $ 2")

    def test_trailing_whitespace(self):
        for text in ("1 ", "rho\t", "x1 + 2  ", "6 * rho^(-2)\n"):
            assert parse_f(text) == parse_f(text.rstrip())
        with pytest.raises(ParseError) as err:
            parse_f("1 $ ")
        assert err.value.position == 2


def expr_trees(depth=3):
    leaves = st.one_of(
        st.floats(min_value=0.1, max_value=9.0).map(lambda v: Num(round(v, 3))),
        st.sampled_from(
            [Var("rho", 0), Var("x", 1), Var("x", 2), Var("nu", 1), Var("nu", 2)]
        ),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: Bin(t[0], t[1], t[2])
            ),
            children.map(Neg),
            st.tuples(st.sampled_from(["exp", "sin", "cos", "abs"]), children).map(
                lambda t: Call(t[0], t[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


class TestRoundTrip:
    @given(expr_trees())
    def test_print_then_parse_is_identity(self, tree):
        assert parse_f(to_source(tree)) == tree

    def test_corpus(self):
        for text in (
            "12 * rho^(-3) * (1 + 0.2 * x1 / rho)",
            "exp(-rho) + sqrt(abs(x2))/3",
            "1 - 2 - 3 - nu1",
            "2^-3^2",
            "-(x1 + x2) * -1.5",
        ):
            tree = parse_f(text)
            assert parse_f(to_source(tree)) == tree


class TestEval:
    def test_rho_binds_to_radius(self):
        assert eval_f(parse_f("rho"), np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 1.0])) == 2.0

    def test_normal_component(self):
        got = eval_f(parse_f("nu1"), np.array([3.0, 4.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert got == 1.0

    def test_inverse_square(self):
        X = np.array([0.6, 0.8, 0.0])
        assert eval_f(parse_f("6*rho^(-2)"), X, X / np.linalg.norm(X)) == pytest.approx(6.0)

    def test_batched_evaluation(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        nu = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        got = eval_f(parse_f("rho + x2"), X, nu)
        assert got == pytest.approx([1.0, 4.0, 3.0])
        # calling a tree is eval_f
        assert np.array_equal(parse_f("rho + x2")(X, nu), got)

    def test_eval_errors(self):
        X = np.array([1.0, 0.0])
        nu = np.array([1.0, 0.0])
        with pytest.raises(EvalError):
            eval_f(parse_f("log(x2)"), X, nu)
        with pytest.raises(EvalError):
            eval_f(parse_f("1/x2"), X, nu)
        with pytest.raises(EvalError):
            eval_f(parse_f("sqrt(-rho)"), X, nu)
        with pytest.raises(UnknownIdentifier) as err:
            eval_f(parse_f("x7"), X, nu)
        # the tree keeps no offsets, so none is claimed
        assert err.value.name == "x7" and err.value.position is None
        assert str(err.value) == "unknown identifier 'x7' in ambient dimension 2"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            eval_f(parse_f("rho"), np.zeros(3), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            eval_f(parse_f("rho"), np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]))

    def test_batched_radius_and_unit_check_against_linalg_norm(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 4))
        nu = X / np.linalg.norm(X, axis=-1, keepdims=True)
        eps = np.finfo(float).eps
        np.testing.assert_allclose(eval_f(parse_f("rho"), X, nu),
                                   np.linalg.norm(X, axis=-1), rtol=4 * eps, atol=0)
        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("1"), p, 0.5, 2.0)
        rho_m = np.linalg.norm(X, axis=-1) ** -2.0
        np.testing.assert_allclose(
            eval_homotopy(target, 0.0, X, nu),
            reference_level(p) * (rho_m + target.epsilon * (rho_m - 1.0)), rtol=16 * eps)
        # the unit check holds row by row, to within 1e-8
        X[17] = 0.0
        with pytest.raises(ValueError, match="X must be nonzero"):
            eval_f(parse_f("rho"), X, nu)
        X[17] = nu[17]
        eval_f(parse_f("rho"), X, nu * (1.0 + 1e-9))
        nu[17] *= 1.0 + 1e-7
        with pytest.raises(ValueError, match="unit vector"):
            eval_f(parse_f("rho"), X, nu)


class TestHomotopy:
    def test_epsilon_worked_example(self):
        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("1"), p, 0.5, 2.0)
        # bracket at rho = 2 is 1/4 + eps(1/4 - 1); critical eps = 1/6, halved
        assert target.epsilon == pytest.approx(1.0 / 12.0, rel=1e-9)
        assert target.c0 == pytest.approx(0.125)

    def test_epsilon_cap(self):
        # m = 2 on [0.5, 1.5]: the halved bound (4/9 - 2/9)/(1 - 4/9)/2 = 1/5 exceeds the cap
        target = make_homotopy(parse_f("1"), QuotientParams(3, 2, 0), 0.5, 1.5)
        assert target.epsilon == 0.1

    def test_bad_annulus(self):
        p = QuotientParams(3, 2, 0)
        with pytest.raises(BadAnnulus):
            make_homotopy(parse_f("1"), p, 1.5, 2.0)
        with pytest.raises(BadAnnulus):
            make_homotopy(parse_f("1"), p, 0.5, 0.9)
        with pytest.raises(BadAnnulus):
            make_homotopy(parse_f("1"), p, 0.0, 2.0)

    def test_infinite_outer_radius(self):
        with pytest.raises(BadAnnulus):
            make_homotopy(parse_f("1"), QuotientParams(3, 2, 0), 0.5, float("inf"))

    def test_reference_at_unit_radius(self):
        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("1"), p, 0.5, 2.0)
        X = np.array([1.0, 0.0, 0.0, 0.0])
        got = eval_homotopy(target, 0.0, X, X)
        assert got == pytest.approx(reference_level(p))
        assert reference_level(p) == pytest.approx(12.0)

    def test_t_one_recovers_base(self):
        p = QuotientParams(3, 2, 0)
        base = parse_f("7 + x1")
        target = make_homotopy(base, p, 0.5, 2.0)
        X = np.array([0.0, 1.3, 0.0, 0.0])
        nu = np.array([0.0, 1.0, 0.0, 0.0])
        assert eval_homotopy(target, 1.0, X, nu) == pytest.approx(eval_f(base, X, nu))

    def test_worked_value_at_radius_two(self):
        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("1"), p, 0.5, 2.0)
        X = np.array([2.0, 0.0, 0.0, 0.0])
        got = eval_homotopy(target, 0.0, X, X / 2.0)
        assert got == pytest.approx(12.0 * (0.25 + (1.0 / 12.0) * (0.25 - 1.0)))
        assert got == pytest.approx(2.25)

    def test_affine_in_t(self):
        p = QuotientParams(4, 3, 1)
        target = make_homotopy(parse_f("2 + nu2"), p, 0.5, 2.0)
        X = np.array([1.1, 0.4, 0.0, 0.0, 0.2])
        nu = X / np.linalg.norm(X)
        f0 = eval_homotopy(target, 0.0, X, nu)
        f1 = eval_homotopy(target, 1.0, X, nu)
        for t in (0.25, 0.5, 0.875):
            assert eval_homotopy(target, t, X, nu) == pytest.approx(
                (1.0 - t) * f0 + t * f1, rel=1e-12
            )

    def test_positivity_on_annulus(self):
        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("0.5 + 0.2*nu1"), p, 0.5, 2.0)
        dirs = quasi_uniform_directions(64, 4)
        rng = np.random.default_rng(1)
        for t in (0.0, 0.3, 0.7, 1.0):
            radii = rng.uniform(0.5, 2.0, size=64)
            vals = eval_homotopy(target, t, radii[:, None] * dirs, dirs)
            assert np.all(np.asarray(vals) > 0.0)

    def test_out_of_range_t(self):
        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("1"), p, 0.5, 2.0)
        with pytest.raises(ValueError):
            eval_homotopy(target, 1.5, np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0, 0]))


class TestValidateAssumptions:
    def test_decaying_prescription_passes(self):
        p = QuotientParams(3, 2, 0)
        report = validate_assumptions(parse_f("12 * rho^(-3)"), p, 0.5, 2.0)
        assert report.all_passed
        # closed-form margins: outer 12/r2^2 - 12/r2^3, inner 12/r1^3 - 12/r1^2
        assert report.outer_bound.worst_margin == pytest.approx(3.0 - 1.5, rel=1e-9)
        assert report.inner_bound.worst_margin == pytest.approx(96.0 - 48.0, rel=1e-9)

    def test_constant_at_outer_bound_fails_inner(self):
        p = QuotientParams(3, 2, 0)
        report = validate_assumptions(parse_f("3"), p, 0.5, 2.0)
        assert report.outer_bound.passed
        assert not report.inner_bound.passed
        assert not report.radial_monotone.passed  # rho^2 * 3 is increasing

    def test_equality_case_margin_near_zero(self):
        # rho^(k-l) f is constant along rays, as in the two dilation cases
        p320 = QuotientParams(3, 2, 0)
        cases = [
            (p320, parse_f("12 * rho^(-2)")),
            (QuotientParams(6, 4, 2), parse_f("25*rho^(-2)*(1+0.1*x1/rho)")),
            (p320, manufactured_forcing(p320, cosine_profile(0.05, 2), extra_decay=0)),
        ]
        for p, base in cases:
            report = validate_assumptions(base, p, 0.5, 2.0)
            assert report.radial_monotone.passed
            assert report.radial_monotone.worst_margin == pytest.approx(0.0, abs=1e-5)

    def test_steep_rise_between_radii_fails_monotone(self):
        # rho^2 f rises 30 % across rho ~ 0.55, between the ladder's first two radii
        p = QuotientParams(3, 2, 0)
        f = parse_f("12*rho^(-3)*(1 + 0.3/(1 + exp(-(rho - 0.55)/0.005)))")
        report = validate_assumptions(f, p, 0.5, 2.0)
        assert report.outer_bound.passed
        assert report.inner_bound.passed
        assert not report.radial_monotone.passed

    @pytest.mark.parametrize("p, source, on_axis", [
        (QuotientParams(3, 2, 0), "12*rho^(-3)*(1 + 0.3/(1 + exp(-(rho - 0.55)/0.005)))", False),
        # rho^2 f = 12 (1 + 4 (rho - 1/2) w) / rho, with w = 1 only on -e1, rises
        # fastest along -e1, at the first radius
        (QuotientParams(3, 2, 0), "12*rho^(-3)*(1 + 4*(rho - 0.5)*((1 - x1/rho)/2)^8)", True),
    ], ids=["steep-rise", "on-the-axis"])
    def test_monotone_worst_point_is_its_segment_start(self, p, source, on_axis):
        # the ladder, as a reference: 66 directions (+-e1 last) x 8 normals x
        # 17 radii, direction-major; the worst segment starts at rhos[k] d
        f = parse_f(source)
        dim, m = p.n + 1, p.gap
        poles = np.array([[1.0], [-1.0]]) * np.eye(dim)[0]
        xdirs = np.vstack([quasi_uniform_directions(64, dim), poles])
        nus = quasi_uniform_directions(8, dim)
        rhos = np.linspace(0.5, 2.0, 17)
        d = np.repeat(xdirs, 8 * 17, axis=0)
        nu = np.tile(np.repeat(nus, 17, axis=0), (len(xdirs), 1))
        g = f(np.tile(rhos, len(xdirs) * 8)[:, None] * d, nu).reshape(-1, 17) * rhos**m
        segment, k = divmod(int(np.argmin(-np.diff(g, axis=1) / np.diff(rhos))), 16)
        direction = xdirs[segment // 8]
        report = validate_assumptions(f, p, 0.5, 2.0).radial_monotone
        assert not report.passed
        assert report.worst_point.tobytes() == (rhos[k] * direction).tobytes()
        assert (segment // 8 >= 64) == on_axis

    def test_nan_at_the_pole_fails_every_check(self):
        # NaN only within 1.38 degrees of +e1, between the quasi-uniform samples
        p = QuotientParams(3, 2, 0)
        f = parse_f("12 * rho^(-3) * (1 + 0 * exp(1000000 * (x1 / rho - 0.999)))")
        with np.errstate(over="ignore", invalid="ignore"):
            report = validate_assumptions(f, p, 0.5, 2.0)
        for check in (report.outer_bound, report.inner_bound, report.radial_monotone):
            assert not check.passed
            assert np.isnan(check.worst_margin)
            assert check.worst_point[0] > 0.0 and not check.worst_point[1:].any()

    def test_infinite_outer_radius(self):
        with pytest.raises(BadAnnulus):
            validate_assumptions(parse_f("12 * rho^(-3)"), QuotientParams(3, 2, 0), 0.5,
                                 float("inf"))

    def test_callable_base_is_evaluated_in_three_batches(self):
        # outer bound, inner bound, and the radial ladder of 66 x 8 rays x 17
        # radii; each direction set is quasi-uniform plus +-e1
        calls = []

        def base(X, nu):
            calls.append(len(X))
            return 12.0 * np.linalg.norm(X, axis=-1) ** -3

        report = validate_assumptions(base, QuotientParams(3, 2, 0), 0.5, 2.0)
        assert report.all_passed
        assert calls == [402, 402, 66 * 8 * 17]


class TestDirections:
    def test_unit_and_deterministic(self):
        for dim in (3, 4, 6):
            a = quasi_uniform_directions(128, dim)
            b = quasi_uniform_directions(128, dim)
            assert np.array_equal(a, b)
            assert np.linalg.norm(a, axis=1) == pytest.approx(np.ones(128), abs=1e-12)

    def test_reasonably_spread(self):
        dirs = quasi_uniform_directions(256, 3)
        assert np.abs(dirs.mean(axis=0)).max() < 0.1
