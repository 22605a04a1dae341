"""Expression grammar, homotopy construction, and assumption validation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

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
    _EXP_M2,
    _ndtri,
    parse_f,
    quasi_uniform_directions,
    reads_normal,
    reference_level,
    to_source,
    validate_assumptions,
)
from hessquot.manufactured import cosine_profile, manufactured_forcing
from hessquot.symfun import QuotientParams
from test_existence import AXISYM_G, S2_G, prescriptions


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

    @pytest.mark.parametrize("text, message, at", [
        ("1 2", "trailing input '2'", 2),
        (")", "unexpected token ')'", 0),
        ("*2", "unexpected token '*'", 0),
    ])
    def test_misplaced_token_offset(self, text, message, at):
        with pytest.raises(ParseError) as err:
            parse_f(text)
        assert message in str(err.value)
        assert err.value.position == at

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
            "(2^3)^2",  # left-nested: 2^3^2 would mean 2^(3^2)
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


class TestReadsNormal:
    @pytest.mark.parametrize("tree, reads", [
        (Num(2.0), False),
        (Var("rho", 0), False),
        (Var("x", 2), False),
        (Var("nu", 1), True),
        (Neg(Var("nu", 3)), True),
        (Neg(Var("x", 3)), False),
        (Call("exp", Var("nu", 2)), True),
        (Call("exp", Var("x", 2)), False),
        (Bin("*", Var("nu", 1), Num(2.0)), True),
        (Bin("*", Num(2.0), Var("nu", 1)), True),
        (Bin("+", Var("x", 1), Var("rho", 0)), False),
    ])
    def test_expression_trees(self, tree, reads):
        assert reads_normal(tree) is reads

    def test_parsed_prescriptions(self):
        assert not reads_normal(parse_f("12 * rho^(-3) * (1 + 0.2 * x1 / rho)"))
        assert reads_normal(parse_f("12 * rho^(-3) * (1 + 0.2 * sin(2 * nu4))"))

    def test_a_callable_may_read_nu(self):
        assert reads_normal(lambda X, nu: 12.0 * np.linalg.norm(X, axis=-1) ** -3)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def eight_normal_report(base, p, r1, r2):
    """validate_assumptions' checks with the radial ladder at all 8 normals
    for every prescription, laid out by repeat and tile: 66 directions (+-e1
    last) x 8 normals x 17 radii, direction-major."""
    dim, m = p.n + 1, p.gap
    poles = np.array([[1.0], [-1.0]]) * np.eye(dim)[0]

    def worst(margins, points, tol):
        i = np.unravel_index(np.argmin(margins), margins.shape)
        return bool(margins[i] >= -tol), float(margins[i]), points[i]

    dirs = np.vstack([quasi_uniform_directions(400, dim), poles])
    level = p.binomial_ratio * ((p.n - 1) / r2) ** m
    outer = worst(level - np.asarray(base(r2 * dirs, dirs), dtype=float), r2 * dirs,
                  1e-12 * max(1.0, abs(level)))
    level = p.binomial_ratio * ((p.n - 1) / r1) ** m
    inner = worst(np.asarray(base(r1 * dirs, dirs), dtype=float) - level, r1 * dirs,
                  1e-12 * max(1.0, abs(level)))

    xdirs = np.vstack([quasi_uniform_directions(64, dim), poles])
    nus = quasi_uniform_directions(8, dim)
    rhos = np.linspace(r1, r2, 17)
    points = np.tile(rhos, len(xdirs) * 8)[:, None] * np.repeat(xdirs, 8 * 17, axis=0)
    nu = np.tile(np.repeat(nus, 17, axis=0), (len(xdirs), 1))
    g = np.asarray(base(points, nu), dtype=float).reshape(-1, 17) * rhos ** m
    d_rho = np.diff(rhos)
    tol = 1e-12 * np.abs(g[np.isfinite(g)]).max(initial=1.0) / d_rho.min()
    monotone = worst(-np.diff(g, axis=1) / d_rho, points.reshape(-1, 17, dim), tol)
    return outer, inner, monotone


def report_bits(report):
    return [(c.passed, np.float64(c.worst_margin).tobytes(), c.worst_point.tobytes())
            for c in (report.outer_bound, report.inner_bound, report.radial_monotone)]


class TestOneNormalLadder:
    """An f that reads no normal is checked on one normal of the radial
    ladder; its report is the 8-normal ladder's bit for bit."""

    @pytest.mark.parametrize("nkl, g_terms, seed, count", [
        ((3, 2, 0), AXISYM_G, 1, 40),
        ((4, 3, 1), AXISYM_G, 2, 40),
        ((6, 4, 2), AXISYM_G, 3, 40),
        ((2, 2, 0), S2_G, 4, 40),
        ((2, 2, 0), S2_G, 5, 12),
    ], ids=["axisym65-320", "axisym65-431", "axisym65-642", "s2-16x32", "s2-64x128-ladder"])
    def test_existence_family_reports(self, nkl, g_terms, seed, count):
        p = QuotientParams(*nkl)
        for source in prescriptions(p, g_terms, seed, count):
            # each draw as drawn, with its c nu1 term, and without it
            free = re.sub(r" [+-]\d\.\d{4} \* nu1\)$", ")", source)
            assert "nu" not in free
            for text, reads in ((source, True), (free, False)):
                base = parse_f(text, p.n + 1)
                assert reads_normal(base) is reads
                expected = [(passed, np.float64(margin).tobytes(), point.tobytes())
                            for passed, margin, point in eight_normal_report(base, p, 0.5, 2.0)]
                assert report_bits(validate_assumptions(base, p, 0.5, 2.0)) == expected, text


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


class TestNdtri:
    """fspec._ndtri is Cephes' ndtri on [1e-12, 1 - 1e-12], scipy.special's
    quantile bit for bit, so the directions are those scipy's gave."""

    @staticmethod
    def kronecker(count, dim):
        """The clipped Kronecker points quasi_uniform_directions maps."""
        g = 2.0
        for _ in range(32):
            g = (1.0 + g) ** (1.0 / (dim + 1.0))
        alphas = np.array([(1.0 / g) ** (j + 1) for j in range(dim)])
        i = np.arange(1, count + 1)[:, None]
        return np.clip(np.mod(0.5 + i * alphas[None, :], 1.0), 1e-12, 1.0 - 1e-12)

    @pytest.mark.parametrize("dim", [2] + list(range(4, 14)))
    def test_every_direction_input(self, dim):
        for count in (1, 8, 64, 400):
            u = self.kronecker(count, dim)
            z = ndtri(u)
            assert _ndtri(u).tobytes() == z.tobytes()
            expected = z / np.linalg.norm(z, axis=1, keepdims=True)
            assert quasi_uniform_directions(count, dim).tobytes() == expected.tobytes()

    def test_seeded_draws_with_both_tails(self):
        rng = np.random.default_rng(36)
        tail = np.exp(rng.uniform(math.log(1e-12), math.log(0.2), 40_000))
        edges = [1e-12, 1.0 - 1e-12, 0.5, _EXP_M2, 1.0 - _EXP_M2]
        edges += [np.nextafter(e, d) for e in edges for d in (0.0, 1.0)]
        y = np.clip(np.concatenate([rng.uniform(1e-12, 1.0 - 1e-12, 40_000), tail,
                                    1.0 - tail, edges]), 1e-12, 1.0 - 1e-12)
        assert y.size >= 100_000
        assert (y < _EXP_M2).sum() > 30_000 and (y > 1.0 - _EXP_M2).sum() > 30_000
        assert _ndtri(y).tobytes() == ndtri(y).tobytes()

    @pytest.mark.parametrize("dim", [3, 4])
    def test_cached_table_is_read_only(self, dim):
        dirs = quasi_uniform_directions(64, dim)
        assert quasi_uniform_directions(64, dim) is dirs
        with pytest.raises(ValueError):
            dirs[0, 0] = 0.0


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
