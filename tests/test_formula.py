"""Model-language parsing and spec validation."""

import numpy as np
import pytest

import jointfit as jf
from jointfit.formula import (Element, format_spec, parse_component,
                              parse_element, parse_model, parse_spec_text)

from conftest import make_dataset


class TestParseElement:
    def test_variable(self):
        el = parse_element("sex")
        assert el.kind == "variable" and el.var == "sex"

    def test_dotted_variable(self):
        el = parse_element("log.grad")
        assert el.var == "log.grad"

    def test_random_effect(self):
        el = parse_element("M1[id]")
        assert el.kind == "re" and el.var == "M1" and el.level == "id"

    def test_link_kinds(self):
        for kind in ("EV", "dEV", "d2EV", "iEV", "XB", "dXB", "d2XB", "iXB"):
            el = parse_element(f"{kind}[log.grad]")
            assert el.kind == "link"
            assert el.link_kind == kind
            assert el.target == "log.grad"

    def test_link_numeric_target(self):
        el = parse_element("EV[2]")
        assert el.target == "2"

    def test_rcs_df(self):
        el = parse_element("rcs(time, df = 3, orthog = TRUE)")
        assert el.kind == "rcs" and el.df == 3 and el.orthog
        assert not el.log and not el.event

    def test_rcs_log_event(self):
        el = parse_element("rcs(stime, df = 3, log = TRUE, event = TRUE)")
        assert el.log and el.event

    def test_rcs_knots(self):
        el = parse_element("rcs(x, knots = c(1, 2.5, 7))")
        assert el.knots == (1.0, 2.5, 7.0)
        assert el.df is None

    def test_rcs_df_and_knots_conflict(self):
        with pytest.raises(jf.ParseError, match="exactly one"):
            parse_element("rcs(x, df = 3, knots = c(1, 2))")

    def test_fp_powers(self):
        el = parse_element("fp(stime, powers = c(0))")
        assert el.kind == "fp" and el.powers == (0.0,)
        el = parse_element("fp(stime, powers = c(1, 1))")
        assert el.powers == (1.0, 1.0)

    def test_fp_three_powers_rejected(self):
        with pytest.raises(jf.ParseError, match="length 1 or 2"):
            parse_element("fp(t, powers = c(1, 2, 3))")

    def test_unknown_function(self):
        with pytest.raises(jf.ParseError, match="unknown function"):
            parse_element("spline(x, 3)")


class TestParseComponent:
    def test_interaction_product(self):
        comp = parse_component("type:fp(stime, powers = c(0))")
        assert [e.kind for e in comp.elements] == ["variable", "fp"]

    def test_constraint_stripped(self):
        comp = parse_component("M1[id] * 1")
        assert comp.constrained
        assert comp.elements[0].kind == "re"

    def test_two_res_same_level_rejected(self):
        with pytest.raises(jf.ParseError, match="same level"):
            parse_component("M1[id]:M2[id]")

    def test_empty_element_rejected(self):
        with pytest.raises(jf.ParseError):
            parse_component("a::b")


class TestParseModel:
    def test_m1_shape(self):
        sub = parse_model("log.grad ~ sex + age + time", "gaussian")
        assert len(sub.components) == 3
        assert sub.intercept
        assert sub.response == "log.grad"

    def test_weibull_surv_response(self):
        sub = parse_model("Surv(stime, died) ~ age + type", "weibull")
        assert sub.response == ("stime", "died")
        assert sub.is_survival

    def test_survival_needs_surv(self):
        with pytest.raises(jf.ParseError, match="Surv"):
            parse_model("stime ~ age", "weibull")

    def test_constrained_re_components(self):
        sub = parse_model(
            "log.grad ~ sex + M1[id]*1 + time:M2[id]*1", "gaussian")
        assert [c.constrained for c in sub.components] == [False, True, True]

    def test_bhazard_exposure_ap_specials(self):
        sub = parse_model("Surv(t, d) ~ x + bhazard(rate)", "exponential")
        assert sub.bhazard_var == "rate"
        assert len(sub.components) == 1
        sub = parse_model("y ~ x + ap(2)", "user", userf="f")
        assert sub.user_ap == 2
        sub = parse_model("y ~ x + exposure(pyrs)", "poisson")
        exp_comp = sub.components[1]
        assert exp_comp.constrained
        assert exp_comp.elements[0].kind == "exposure_log"

    def test_user_needs_userf(self):
        with pytest.raises(jf.ParseError, match="userf"):
            parse_model("y ~ x", "user")

    def test_unknown_family(self):
        with pytest.raises(jf.ParseError, match="family"):
            parse_model("y ~ x", "tweedie")

    @pytest.mark.parametrize("family", ["gaussian", "weibull", "null"])
    def test_ap_only_for_user_families(self, family):
        lhs = "Surv(t, d)" if family == "weibull" else "y"
        with pytest.raises(jf.ParseError, match="ap"):
            parse_model(f"{lhs} ~ x + ap(2)", family)

    @pytest.mark.parametrize("family", ["gaussian", "weibull", "null"])
    def test_userf_only_for_user_families(self, family):
        lhs = "Surv(t, d)" if family == "weibull" else "y"
        with pytest.raises(jf.ParseError, match="userf"):
            parse_model(f"{lhs} ~ x", family, userf="logl_gaussian")
        with pytest.raises(jf.ParseError, match="userf"):
            jf.parse_spec_text(f"{family} : {lhs} ~ x | userf=logl_gaussian")


PAPER_STYLE_FORMULAS = [
    ("gaussian", "log.grad ~ sex + age + time"),
    ("gaussian", "log.grad ~ sex + age + rcs(time, df = 3, orthog = TRUE)"),
    ("gaussian", "log.grad ~ sex + age + time + M1[id] * 1 + time:M2[id] * 1"),
    ("weibull", "Surv(stime, died) ~ age + type"),
    ("rp", "Surv(stime, died) ~ age + type + rcs(stime, df = 3, log = TRUE, event = TRUE)"),
    ("weibull", "Surv(stime, died) ~ age + type + type:fp(stime, powers = c(0))"),
    ("weibull", "Surv(stime, died) ~ age + fp(stime, powers = c(1, 1))"),
    ("weibull", "Surv(stime, died) ~ type + M1[id]"),
    ("weibull", "Surv(stime, died) ~ type + EV[log.grad]"),
    ("weibull", "Surv(stime, died) ~ type + dEV[log.grad]"),
    ("weibull", "Surv(stime, died) ~ type + EV[log.grad]:fp(stime, powers = c(0))"),
]


class TestRoundTrip:
    @pytest.mark.parametrize("family,text", PAPER_STYLE_FORMULAS)
    def test_formula_round_trip(self, family, text):
        sub = parse_model(text, family)
        sub2 = parse_model(sub.formula(), family)
        assert sub.formula() == sub2.formula()

    def test_spec_text_round_trip(self):
        text = (
            "levels = id\n"
            "covariance = unstructured\n"
            "intmethod = ghermite\n"
            "ip = 7\n"
            "gaussian : y ~ x + M1[id] * 1 | timevar=time\n"
            "weibull : Surv(st, sd) ~ EV[y] | timevar=st\n"
        )
        spec = parse_spec_text(text)
        spec2 = parse_spec_text(format_spec(spec))
        assert format_spec(spec) == format_spec(spec2)
        assert spec2.covariance == "unstructured"
        assert spec2.submodels[0].timevar == "time"


class TestValidateSpec:
    def data(self):
        return make_dataset(
            {"id": [1, 1, 2, 2], "y": [1.0, 2.0, 3.0, 4.0],
             "x": [0, 1, 0, 1], "st": [1, 1, 2, 2], "sd": [1, 0, 1, 1],
             "time": [0, 1, 0, 1]},
            levels=("id",),
        )

    def test_defaults_applied(self):
        spec = parse_spec_text("levels = id\ngaussian : y ~ x + M1[id]*1")
        jf.validate_spec(spec, self.data())
        assert spec.intmethod == ("ghermite",)
        assert spec.ip == (7,)
        assert spec.re_layout == {"id": ["M1"]}

    def test_qmc_default_points(self):
        spec = parse_spec_text(
            "levels = id\nintmethod = halton\ngaussian : y ~ M1[id]*1")
        jf.validate_spec(spec, self.data())
        assert spec.ip == (100,)

    def test_unresolved_column(self):
        spec = parse_spec_text("gaussian : y ~ nope")
        with pytest.raises(jf.DataError, match="nope"):
            jf.validate_spec(spec, self.data())

    def test_undeclared_level(self):
        spec = parse_spec_text("gaussian : y ~ M1[id]*1")
        with pytest.raises(jf.SpecError, match="levels"):
            jf.validate_spec(spec, self.data())

    def test_re_two_levels_rejected(self):
        d = make_dataset(
            {"p": [1, 1, 2, 2], "id": [1, 1, 2, 2],
             "y": [1.0, 2.0, 3.0, 4.0]},
            levels=("p", "id"),
        )
        spec = parse_spec_text(
            "levels = p,id\ngaussian : y ~ M1[p]*1 + M1[id]*1")
        with pytest.raises(jf.SpecError, match="two levels"):
            jf.validate_spec(spec, d)

    def test_dangling_link_target(self):
        spec = parse_spec_text("weibull : Surv(st, sd) ~ EV[foo] | timevar=st")
        with pytest.raises(jf.SpecError, match="foo"):
            jf.validate_spec(spec, self.data())

    def test_link_cycle_rejected(self):
        spec = parse_spec_text(
            "gaussian : y ~ XB[2] | timevar=time\n"
            "gaussian : x ~ XB[1] | timevar=time\n")
        with pytest.raises(jf.SpecError, match="cyclic"):
            jf.validate_spec(spec, self.data())

    def test_link_resolves_by_response_name(self):
        spec = parse_spec_text(
            "levels = id\n"
            "gaussian : y ~ x + M1[id]*1 | timevar=time\n"
            "exponential : Surv(st, sd) ~ EV[y] | timevar=st\n")
        jf.validate_spec(spec, self.data())
        link = spec.submodels[1].components[0].elements[0]
        assert link.target_index == 0

    @pytest.mark.parametrize("target", [
        "weibull : Surv(st, sd) ~ x | timevar=st",
        "user : y ~ x + ap(1) | userf=logl_gaussian timevar=time",
    ], ids=["weibull", "user"])
    @pytest.mark.parametrize("link", ["EV", "dEV", "d2EV", "iEV"])
    def test_ev_link_needs_target_with_mean(self, target, link):
        name = "st" if target.startswith("weibull") else "y"
        spec = parse_spec_text(
            f"{target}\nexponential : Surv(time, sd) ~ {link}[{name}] | timevar=time\n")
        with pytest.raises(jf.SpecError, match="mean"):
            jf.validate_spec(spec, self.data())

    def test_xb_link_to_survival_target_allowed(self):
        spec = parse_spec_text(
            "weibull : Surv(st, sd) ~ x | timevar=st\n"
            "exponential : Surv(time, sd) ~ XB[st] | timevar=time\n")
        jf.validate_spec(spec, self.data())

    @pytest.mark.parametrize("family", ["gaussian", "null", "rp"])
    def test_link_without_timevar_rejected(self, family):
        lhs = "Surv(time, sd)" if family == "rp" else "x"
        spec = parse_spec_text(
            f"gaussian : y ~ time | timevar=time\n{family} : {lhs} ~ XB[y]\n")
        with pytest.raises(jf.SpecError, match="timevar"):
            jf.validate_spec(spec, self.data())

    def test_intmethod_broadcast(self):
        d = make_dataset(
            {"p": [1, 1, 2, 2], "id": [1, 2, 3, 4],
             "y": [1.0, 2.0, 3.0, 4.0]},
            levels=("p", "id"),
        )
        spec = parse_spec_text(
            "levels = p,id\nintmethod = ghermite\nip = 5\n"
            "gaussian : y ~ M1[p]*1 + M2[id]*1")
        jf.validate_spec(spec, d)
        assert spec.intmethod == ("ghermite", "ghermite")
        assert spec.ip == (5, 5)

    def test_mixed_intmethod_per_level(self):
        d = make_dataset(
            {"p": [1, 1, 2, 2], "id": [1, 2, 3, 4],
             "y": [1.0, 2.0, 3.0, 4.0]},
            levels=("p", "id"),
        )
        spec = parse_spec_text(
            "levels = p,id\nintmethod = ghermite,halton\nip = 3,16\n"
            "gaussian : y ~ M1[p]*1 + M2[id]*1")
        jf.validate_spec(spec, d)
        assert spec.intmethod == ("ghermite", "halton")
        assert spec.ip == (3, 16)

    def test_no_submodels_rejected(self):
        with pytest.raises(jf.ParseError, match="no submodels"):
            parse_spec_text("covariance = identity\n")
