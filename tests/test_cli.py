"""Command-line interface: fit, predict, mlsurv, exit codes."""

import csv
import json

import numpy as np
import pytest

import jointfit as jf
from jointfit.cli import main

from conftest import sim_lmm, sim_weibull


@pytest.fixture(scope="module")
def surv_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    d = sim_weibull(500, lam=0.1, gamma=1.4, beta=0.5, seed=30,
                    cens_rate=0.12)
    path = tmp / "surv.csv"
    jf.save_table(d, str(path))
    return str(path)


@pytest.fixture(scope="module")
def lmm_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_lmm")
    d = sim_lmm(50, 4, 1.0, 0.6, sd_b=0.5, sd_e=0.4, seed=31)
    path = tmp / "lmm.csv"
    jf.save_table(d, str(path))
    return str(path)


def run(argv):
    return main(argv)


class TestFit:
    def test_fit_writes_json_and_table(self, surv_csv, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("weibull : Surv(t, d) ~ x\n")
        out = tmp_path / "fit.json"
        code = run(["fit", "--spec", str(spec), "--data", surv_csv,
                    "--out", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert "Log likelihood" in table
        assert "log(gamma)" in table
        doc = json.loads(out.read_text())
        assert doc["converged"]
        assert len(doc["estimates"]) == len(doc["labels"]) == 3

    def test_fit_inline_with_footer(self, lmm_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = run(["fit", "--inline", "levels = id\ngaussian : y ~ x + M1[id]*1",
                    "--data", lmm_csv, "--out", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert "Integration method: Non-adaptive Gauss-Hermite quadrature" in table
        assert "Integration points: 7" in table

    def test_parse_error_exits_2(self, surv_csv, tmp_path, capsys):
        code = run(["fit", "--inline", "weibull : Surv(t, d) ~ nope(x)",
                    "--data", surv_csv])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_ev_link_to_family_without_mean_exits_2(self, surv_csv, tmp_path, capsys):
        code = run(["fit", "--inline",
                    "weibull : Surv(t, d) ~ x\n"
                    "exponential : Surv(t, d) ~ EV[1] | timevar=t",
                    "--data", surv_csv, "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert "mean" in capsys.readouterr().err

    def test_unevaluable_user_model_exits_2(self, tmp_path, capsys):
        from test_userfam import LINK_WITHOUT_TIMEVAR, link_without_timevar_data
        data = tmp_path / "d.csv"
        jf.save_table(link_without_timevar_data(), str(data))
        code = run(["fit", "--inline", LINK_WITHOUT_TIMEVAR, "--data", str(data),
                    "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert "without a time" in capsys.readouterr().err

    def test_user_family_error_exits_2(self, tmp_path, capsys):
        from test_userfam import NEEDS_TIME, needs_time, needs_time_data
        jf.register_user_family("needs_time", needs_time, replace=True)
        data = tmp_path / "d.csv"
        jf.save_table(needs_time_data(), str(data))
        code = run(["fit", "--inline", NEEDS_TIME, "--data", str(data),
                    "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert "submodel has no timevar" in capsys.readouterr().err

    def test_empty_dataset_exits_2(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("t,d,x\n")
        code = run(["fit", "--inline", "weibull : Surv(t, d) ~ x",
                    "--data", str(data), "--out", str(tmp_path / "f.json")])
        assert code == 2

    def test_nonconvergence_exits_3_with_best_point(self, surv_csv, tmp_path,
                                                    capsys):
        out = tmp_path / "fit.json"
        code = run(["fit", "--inline", "weibull : Surv(t, d) ~ x",
                    "--data", surv_csv, "--max-iter", "2",
                    "--out", str(out)])
        assert code == 3
        doc = json.loads(out.read_text())
        assert not doc["converged"]
        assert np.isfinite(doc["loglik"])

    def test_ip_flag_recorded(self, lmm_csv, tmp_path):
        out = tmp_path / "fit.json"
        run(["fit", "--inline", "levels = id\ngaussian : y ~ x + M1[id]*1",
             "--data", lmm_csv, "--ip", "9", "--out", str(out)])
        assert json.loads(out.read_text())["ip"] == [9]


@pytest.fixture(scope="module")
def fitted(surv_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("pred") / "fit.json"
    code = run(["fit", "--inline", "weibull : Surv(t, d) ~ x",
                "--data", surv_csv, "--out", str(out)])
    assert code == 0
    return str(out)


class TestPredict:
    def read_csv(self, path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        return rows[0], np.asarray(rows[1:], dtype=float)

    def test_survival_matches_library(self, fitted, surv_csv, tmp_path):
        out = tmp_path / "pred.csv"
        code = run(["predict", "--fit", fitted, "--data", surv_csv,
                    "--stat", "survival", "--times", "2.0", "--at", "x=0",
                    "--out", str(out)])
        assert code == 0
        header, rows = self.read_csv(out)
        assert header == ["row", "time", "survival"]
        fit = jf.fit_from_json(open(fitted).read())
        data = jf.load_table(surv_csv)
        from jointfit.prediction import (FittedModel, PredictRequest,
                                         predict_stat)
        want = predict_stat(
            FittedModel(fit, data),
            PredictRequest(statistic="survival", times=np.asarray([2.0]),
                           at={"x": 0.0}))
        assert np.allclose(rows[:, 2], want["values"])

    def test_time_grid_replicates_rows(self, fitted, surv_csv, tmp_path):
        out = tmp_path / "grid.csv"
        run(["predict", "--fit", fitted, "--data", surv_csv,
             "--stat", "survival", "--times", "1,2,3", "--at", "x=0",
             "--out", str(out)])
        _, rows = self.read_csv(out)
        n = jf.load_table(surv_csv).n_rows
        assert len(rows) == 3 * n
        assert set(np.unique(rows[:, 1])) == {1.0, 2.0, 3.0}

    def test_zero_contrast_all_zero(self, fitted, surv_csv, tmp_path):
        out = tmp_path / "diff.csv"
        code = run(["predict", "--fit", fitted, "--data", surv_csv,
                    "--stat", "hdifference", "--contrast", "x=0,0",
                    "--times", "2.0", "--out", str(out)])
        assert code == 0
        _, rows = self.read_csv(out)
        assert np.allclose(rows[:, 2], 0.0)

    def test_bad_stat_family_exits_2(self, fitted, surv_csv, tmp_path, capsys):
        code = run(["predict", "--fit", fitted, "--data", surv_csv,
                    "--stat", "mu", "--out", str(tmp_path / "x.csv")])
        assert code == 2


@pytest.mark.parametrize("flags, bad", [
    (["predict", "--stat", "survival", "--times", "2", "--at", "x=abc"], "'abc'"),
    (["predict", "--stat", "survival", "--times", "1,b"], "'b'"),
    (["predict", "--stat", "hdifference", "--times", "2", "--contrast", "x=1"], "'1'"),
    (["predict", "--stat", "cif", "--times", "2", "--causes", "one"], "'one'"),
    (["fit", "--inline", "weibull : Surv(t, d) ~ x", "--ip", "7,x"], "'x'"),
])
def test_malformed_number_exits_2(flags, bad, fitted, surv_csv, tmp_path, capsys):
    argv = flags + ["--data", surv_csv, "--out", str(tmp_path / "out")]
    if flags[0] == "predict":
        argv += ["--fit", fitted]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[-2]} ") and bad in err


class TestMlsurv:
    def test_weibull_matches_fit(self, surv_csv, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        run(["mlsurv", "--formula", "Surv(t, d) ~ x",
             "--distribution", "weibull", "--data", surv_csv,
             "--out", str(out1)])
        run(["fit", "--inline", "weibull : Surv(t, d) ~ x",
             "--data", surv_csv, "--out", str(out2)])
        a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert a["estimates"] == b["estimates"]
        assert a["loglik"] == b["loglik"]

    def test_exponential_recovers_rate(self, tmp_path):
        rng = np.random.default_rng(32)
        t = rng.exponential(1.0 / 0.3, 800)
        x = rng.integers(0, 2, 800).astype(float)
        d = jf.Dataset({"t": t, "d": np.ones(800), "x": x}, 800)
        path = tmp_path / "exp.csv"
        jf.save_table(d, str(path))
        out = tmp_path / "fit.json"
        code = run(["mlsurv", "--formula", "Surv(t, d) ~ x",
                    "--distribution", "exponential", "--data", str(path),
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        est = dict(zip(doc["labels"], doc["estimates"]))
        se = np.sqrt(np.diag(np.asarray(doc["vcov"])))
        i = doc["labels"].index("_cons")
        assert abs(est["_cons"] - np.log(0.3)) < 2 * se[i]

    def test_rp_default_baseline(self, surv_csv, tmp_path, capsys):
        out = tmp_path / "rp.json"
        code = run(["mlsurv", "--formula", "Surv(t, d) ~ x",
                    "--distribution", "rp", "--data", surv_csv,
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert sum(l.startswith("rcs()") for l in doc["labels"]) == 3

    def test_unknown_distribution_usage_error(self, surv_csv):
        with pytest.raises(SystemExit) as err:
            run(["mlsurv", "--formula", "Surv(t, d) ~ x",
                 "--distribution", "coxph", "--data", surv_csv])
        assert err.value.code == 2


class TestReproducibility:
    def test_same_seed_bitwise_identical_json(self, lmm_csv, tmp_path):
        texts = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            code = run(["fit", "--inline",
                        "levels = id\ngaussian : y ~ x + M1[id]*1",
                        "--data", lmm_csv, "--seed", "17",
                        "--out", str(out)])
            assert code == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
