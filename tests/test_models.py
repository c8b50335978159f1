import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nof1twin.arco import SimConfig, simulate_dataset
from nof1twin.core import (
    INTERCEPT,
    LAG_MODES,
    LAG_NONE,
    LAG_QUARTILE,
    FeatureSpec,
    SeedSpec,
    TimeSeriesDataset,
    assemble_features,
)
from nof1twin import cli, models
from nof1twin import forest as forest_module
from nof1twin.errors import ConfigError, EstimatorError
from nof1twin.forest import build_forest, oob_predictions
from nof1twin.harness import MethodOptions, default_study_params
from nof1twin.models import ForestConfig, _design, fit_forest, fit_glm, glm_from_coefficients
from nof1twin.motr import MotrConfig, run_motr
from nof1twin.pstn import PstnConfig, run_pstn

PSTN_SPEC = MethodOptions().propensity_spec
W_SPEC = FeatureSpec(include_current_exposure=False, outcome_lag_mode=LAG_NONE, exog_names=("w",))


def fmatrix(values, columns, labels, include_x=True):
    """A dataset whose rows, laid out by the returned LAG_NONE spec, are `values`, and
    whose outcomes (with the current exposure "x", the first column) or exposures
    (without it) are `labels`: (dataset, spec), the arguments of every fitter."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    exog = {c: values[:, k] for k, c in enumerate(columns) if c != "x"}
    spec = FeatureSpec(
        include_current_exposure=include_x, outcome_lag_mode=LAG_NONE, exog_names=tuple(exog)
    )
    if include_x:
        return TimeSeriesDataset(labels, values[:, 0], exog), spec
    return TimeSeriesDataset(np.zeros(len(values)), labels, exog), spec


@pytest.fixture(scope="module")
def study_h1():
    """Dataset h = 1 of the study preset at seed 1, as `replicate` simulates it."""
    arco, prop = default_study_params()
    return simulate_dataset(arco, prop, SimConfig(m_analysis=220, seed=SeedSpec(1).child(1, 0)))


class TestLinear:
    def test_constant_fit(self):
        ds, spec = fmatrix(np.tile([0.0, 1.0], 3)[:, None], ("x",), np.full(6, 5.0))
        model = fit_glm(ds, spec)
        assert model.coefficients["intercept"] == pytest.approx(5.0)
        assert model.coefficients["x"] == pytest.approx(0.0, abs=1e-12)
        assert model.resid_sd == pytest.approx(0.0, abs=1e-12)

    def test_two_point_interpolation_exact(self):
        values = [[0.0], [1.0], [0.0], [1.0]]
        y = np.array([1.0, 3.0, 1.0, 3.0])
        model = fit_glm(*fmatrix(values, ("x",), y))
        assert model.coefficients["intercept"] == pytest.approx(1.0, abs=1e-12)
        assert model.coefficients["x"] == pytest.approx(2.0, abs=1e-12)
        assert model.resid_sd == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(model.predict(values), y)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(40, 2))
        rows = np.column_stack([rng.integers(0, 2, 40), values[:, 0]])
        y = rng.normal(size=40)
        model = fit_glm(*fmatrix(rows, ("x", "w"), y))
        resid = y - model.predict(rows)
        design = np.column_stack([np.ones(40), rows])
        assert np.max(np.abs(design.T @ resid)) < 1e-8 * max(1.0, np.abs(y).sum())

    def test_rank_deficiency_names_columns(self):
        w = np.arange(8.0)
        ds, spec = fmatrix(np.column_stack([np.tile([0, 1], 4), w, w]), ("x", "w", "w_copy"),
                           np.arange(8.0))
        with pytest.raises(EstimatorError, match="w"):
            fit_glm(ds, spec)

    @pytest.mark.parametrize(("scale", "shift"), [(3e4, 0.0), (1.0, 1e4)])
    def test_rank_check_ignores_the_outcomes_units_and_level(self, study_h1, scale, shift):
        # the lag column of y * 3e4 or y + 1e4 dwarfs the intercept column, which is
        # still far from collinear with it
        base = fit_glm(study_h1, FeatureSpec(True)).coefficients
        model = fit_glm(TimeSeriesDataset(study_h1.y * scale + shift, study_h1.x), FeatureSpec(True))
        lag = base["y_lag1"]
        assert model.coefficients == pytest.approx({
            "intercept": base["intercept"] * scale + shift * (1 - lag),
            "x": base["x"] * scale,
            "y_lag1": lag,
        }, rel=1e-9)

    def test_rank_check_holds_for_columns_past_the_square_range(self):
        # a column's squares overflow past about 1e154, which made every length, and so
        # every tolerance, infinite: a full-rank design was refused as collinear
        rng = np.random.default_rng(4)
        rows = np.column_stack([rng.integers(0, 2, 40), rng.normal(size=(40, 2)) * 1e200])
        ds, spec = fmatrix(rows, ("x", "w", "v"), rng.normal(size=40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            design, names, _ = _design(assemble_features(ds, spec), spec)
        assert names == ["intercept", "x", "w", "v"] and design.shape == (40, 4)

    @pytest.mark.parametrize("gap", [0.0, 1e-9])
    def test_near_copy_of_a_column_refused(self, gap):
        rng = np.random.default_rng(8)
        w = rng.normal(size=40)
        rows = np.column_stack([rng.integers(0, 2, 40), w, w + gap * rng.normal(size=40)])
        with pytest.raises(EstimatorError, match=r"collinear column\(s\): \['w(_near)?'\]$"):
            fit_glm(*fmatrix(rows, ("x", "w", "w_near"), rng.normal(size=40)))

    def test_rank_deficiency_names_every_collinear_column(self):
        rng = np.random.default_rng(9)
        w, v = rng.normal(size=(2, 40))
        rows = np.column_stack([rng.integers(0, 2, 40), w, 2 * w, v, v * 1e4])
        with pytest.raises(EstimatorError) as err:
            fit_glm(*fmatrix(rows, ("x", "w", "w2", "v", "v2"), rng.normal(size=40)))
        named = set(re.findall(r"'(\w+)'", str(err.value)))
        assert len(named) == 2 and len(named & {"w", "w2"}) == len(named & {"v", "v2"}) == 1

    def test_requires_current_exposure(self):
        # a layout without the current exposure is a propensity layout: fit_glm fits the
        # exposures, so a single exposure class is what fails
        ds = TimeSeriesDataset(np.arange(6.0), np.zeros(6), {"w": np.ones(6)})
        with pytest.raises(EstimatorError, match="both exposure classes"):
            fit_glm(ds, W_SPEC)
        ds = TimeSeriesDataset(np.arange(6.0), [0, 1, 1, 0, 1, 0], {"w": np.arange(6.0)})
        model = fit_glm(ds, W_SPEC)
        assert (model.kind, model.is_outcome, model.resid_sd) == ("logistic", False, None)
        assert set(model.coefficients) == {"intercept", "w"}

    def test_quartile_block_uses_reference_drop(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=30).cumsum() + 10
        x = rng.integers(0, 2, 30)
        ds = TimeSeriesDataset(y=y, x=x)
        model = fit_glm(ds, FeatureSpec(True, LAG_QUARTILE))
        assert "y_lag1_q1" not in model.coefficients
        assert {"y_lag1_q2", "y_lag1_q3", "y_lag1_q4"} <= set(model.coefficients)

    def test_from_coefficients(self):
        model = glm_from_coefficients(FeatureSpec(True), {"intercept": 2.0, "x": 1.1, "y_lag1": 0.8}, 0.0)
        pred = model.predict(np.array([[1.0, 10.0], [0.0, 10.0]]))
        assert pred == pytest.approx([2.0 + 1.1 + 8.0, 2.0 + 8.0])

    def test_from_coefficients_rejects_names_outside_the_layout(self):
        coefs = {"intercept": 2.0, "x": 1.1, "y_lag": 0.8, "w": 0.1}
        with pytest.raises(ConfigError, match=r"\['y_lag', 'w'\] name no term of "
                                              r"\['intercept', 'x', 'y_lag1'\]"):
            glm_from_coefficients(FeatureSpec(True), coefs, 0.5)
        coefs = {"intercept": np.float64(2.0), "x": 1}
        model = glm_from_coefficients(FeatureSpec(True), coefs, 0.5)
        assert model.coefficients == {"intercept": 2.0, "x": 1.0, "y_lag1": 0.0}
        assert {type(b) for b in model.coefficients.values()} == {float}

    def test_from_coefficients_role_follows_the_layout(self):
        # an outcome twin without the current exposure has no arm to contrast
        with pytest.raises(ConfigError, match="resid_sd"):
            glm_from_coefficients(FeatureSpec(False), {"intercept": 2.0, "y_lag1": 0.8}, resid_sd=0.5)
        with pytest.raises(ConfigError, match="resid_sd"):
            glm_from_coefficients(FeatureSpec(True), {"intercept": 2.0, "x": 1.1})

    @pytest.mark.parametrize("outcome, coefs, resid_sd, match", [
        (True, {"intercept": math.nan, "x": 1.1}, 0.5, "coefficient 'intercept' must be finite"),
        (True, {"intercept": 2.0, "y_lag1": math.inf}, 0.5, "coefficient 'y_lag1' must be finite"),
        (False, {"intercept": 0.0, "y_lag1": -math.inf}, None, "coefficient 'y_lag1' must be finite"),
        (True, {"intercept": 2.0, "x": 1.1}, math.inf, "resid_sd must be finite"),
        (True, {"intercept": 2.0, "x": 1.1}, math.nan, "resid_sd must be finite"),
        (True, {"intercept": 2.0, "x": 1.1}, -0.5, "resid_sd must be >= 0"),
    ])
    def test_from_coefficients_rejects_non_finite_or_negative_input(self, outcome, coefs, resid_sd,
                                                                    match):
        # such a twin used to roll out a NaN effect, or flip its noise, without an error
        with pytest.raises(ConfigError, match=match):
            glm_from_coefficients(FeatureSpec(outcome), coefs, resid_sd)

    def test_predicts_from_the_coefficients_it_reports(self):
        spec = FeatureSpec(True)
        twin = glm_from_coefficients(spec, {"intercept": 2.0, "x": 1.1, "y_lag1": 0.8}, 0.5)
        coefs = {"intercept": 0.0, "x": 3.0, "y_lag1": 0.5}
        moved = replace(twin, coefficients=coefs)
        assert moved.predict([[1.0, 10.0]]).tolist() == [3.0 + 0.5 * 10.0]
        ds = simulate_dataset(*default_study_params(), SimConfig(m_analysis=60, seed=1))
        cfg = MotrConfig(seed=1)
        assert run_motr(ds, moved, cfg) == run_motr(ds, glm_from_coefficients(spec, coefs, 0.5), cfg)
        # a fitted twin too, on either layout
        ols = fit_glm(ds, spec)
        assert replace(ols, coefficients=coefs).predict([[1.0, 10.0]]).tolist() == [8.0]
        logistic = fit_glm(ds, FeatureSpec(False))
        flat = replace(logistic, coefficients={"intercept": 0.0, "y_lag1": 0.0})
        assert flat.predict(assemble_features(ds, flat.spec)).tolist() == [0.5] * (ds.m - 1)


def reference_design(ds, spec):
    """The intercept and each column of `spec` but the quartile reference slot, on the
    rows of `ds`, and their names."""
    keep = [j for j, c in enumerate(spec.columns) if c != "y_lag1_q1"]
    rows = assemble_features(ds, spec)[:, keep]
    return np.column_stack([np.ones(len(rows)), rows]), [INTERCEPT, *(spec.columns[j] for j in keep)]


@pytest.mark.parametrize("mode", LAG_MODES)
@pytest.mark.parametrize("lag_x", [False, True], ids=["", "lag-x"])
def test_every_fitter_trains_on_the_rows_of_its_layout(mode, lag_x):
    rng = np.random.default_rng(8)
    ds = TimeSeriesDataset(y=rng.normal(size=40), x=rng.permutation(np.arange(40) % 2))
    spec, pspec = FeatureSpec(True, mode, lag_x), FeatureSpec(False, mode, lag_x)
    n = ds.m - spec.needs_lag
    design, names = reference_design(ds, spec)
    beta = np.linalg.lstsq(design, ds.y[spec.needs_lag:], rcond=None)[0]
    ols = fit_glm(ds, spec)
    assert len(design) == n
    assert [ols.coefficients[c] for c in names] == pytest.approx(beta, abs=1e-10)
    design, _ = reference_design(ds, pspec)
    prob = fit_glm(ds, pspec).predict(assemble_features(ds, pspec))
    assert len(design) == len(prob) == n
    assert np.max(np.abs(design.T @ (ds.x[spec.needs_lag:] - prob))) < 1e-8  # the score equations
    seen = []
    sampler = lambda k, rng_, n_rows: seen.append(n_rows) or rng_.integers(0, n_rows, n_rows)
    fit_forest(ds, spec, ForestConfig(n_trees=3), index_sampler=sampler)
    forest = fit_forest(ds, pspec, ForestConfig(n_trees=3), index_sampler=sampler)
    assert seen == [n] * 6
    assert len(forest.insample_prob) == n


class TestLogistic:
    def test_intercept_only_half(self):
        model = fit_glm(*fmatrix(np.empty((40, 0)), (), np.tile([0, 1], 20), False))
        assert model.coefficients["intercept"] == pytest.approx(0.0, abs=1e-9)

    def test_intercept_only_three_quarters(self):
        x = np.array([1] * 30 + [0] * 10)
        model = fit_glm(*fmatrix(np.empty((40, 0)), (), x, include_x=False))
        assert model.coefficients["intercept"] == pytest.approx(math.log(3.0), abs=1e-9)

    def test_two_by_two_closed_form(self):
        w = np.array([0.0] * 40 + [1.0] * 40)
        x = np.array([1] * 10 + [0] * 30 + [1] * 30 + [0] * 10)
        model = fit_glm(*fmatrix(w[:, None], ("w",), x, include_x=False))
        assert model.coefficients["intercept"] == pytest.approx(math.log(1 / 3), abs=1e-8)
        assert model.coefficients["w"] == pytest.approx(math.log(9.0), abs=1e-8)
        assert not model.separation_warning

    def test_score_equations_at_convergence(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=120)
        prob = 1 / (1 + np.exp(-(0.3 + 0.8 * w)))
        x = (rng.random(120) < prob).astype(int)
        model = fit_glm(*fmatrix(w[:, None], ("w",), x, include_x=False))
        p_hat = model.predict(w[:, None])
        design = np.column_stack([np.ones(120), w])
        assert np.max(np.abs(design.T @ (x - p_hat))) < 1e-6

    def test_separation_flagged_not_fatal(self):
        w = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0, -0.5, 0.5])
        x = (w > 0).astype(int)
        model = fit_glm(*fmatrix(w[:, None], ("w",), x, include_x=False))
        assert model.separation_warning
        probs = model.predict(w[:, None])
        assert np.all((probs >= 0) & (probs <= 1))

    @pytest.mark.parametrize(("scale", "shift"), [(0.2, 36.0), (0.001, 0.0)])
    def test_separation_judged_on_the_logit_scale(self, study_h1, scale, shift):
        # on a body-temperature scale or in thousandths the lag coefficient grows past the
        # separation limit, while every fitted logit stays where it was
        base = fit_glm(study_h1, FeatureSpec(False))
        model = fit_glm(TimeSeriesDataset(study_h1.y * scale + shift, study_h1.x), FeatureSpec(False))
        assert not base.separation_warning and not model.separation_warning
        lag = study_h1.y[:-1, None]
        assert model.predict(lag * scale + shift) == pytest.approx(base.predict(lag), rel=1e-12)

    def test_single_class_rejected(self):
        ds, spec = fmatrix(np.empty((10, 0)), (), np.ones(10), include_x=False)
        with pytest.raises(EstimatorError, match="both exposure classes"):
            fit_glm(ds, spec)

    def test_from_coefficients(self):
        model = glm_from_coefficients(W_SPEC, {"intercept": 0.0, "w": 1.0})
        assert model.predict(np.array([[0.0]]))[0] == pytest.approx(0.5)

    def test_far_negative_linear_predictor_gives_zero_without_warning(self):
        model = glm_from_coefficients(W_SPEC, {"intercept": 0.0, "w": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob = model.predict(np.array([[-800.0], [-709.9], [800.0]]))
        assert prob.tolist() == [0.0, pytest.approx(0.0, abs=1e-300), 1.0]


class TestForestOutcome:
    def test_constant_outcome(self):
        rng = np.random.default_rng(0)
        ds, spec = fmatrix(np.column_stack([rng.integers(0, 2, 12), rng.normal(size=12)]), ("x", "w"),
                           np.full(12, 3.0))
        model = fit_forest(ds, spec, ForestConfig(n_trees=20, seed=1))
        assert model.resid_sd == pytest.approx(0.0, abs=1e-12)
        probe = np.array([[0.0, -5.0], [1.0, 5.0]])
        assert model.predict(probe).tolist() == [3.0, 3.0]

    def test_single_tree_step_function_brute_force(self):
        rng = np.random.default_rng(7)
        feat = np.sort(rng.random(20))
        y = (feat > 0.5).astype(float)
        rows = np.column_stack([np.tile([0, 1], 10), feat])
        identity = lambda k, rng_, n: np.arange(n)
        model = fit_forest(
            *fmatrix(rows, ("x", "w"), y), ForestConfig(n_trees=1, mtry=2, min_node_size=5, seed=3),
            index_sampler=identity,
        )
        left_max = feat[y == 0].max()
        right_min = feat[y == 1].min()
        # brute force: the best variance-reducing threshold separates the groups
        assert np.allclose(model.predict(rows), y)
        threshold_probe = np.array([[0.0, (left_max + right_min) / 2]])
        assert model.predict(threshold_probe)[0] in (0.0, 1.0)
        below = model.predict(np.array([[0.0, left_max - 1e-9]]))[0]
        above = model.predict(np.array([[0.0, right_min + 1e-9]]))[0]
        assert (below, above) == (0.0, 1.0)

    def test_needs_five_rows(self):
        ds, spec = fmatrix(np.ones((4, 1)), ("x",), np.arange(4.0))
        with pytest.raises(EstimatorError, match="5 rows"):
            fit_forest(ds, spec, ForestConfig(n_trees=2))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        rows = np.column_stack([rng.integers(0, 2, 30), rng.normal(size=30)])
        ds, spec = fmatrix(rows, ("x", "w"), rng.normal(size=30))
        a = fit_forest(ds, spec, ForestConfig(n_trees=15, seed=SeedSpec(9)))
        b = fit_forest(ds, spec, ForestConfig(n_trees=15, seed=SeedSpec(9)))
        probe = rng.normal(size=(8, 2))
        assert np.array_equal(a.predict(probe), b.predict(probe))
        assert a.resid_sd == b.resid_sd


class TestForestPropensity:
    def test_single_class_rejected(self):
        ds, spec = fmatrix(np.random.default_rng(1).normal(size=(10, 1)), ("w",), np.ones(10),
                           include_x=False)
        with pytest.raises(EstimatorError, match="both exposure classes"):
            fit_forest(ds, spec, ForestConfig(n_trees=2))

    def test_separable_training_rows(self):
        # wide class margin: every bootstrap's split lands inside the gap
        w = np.concatenate([np.linspace(0.0, 0.1, 12), np.linspace(0.9, 1.0, 12)])
        x = (w > 0.5).astype(int)
        model = fit_forest(*fmatrix(w[:, None], ("w",), x, include_x=False),
                                      ForestConfig(n_trees=30, seed=4))
        probs = model.predict(w[:, None])
        assert np.array_equal(probs, x.astype(float))

    def test_probabilities_bounded_under_fuzz(self):
        rng = np.random.default_rng(21)
        w = rng.normal(size=60)
        x = (rng.random(60) < 1 / (1 + np.exp(-w))).astype(int)
        model = fit_forest(*fmatrix(w[:, None], ("w",), x, include_x=False),
                                      ForestConfig(n_trees=25, seed=5))
        probe = rng.normal(scale=10, size=(10_000, 1))
        probs = model.predict(probe)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_insample_uses_out_of_bag(self):
        # with out-of-bag averaging the stored in-sample propensity of a row
        # is not forced toward its own label
        rng = np.random.default_rng(6)
        w = rng.normal(size=80)
        x = (rng.random(80) < 0.5).astype(int)  # label independent of feature
        model = fit_forest(*fmatrix(w[:, None], ("w",), x, include_x=False),
                                      ForestConfig(n_trees=60, seed=6))
        insample = model.insample_prob
        leak = abs(insample[x == 1].mean() - insample[x == 0].mean())
        assert leak < 0.25
        alltrees = model.predict(w[:, None])
        leak_alltrees = abs(alltrees[x == 1].mean() - alltrees[x == 0].mean())
        assert leak_alltrees > leak


class TestLazyPropensityForest:
    """A default propensity forest reads its out-of-bag propensities from its label runs
    and grows its trees, from the draws of the fit, only when `forest` is read."""

    @staticmethod
    def _count_growth(monkeypatch):
        calls = []
        for owner, name in ((models, "build_forest"), (models, "grow_forest"), (forest_module, "_grow")):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, _fn=fn, _n=name, **k: calls.append(_n) or _fn(*a, **k))
        return calls

    @staticmethod
    def _restless_sampler():
        """A sampler that gives other rows on every call, and the rows it gave."""
        given, calls = [], iter(range(10**6))

        def sampler(k, rng, n):
            given.append(np.random.default_rng(next(calls)).integers(0, n, size=n))
            return given[-1]
        return sampler, given

    def test_dump_model_grows_no_tree(self, tmp_path, monkeypatch):
        data, model = tmp_path / "sim.csv", tmp_path / "model.json"
        assert cli.main(["simulate", "-o", str(data)]) == 0
        calls = self._count_growth(monkeypatch)
        assert cli.main(["analyze", "--data", str(data), "--method", "pstn-rf", "--n-trees", "20",
                         "--dump-model", str(model), "-o", str(tmp_path / "out.json")]) == 0
        assert calls == []
        assert json.loads(model.read_text())["kind"] == "forest"

    @pytest.mark.parametrize("restless", [False, True], ids=["default", "restless-sampler"])
    def test_forest_is_grown_from_the_draws_of_the_fit(self, study_h1, monkeypatch, restless):
        spec, cfg = PSTN_SPEC, ForestConfig(n_trees=30, seed=SeedSpec(5))
        sampler, given = self._restless_sampler() if restless else (None, None)
        calls = self._count_growth(monkeypatch)
        model = fit_forest(study_h1, spec, cfg, index_sampler=sampler)
        assert calls == []
        forest = model.forest
        assert calls and model.forest is forest
        values, labels = assemble_features(study_h1, spec), study_h1.x[spec.needs_lag:].astype(float)
        replay = (lambda k, rng, n: given[k]) if restless else None
        ref, inbag = build_forest(values, labels, 30, *cfg.resolve(spec), cfg.seed, replay)
        for a in ("feature", "threshold", "left", "value", "roots"):
            assert getattr(forest, a).tobytes() == getattr(ref, a).tobytes()
        assert model.insample_prob.tobytes() == oob_predictions(ref, inbag, values).tobytes()

    @pytest.mark.parametrize("restless", [False, True], ids=["default", "restless-sampler"])
    def test_new_rows_as_an_eagerly_grown_twin(self, study_h1, monkeypatch, restless):
        other = simulate_dataset(*default_study_params(), SimConfig(m_analysis=100, seed=SeedSpec(2)))
        cfg = ForestConfig(n_trees=30, seed=SeedSpec(5))
        sampler = lambda: self._restless_sampler()[0] if restless else None
        calls = self._count_growth(monkeypatch)
        lazy = fit_forest(study_h1, PSTN_SPEC, cfg, index_sampler=sampler())
        assert calls == []
        monkeypatch.setattr(models, "runs_oob", lambda *args: None)  # grown at once
        eager = fit_forest(study_h1, PSTN_SPEC, cfg, index_sampler=sampler())
        assert calls and not callable(eager.trees)
        rows = assemble_features(other, PSTN_SPEC)
        assert lazy.predict(rows).tobytes() == eager.predict(rows).tobytes()
        assert run_pstn(other, lazy, PstnConfig()) == run_pstn(other, eager, PstnConfig())
        assert lazy.insample_prob.tobytes() == eager.insample_prob.tobytes()


class TestForestInvariance:
    def test_row_order_invariance_under_matched_bootstraps(self):
        rng = np.random.default_rng(12)
        n = 40
        values = np.column_stack([rng.integers(0, 2, n), rng.normal(size=n)])
        y = rng.normal(size=n)

        boots = [rng.integers(0, n, n) for _ in range(10)]
        sampler_a = lambda k, r, n_: boots[k]

        perm = rng.permutation(n)
        inv = np.argsort(perm)
        sampler_b = lambda k, r, n_: inv[boots[k]]  # same data multiset per tree

        cfg = ForestConfig(n_trees=10, seed=8)
        a = fit_forest(*fmatrix(values, ("x", "w"), y), cfg, index_sampler=sampler_a)
        b = fit_forest(*fmatrix(values[perm], ("x", "w"), y[perm]), cfg,
                               index_sampler=sampler_b)
        probe = rng.normal(size=(12, 2))
        assert np.array_equal(a.predict(probe), b.predict(probe))


@pytest.fixture(scope="module")
def rowwise_twins():
    """Linear, logistic and both forest twins on four continuous columns."""
    rng = np.random.default_rng(21)
    n = 80
    cont = rng.normal(size=(n, 4)) * [1.0, 3.0, 0.5, 10.0]
    x = rng.integers(0, 2, n)
    rows = np.column_stack([x, cont])
    y = rows @ [1.3, 0.7, -0.2, 0.9, 0.1] + rng.normal(size=n)
    out = fmatrix(rows, ("x", "a", "b", "c", "d"), y)
    prop = fmatrix(cont, ("a", "b", "c", "d"), x, include_x=False)
    cfg = ForestConfig(n_trees=15, seed=4)
    return [
        (fit_glm(*out), 5),
        (fit_glm(*prop), 4),
        (fit_forest(*out, cfg), 5),
        (fit_forest(*prop, cfg), 4),
    ]


class TestRowWisePrediction:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
    def test_block_prediction_equals_row_by_row(self, rowwise_twins, rows, seed):
        rng = np.random.default_rng(seed)
        for model, p in rowwise_twins:
            f = rng.normal(size=(rows, p)) * 10.0 ** rng.uniform(-1, 2, size=p)
            if p == 5:
                f[:, 0] = rng.integers(0, 2, rows)
            block = model.predict(f)
            single = np.concatenate([model.predict(f[i : i + 1]) for i in range(rows)])
            assert np.array_equal(block, single), model.kind
