import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditrank import policy, training
from banditrank.estimators import lagrangian_gradient
from banditrank.evaluation import RankIndex
from banditrank.policy import (
    PolicyParams,
    batch_probabilities,
    init_params,
    logit_gradient,
    logit_margin,
    weighted_prob_gradient,
)
from banditrank.training import evaluate_policy
from conftest import identity_policy, supervised
from reference import finite_difference_gradient, flatten, init_params_by_kind, unflatten
from row_major import (
    coefficient_dlogits,
    cross_entropy_dlogits,
    row_major_logit_gradient,
    row_major_margin,
    row_major_probabilities,
)

FLOAT_MAX = np.finfo(np.float64).max


class TestInit:
    def test_linear_shapes_and_zero_bias(self):
        p = init_params("linear", 4, seed=0)
        assert [a.shape for a in p.arrays] == [(2, 4), (2,)]
        np.testing.assert_array_equal(p.arrays[1], 0.0)

    def test_mlp_shapes(self):
        p = init_params("mlp", 4, hidden=8, seed=0)
        assert [a.shape for a in p.arrays] == [(8, 4), (8,), (2, 8), (2,)]

    def test_deterministic(self):
        assert init_params("mlp", 3, hidden=5, seed=7) == init_params("mlp", 3, hidden=5, seed=7)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            init_params("linear", 0)
        with pytest.raises(ValueError):
            init_params("mlp", 3, hidden=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown policy kind 'conv'"):
            init_params("conv", 3, hidden=2)

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("feature_dim, hidden", [(1, 1), (3, 2), (7, 16)])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_draws_the_bytes_of_the_per_kind_init(self, kind, feature_dim, hidden, seed):
        p = init_params(kind, feature_dim, hidden=hidden, seed=seed)
        expected = init_params_by_kind(kind, feature_dim, hidden=hidden, seed=seed)
        assert p == expected and p.flat.tobytes() == expected.flat.tobytes()


class TestConstruction:
    """``PolicyParams`` takes only the arrays of its kind, in their shapes."""

    @pytest.mark.parametrize("kind, shapes", [
        ("conv", [(2, 3), (2,)]),
        ("linear", [(2, 3)]),
        ("linear", [(2, 3), (2,), (2,)]),
        ("linear", [(3,), (2,)]),
        ("linear", [(3, 3), (2,)]),
        ("linear", [(2, 3), (3,)]),
        ("mlp", [(4, 3), (3,), (2, 4), (2,)]),
        ("mlp", [(4, 3), (4,), (4, 2), (2,)]),
        ("mlp", [(4, 3), (4,), (2, 4)]),
        ("linear", [(2, 0), (2,)]),  # no features
        ("mlp", [(0, 3), (0,), (2, 0), (2,)]),  # no hidden units
        ("mlp", [(4, 0), (4,), (2, 4), (2,)]),
    ])
    def test_bad_arrays_raise(self, kind, shapes):
        with pytest.raises(ValueError):
            PolicyParams(kind, [np.zeros(shape) for shape in shapes])


class TestActionProbabilities:
    def test_equal_logits(self):
        p = PolicyParams("linear", [np.zeros((2, 3)), np.zeros(2)])
        p0, p1 = batch_probabilities(p, np.zeros(3))[0]
        assert p0 == 0.5 and p1 == 0.5

    def test_unit_logit_gap(self):
        # logits (0, 1): p1 = e / (1 + e)
        p = PolicyParams("linear", [np.zeros((2, 1)), np.array([0.0, 1.0])])
        p1 = batch_probabilities(p, np.array([3.0]))[0][1]
        assert p1 == pytest.approx(math.e / (1 + math.e), rel=1e-12)
        assert p1 == pytest.approx(0.731059, abs=1e-6)

    def test_shift_invariance(self, rng):
        w = rng.standard_normal((2, 4))
        b = rng.standard_normal(2)
        x = rng.standard_normal(4)
        base = batch_probabilities(PolicyParams("linear", [w, b]), x)[0]
        shifted = batch_probabilities(
            PolicyParams("linear", [w + rng.standard_normal(4), b]), x
        )[0]
        # shifting both logit rows by the same vector leaves the softmax alone
        shift = rng.standard_normal(4)
        same = batch_probabilities(PolicyParams("linear", [w + shift, b]), x)[0]
        assert same[1] == pytest.approx(base[1], rel=1e-12)
        assert shifted is not None  # different shifts generally change it

    def test_probs_sum_to_one(self, rng):
        p = init_params("mlp", 6, hidden=4, seed=3)
        X = rng.standard_normal((50, 6))
        P = batch_probabilities(p, X)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((P > 0) & (P < 1))

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_one_row_matches_its_row_of_a_batch_bit_for_bit(self, kind, rng):
        # a one-row product would take BLAS's matrix-vector kernel, which rounds
        # unlike the matrix-matrix one for some of these seeds
        for seed in range(200):
            p = init_params(kind, 2, hidden=2, seed=seed)
            X = rng.normal(0.0, 10.0, size=(2, 2))
            assert np.array_equal(batch_probabilities(p, X[:1]), batch_probabilities(p, X)[:1])
            assert np.array_equal(batch_probabilities(p, X[0]), batch_probabilities(p, X)[:1])

    def test_dimension_mismatch(self):
        p = init_params("linear", 3, seed=0)
        with pytest.raises(ValueError):
            batch_probabilities(p, np.zeros(4))

    def test_large_logits_stable(self):
        p = PolicyParams("linear", [np.array([[0.0], [1.0]]) * 500, np.zeros(2)])
        P = batch_probabilities(p, np.array([[1.0]]))
        assert np.all(np.isfinite(P))


def candidates(*pairs):
    """Unlabelled rows of one query from (product_id, context) pairs."""
    return supervised([("q", pid, np.asarray(x, dtype=np.float64), 0, 0.0) for pid, x in pairs])


def ranked(params, records):
    """(product_id, logit margin) pairs of the rows ranked by the policy, best first."""
    index = RankIndex(records.query_ids, records.product_ids, records.labels)
    scores = logit_margin(params, records.contexts).tolist()
    return [(records.product_ids[i], scores[i]) for i in index.order(scores)]


class TestRankProducts:
    def test_orders_by_show_probability(self):
        p = identity_policy(1)
        out = ranked(p, candidates(("a", [2.0]), ("b", [-2.0])))
        assert [pid for pid, _ in out] == ["a", "b"]
        assert out[0][1] > out[1][1]

    def test_tie_break_by_product_id(self):
        p = identity_policy(1)
        out = ranked(p, candidates(("z", [1.0]), ("a", [1.0])))
        assert [pid for pid, _ in out] == ["a", "z"]

    def test_permutation_invariance(self, rng):
        p = init_params("linear", 3, seed=1)
        pairs = [(f"p{i}", rng.standard_normal(3)) for i in range(10)]
        cands = candidates(*pairs)
        out1 = ranked(p, cands)
        out2 = ranked(p, candidates(*reversed(pairs)))
        assert out1 == out2
        # away from saturation the margin order is the show-probability order
        p1 = batch_probabilities(p, cands.contexts)[:, 1]
        by_p1 = sorted(cands, key=lambda r: -p1[int(r.product_id[1:])])
        assert [pid for pid, _ in out1] == [r.product_id for r in by_p1]

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no records to rank"):
            ranked(identity_policy(), supervised([]))

    def test_saturated_show_probability_ranks_by_margin(self):
        # margins 40 and 50 both give p1 == 1.0 exactly; the margin still
        # orders them, although the id of the better one sorts later
        p = identity_policy(1)
        recs = supervised([
            ("q", "a", np.array([40.0]), 0, 0.0),
            ("q", "b", np.array([50.0]), 4, 1.0),
        ])
        assert batch_probabilities(p, np.array([[40.0], [50.0]]))[:, 1].tolist() == [1.0, 1.0]
        assert ranked(p, recs) == [("b", 50.0), ("a", 40.0)]
        assert evaluate_policy(p, recs).map == 1.0


def prob_gradient(params, x, action):
    return weighted_prob_gradient(params, x[None], [action], [1.0])


def fd_prob_gradient(params, x, action, h=1e-5):
    def f(flat):
        p = unflatten(params, np.array(flat))
        return batch_probabilities(p, x)[0][action]

    return np.array(finite_difference_gradient(f, flatten(params).tolist(), h))


class TestGradActionProb:
    def test_symmetric_point_linear(self):
        # at equal logits, d p1 / d w1 = p1 * (1 - p1) * x = 0.25 x
        p = PolicyParams("linear", [np.zeros((2, 3)), np.zeros(2)])
        x = np.array([1.0, -2.0, 0.5])
        g = prob_gradient(p, x, 1)  # weights (2, 3), then the bias
        np.testing.assert_allclose(g[3:6], 0.25 * x, rtol=1e-12)
        np.testing.assert_allclose(g[0:3], -0.25 * x, rtol=1e-12)

    @pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp", 4)])
    @pytest.mark.parametrize("action", [0, 1])
    def test_matches_finite_differences(self, kind, hidden, action, rng):
        for trial in range(5):
            params = init_params(kind, 3, hidden=hidden, seed=trial)
            x = rng.standard_normal(3)
            analytic = prob_gradient(params, x, action)
            numeric = fd_prob_gradient(params, x, action)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)

    def test_gradients_sum_to_zero(self, rng):
        params = init_params("mlp", 4, hidden=3, seed=9)
        x = rng.standard_normal(4)
        g0 = prob_gradient(params, x, 0)
        g1 = prob_gradient(params, x, 1)
        np.testing.assert_allclose(g0 + g1, 0.0, atol=1e-12)


@st.composite
def batches(draw):
    """A linear or MLP policy (hidden 1-16) of 1-64 features, a batch of 1-300 contexts,
    and per-record classes, coefficients (a fifth of them 0, the rest either sign) and
    full-information weights (1 + l) / 5. Every array is uniform in [-1, 1] at a scale:
    the first weights' is log-uniform, so that tanh units saturate, and the output
    layer's bounds the logits by a reach log-uniform up to 700, so that the softmax
    saturates too."""
    kind = draw(st.sampled_from(["linear", "mlp"]))
    d, hidden, m = draw(st.integers(1, 64)), draw(st.integers(1, 16)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = [rng.uniform(-1.0, 1.0, shape) for shape in policy._shapes(kind, d, hidden)]
    reach = 10.0 ** rng.uniform(-3.0, math.log10(700.0))
    if kind == "mlp":
        arrays[0] *= 10.0 ** rng.uniform(-2.0, 1.0)
    arrays[-2] *= reach / 2 / arrays[-2].shape[1]  # |x| and |h| are at most 1
    arrays[-1] *= reach / 2
    coeffs = np.where(rng.random(m) < 0.2, 0.0, rng.uniform(-5.0, 5.0, m))
    return (PolicyParams(kind, arrays), rng.uniform(-1.0, 1.0, (m, d)),
            rng.integers(0, 2, m), coeffs, (1 + rng.integers(0, 5, m)) / 5.0)


class TestRowMajorOracle:
    """The action-major pass gives the bytes of the row-major pass it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(batches())
    def test_every_output_matches_the_oracle_bit_for_bit(self, batch):
        params, X, classes, coeffs, weights = batch
        assert (batch_probabilities(params, X).tobytes()
                == row_major_probabilities(params, X).tobytes())
        assert logit_margin(params, X).tobytes() == row_major_margin(params, X).tobytes()
        expected = row_major_logit_gradient(params, X, classes,
                                            coefficient_dlogits(classes, coeffs))
        assert weighted_prob_gradient(params, X, classes, coeffs).tobytes() == expected.tobytes()
        # the CRM step's coefficients, (delta - lambda) / p, and its mean over the batch
        deltas, propensities = (coeffs > 0).astype(np.float64), np.abs(coeffs) / 5.0 + 0.01
        crm = row_major_logit_gradient(params, X, classes, coefficient_dlogits(
            classes, (deltas - 0.3) / propensities)) / len(X)
        assert (lagrangian_gradient(X, classes, propensities, deltas, params, 0.3).tobytes()
                == crm.tobytes())
        full_info = row_major_logit_gradient(params, X, classes,
                                             cross_entropy_dlogits(weights))
        assert (logit_gradient(params, X, classes, training._cross_entropy_dlogits(weights))
                .tobytes() == full_info.tobytes())


X_5ROWS = np.arange(10.0).reshape(5, 2) / 10


class TestBatchLengths:
    """A per-record column whose length is not the batch's fails and names both."""

    @pytest.mark.parametrize("actions, coeffs, message", [
        ([1], [1.0], "classes of shape (1,) for a batch of 5 rows"),
        ([1, 0, 1, 0, 1], [1.0], "coefficients of shape (1,) for a batch of 5 rows"),
        ([1, 0, 1], [1.0] * 5, "classes of shape (3,) for a batch of 5 rows"),
        ([1, 0, 1, 0, 1], [1.0] * 6, "coefficients of shape (6,) for a batch of 5 rows"),
        ([1, 0, 1, 0, 1], 1.0, "coefficients of shape () for a batch of 5 rows"),
        ([[1, 0, 1, 0, 1]], [1.0] * 5, "classes of shape (1, 5) for a batch of 5 rows"),
    ])
    def test_weighted_prob_gradient(self, actions, coeffs, message):
        params = init_params("linear", 2, seed=0)
        with pytest.raises(ValueError, match=re.escape(message)):
            weighted_prob_gradient(params, X_5ROWS, actions, coeffs)

    @pytest.mark.parametrize("classes", [[0, 1], [0] * 6, 1])
    def test_logit_gradient(self, classes):
        params = init_params("mlp", 2, hidden=3, seed=0)
        shape = np.shape(classes)
        with pytest.raises(ValueError, match=re.escape(f"classes of shape {shape} for a batch "
                                                       f"of 5 rows")):
            logit_gradient(params, X_5ROWS, classes, training._cross_entropy_dlogits(np.ones(5)))

    def test_one_context_takes_one_entry_per_column(self):
        params = init_params("linear", 2, seed=0)
        with pytest.raises(ValueError, match=re.escape("coefficients of shape (2,) for a "
                                                       "batch of 1 rows")):
            weighted_prob_gradient(params, X_5ROWS[0], [1], [1.0, 1.0])
        assert weighted_prob_gradient(params, X_5ROWS[0], [1], [1.0]).shape == (6,)


class TestClassValues:
    """A class outside {0, 1} fails before the forward pass and names its row and value;
    ``np.take`` would otherwise read class -1 as 1 and -2 as 0. Classes of any number
    type are accepted when they equal 0 or 1."""

    @pytest.mark.parametrize("bad", [-1, -2, 2])
    @pytest.mark.parametrize("gradient", ["logit_gradient", "weighted_prob_gradient",
                                          "lagrangian_gradient"])
    def test_a_class_outside_0_and_1_fails(self, monkeypatch, gradient, bad):
        params, classes = init_params("mlp", 2, hidden=3, seed=0), [1, 0, 1, bad, bad]
        calls = {
            "logit_gradient": lambda: logit_gradient(
                params, X_5ROWS, classes, training._cross_entropy_dlogits(np.ones(5))),
            "weighted_prob_gradient": lambda: weighted_prob_gradient(
                params, X_5ROWS, classes, np.ones(5)),
            "lagrangian_gradient": lambda: lagrangian_gradient(
                X_5ROWS, classes, np.full(5, 0.5), np.ones(5), params, 0.5),
        }

        def no_forward(*args):
            raise AssertionError("forward pass over a batch with a bad class")

        monkeypatch.setattr(policy, "_forward", no_forward)
        with pytest.raises(ValueError, match=re.escape(
                f"class {bad} at row 3: classes must be 0 or 1")):
            calls[gradient]()

    @staticmethod
    def gradients(classes):
        """The gradient of ``classes`` on five rows by each function that takes classes."""
        params = init_params("mlp", 2, hidden=3, seed=0)
        return {
            "weighted_prob_gradient": lambda: weighted_prob_gradient(
                params, X_5ROWS, classes, np.linspace(-1.0, 1.0, 5)),
            "lagrangian_gradient": lambda: lagrangian_gradient(
                X_5ROWS, classes, np.full(5, 0.5), np.linspace(0.0, 1.0, 5), params, 0.3),
        }

    @pytest.mark.parametrize("bad", [0.5, 1.7, -0.5, 2.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("gradient", ["weighted_prob_gradient", "lagrangian_gradient"])
    def test_a_float_class_that_is_not_0_or_1_fails(self, gradient, bad):
        # a cast to int64 would train 0.5 as 0 and 1.7 as 1
        classes = np.array([1.0, 0.0, 1.0, bad, 0.0])
        with pytest.raises(ValueError, match=re.escape(
                f"class {bad} at row 3: classes must be 0 or 1")):
            self.gradients(classes)[gradient]()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool, np.uint8, np.int32])
    @pytest.mark.parametrize("gradient", ["weighted_prob_gradient", "lagrangian_gradient"])
    def test_classes_equal_to_0_or_1_of_any_number_type_are_accepted(self, gradient, dtype):
        # the floats 0.0 and 1.0 are classes: they give the bits of the int64 classes
        classes = np.array([1, 0, 1, 1, 0])
        expected = self.gradients(classes)[gradient]()
        assert np.array_equal(self.gradients(classes.astype(dtype))[gradient](), expected)
        assert np.array_equal(self.gradients(classes.astype(dtype).tolist())[gradient](),
                              expected)

    def test_classes_that_are_not_numbers_fail(self):
        with pytest.raises(ValueError, match="classes must be numbers"):
            self.gradients(np.array(["1", "0", "1", "1", "0"]))["weighted_prob_gradient"]()


LINEAR = {"kind": "linear", "arrays": [[0.5, 0.5, 0.5, 0.5], [0.0, 0.0]], "shapes": [[2, 2], [2]]}


class TestSerialization:
    @pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp", 5)])
    def test_save_load_roundtrip(self, kind, hidden):
        p = init_params(kind, 4, hidden=hidden, seed=11)
        buf = io.StringIO()
        p.save(buf)
        buf.seek(0)
        assert PolicyParams.load(buf) == p

    @pytest.mark.parametrize("kind, arrays, text", [
        ("linear", [[[0.5, -1.25], [2.0, 0.0]], [0.125, -3.0]],
         '{"kind": "linear", "feature_dim": 2, "hidden": 0, "arrays": [[0.5, -1.25, 2.0, 0.0], '
         '[0.125, -3.0]], "shapes": [[2, 2], [2]]}'),
        ("mlp", [[[0.5, -1.0], [0.25, 0.0], [-2.0, 1.5]], [0.0, 0.1, -0.2],
                 [[1.0, -0.5, 0.75], [0.0, 2.0, -1.0]], [0.5, -0.5]],
         '{"kind": "mlp", "feature_dim": 2, "hidden": 3, "arrays": [[0.5, -1.0, 0.25, 0.0, '
         '-2.0, 1.5], [0.0, 0.1, -0.2], [1.0, -0.5, 0.75, 0.0, 2.0, -1.0], [0.5, -0.5]], '
         '"shapes": [[3, 2], [3], [2, 3], [2]]}'),
    ], ids=["linear", "mlp"])
    def test_model_json_keeps_its_bytes(self, kind, arrays, text):
        params = PolicyParams(kind, [np.array(a) for a in arrays])
        buf = io.StringIO()
        params.save(buf)
        assert buf.getvalue() == text
        assert PolicyParams.load(io.StringIO(text)) == params

    def test_integers_load_as_floats(self):
        model = {**LINEAR, "arrays": [[1, 0, 0, 2], [0, 0]]}
        loaded = PolicyParams.load(io.StringIO(json.dumps(model)))
        assert loaded == PolicyParams("linear", [np.array([[1.0, 0.0], [0.0, 2.0]]), np.zeros(2)])

    @pytest.mark.parametrize("change, message", [
        ({"arrays": [[True, 0.5, 0.5, 0.5], [0.0, False]]}, "array 0 must be a list of numbers"),
        ({"arrays": [[0.5, 0.5, 0.5, 0.5], ["0.1", 0.0]]}, "array 1 must be a list of numbers"),
        ({"arrays": [[0.5, 0.5, 0.5, 0.5], [None, 0.0]]}, "array 1 must be a list of numbers"),
        ({"arrays": [[[0.5, 0.5], [0.5, 0.5]], [0.0, 0.0]]}, "array 0 must be a list of numbers"),
        ({"shapes": [[2, True], [2]]}, "array 0 must be a list of numbers"),
        ({"shapes": [[2, 2], "2"]}, "array 1 must be a list of numbers"),
        ({"arrays": [[0.5, 0.5, 0.5, 0.5], [0.0, 0.0], [1.0]]},
         "arrays and shapes must be lists of equal length"),
        ({"shapes": [[2, 2]]}, "arrays and shapes must be lists of equal length"),
        ({"arrays": 1, "shapes": 2}, "arrays and shapes must be lists"),
        ({"shapes": [[2, 3], [2]]}, "cannot reshape"),
        ({"arrays": [[0.5, 0.5, 0.5, 10**400], [0.0, 0.0]]}, "int too large"),
    ])
    def test_load_takes_numbers_only(self, change, message):
        with pytest.raises(ValueError, match=f"^not a model: {re.escape(message)}"):
            PolicyParams.load(io.StringIO(json.dumps({**LINEAR, **change})))

    def test_an_mlp_with_no_hidden_units_does_not_load(self):
        model = {"kind": "mlp", "arrays": [[], [], [], [0.0, 1.0]],
                 "shapes": [[0, 3], [0], [2, 0], [2]]}
        message = "bad mlp shapes [(0, 3), (0,), (2, 0), (2,)]"
        with pytest.raises(ValueError, match=re.escape(message)):
            PolicyParams.load(io.StringIO(json.dumps(model)))


class TestFlatVector:
    @pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp", 3)])
    def test_arrays_are_read_only_views_of_flat(self, kind, hidden):
        p = init_params(kind, 4, hidden=hidden, seed=5)
        assert p.flat.dtype == np.float64 and not p.flat.flags.writeable
        assert p.flat.tobytes() == np.concatenate([a.ravel() for a in p.arrays]).tobytes()
        for a in p.arrays:
            assert np.shares_memory(a, p.flat) and not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0

    def test_the_callers_arrays_are_copied(self):
        w = np.ones((2, 3))
        p = PolicyParams("linear", [w, np.zeros(2)])
        w[0, 0] = 5.0
        assert w.flags.writeable and p.arrays[0][0, 0] == 1.0


@st.composite
def bounded_cases(draw):
    """A linear or MLP policy of up to 64 features and a table of up to 8 rows. The
    size of each array and of the first weights' bound Σ|w|·max|x| over the table is
    log-uniform from 1e-3 up to the overflow edge or, half the time, within a factor
    2 of it. The table's last row takes the signs of the first weights at the table's
    largest entry, so that its first pre-activation meets that bound, and an MLP's
    first output weights take the signs of that row's hidden units."""
    kind = draw(st.sampled_from(["linear", "mlp"]))
    d, hidden = draw(st.integers(1, 64)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def size():
        return FLOAT_MAX * 10.0 ** -rng.uniform(0.0, 0.3 if draw(st.booleans()) else 311.0)

    arrays = [rng.uniform(-1.0, 1.0, shape) * size() for shape in policy._shapes(kind, d, hidden)]
    w = arrays[0][0]
    with np.errstate(over="ignore", invalid="ignore"):
        x_max = min(size() / np.abs(w).sum(), FLOAT_MAX)
        far = np.sign(w) * x_max
        if kind == "mlp":
            h = np.tanh(arrays[0] @ far + arrays[1])
            arrays[2][0] = np.abs(arrays[2][0]) * np.where(h < 0, -1.0, 1.0)
    table = rng.uniform(-1.0, 1.0, (draw(st.integers(1, 7)), d)) * x_max
    return PolicyParams(kind, arrays), np.vstack([table, far])


class TestLogitBound:
    @settings(max_examples=500, deadline=None)
    @given(bounded_cases())
    def test_accepted_logits_are_finite(self, case):
        params, table = case
        if policy._logits_bounded(params, float(np.abs(table).max())):
            assert np.isfinite(policy._forward(params, table)[1]).all()

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_an_initial_policy_is_accepted_and_a_far_entry_is_not(self, kind):
        params = init_params(kind, 10, hidden=16, seed=0)
        assert policy._logits_bounded(params, 1e6)
        assert not policy._logits_bounded(params, 1e301)
        assert not policy._logits_bounded(params, np.inf)

    @pytest.mark.parametrize("x_max", [0.0, 1.0, 1e6])
    def test_the_output_layer_is_bounded_by_tanh(self, x_max):
        # the hidden layer's bound is 0.5·2·x_max + 0.25 at most; its tanh units lie in
        # [-1, 1], so the output bound is Σ|w₂| + |b₂| at every x_max, 0 included
        first = [np.full((3, 2), 0.5), np.full(3, 0.25)]
        w2 = np.array([[1.0, -1e301, 0.5], [0.25, 2.0, -1.0]])
        far = PolicyParams("mlp", [*first, w2, np.zeros(2)])
        near = PolicyParams("mlp", [*first, w2 * 1e-2, np.zeros(2)])
        assert not policy._logits_bounded(far, x_max)
        assert policy._logits_bounded(near, x_max)
        assert np.isfinite(policy._forward(near, np.full((2, 2), x_max))[1]).all()
