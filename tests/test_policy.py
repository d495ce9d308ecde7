import io
import math

import numpy as np
import pytest

from banditrank.data import SupervisedRecord
from banditrank.policy import (
    PolicyParams,
    batch_probabilities,
    init_params,
    weighted_prob_gradient,
)
from banditrank.training import evaluate_policy, rank_records
from conftest import identity_policy
from oracles import finite_difference_gradient


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

    def test_dimension_mismatch(self):
        p = init_params("linear", 3, seed=0)
        with pytest.raises(ValueError):
            batch_probabilities(p, np.zeros(4))

    def test_large_logits_stable(self):
        p = PolicyParams("linear", [np.array([[0.0], [1.0]]) * 500, np.zeros(2)])
        P = batch_probabilities(p, np.array([[1.0]]))
        assert np.all(np.isfinite(P))


def candidates(*pairs):
    """Unlabelled records of one query from (product_id, context) pairs."""
    return [
        SupervisedRecord("q", pid, np.asarray(x, dtype=np.float64), 0, 0.0)
        for pid, x in pairs
    ]


def ranked(params, records):
    (run,) = rank_records(params, records)
    return list(run.items)


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
        cands = candidates(*[(f"p{i}", rng.standard_normal(3)) for i in range(10)])
        out1 = rank_records(p, cands)
        out2 = rank_records(p, list(reversed(cands)))
        assert out1 == out2
        # away from saturation the margin order is the show-probability order
        p1 = batch_probabilities(p, np.stack([r.context for r in cands]))[:, 1]
        by_p1 = sorted(cands, key=lambda r: -p1[int(r.product_id[1:])])
        assert [pid for pid, _ in out1[0].items] == [r.product_id for r in by_p1]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            rank_records(identity_policy(), [])

    def test_saturated_show_probability_ranks_by_margin(self):
        # margins 40 and 50 both give p1 == 1.0 exactly; the margin still
        # orders them, although the id of the better one sorts later
        p = identity_policy(1)
        recs = [
            SupervisedRecord("q", "a", np.array([40.0]), 0, 0.0),
            SupervisedRecord("q", "b", np.array([50.0]), 4, 1.0),
        ]
        assert batch_probabilities(p, np.array([[40.0], [50.0]]))[:, 1].tolist() == [1.0, 1.0]
        assert ranked(p, recs) == [("b", 50.0), ("a", 40.0)]
        assert evaluate_policy(p, recs).map == 1.0


def prob_gradient(params, x, action):
    return weighted_prob_gradient(params, x[None], [action], [1.0])


def fd_prob_gradient(params, x, action, h=1e-5):
    def f(flat):
        p = params.unflatten(np.array(flat))
        return batch_probabilities(p, x)[0][action]

    return np.array(finite_difference_gradient(f, params.flatten().tolist(), h))


class TestGradActionProb:
    def test_symmetric_point_linear(self):
        # at equal logits, d p1 / d w1 = p1 * (1 - p1) * x = 0.25 x
        p = PolicyParams("linear", [np.zeros((2, 3)), np.zeros(2)])
        x = np.array([1.0, -2.0, 0.5])
        g = prob_gradient(p, x, 1)
        np.testing.assert_allclose(g[0][1], 0.25 * x, rtol=1e-12)
        np.testing.assert_allclose(g[0][0], -0.25 * x, rtol=1e-12)

    @pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp", 4)])
    @pytest.mark.parametrize("action", [0, 1])
    def test_matches_finite_differences(self, kind, hidden, action, rng):
        for trial in range(5):
            params = init_params(kind, 3, hidden=hidden, seed=trial)
            x = rng.standard_normal(3)
            analytic = np.concatenate([a.ravel() for a in prob_gradient(params, x, action)])
            numeric = fd_prob_gradient(params, x, action)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)

    def test_gradients_sum_to_zero(self, rng):
        params = init_params("mlp", 4, hidden=3, seed=9)
        x = rng.standard_normal(4)
        g0 = prob_gradient(params, x, 0)
        g1 = prob_gradient(params, x, 1)
        for a, b in zip(g0, g1):
            np.testing.assert_allclose(a + b, 0.0, atol=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp", 5)])
    def test_save_load_roundtrip(self, kind, hidden):
        p = init_params(kind, 4, hidden=hidden, seed=11)
        buf = io.StringIO()
        p.save(buf)
        buf.seek(0)
        assert PolicyParams.load(buf) == p
