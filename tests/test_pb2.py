import numpy as np
import pytest

from fusionscreen import pb2
from fusionscreen.pb2 import (
    Dimension,
    GpBanditState,
    HyperParamSpace,
    Pb2Config,
    TrialState,
    exploit_explore,
    fusion_search_space,
    quadratic_trainable,
    ready_and_rank,
    run_hpo,
    sample_initial_population,
)


def lr_space(lo=1e-4, hi=1.0):
    return HyperParamSpace((
        Dimension("learning_rate", "continuous", (lo, hi), "log"),
        Dimension("optimizer", "categorical", ("adam", "rmsprop")),
        Dimension("batch_norm", "boolean"),
    ))


class TestDimension:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Dimension("x", "integer", (1, 2))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Dimension("x", "continuous", (1.0, 1.0))
        with pytest.raises(ValueError):
            Dimension("x", "continuous", (0.0, 1.0), "log")

    def test_sampling_stays_in_domain(self, rng):
        d = Dimension("lr", "continuous", (1e-6, 1e-2), "log")
        vals = [d.sample(rng) for _ in range(200)]
        assert all(1e-6 <= v <= 1e-2 for v in vals)
        # log scale spreads across decades
        assert min(vals) < 1e-5 and max(vals) > 1e-3

    def test_unit_roundtrip(self):
        d = Dimension("lr", "continuous", (1e-6, 1e-2), "log")
        for v in (1e-6, 1e-4, 1e-2):
            assert d.from_unit(d.to_unit(v)) == pytest.approx(v, rel=1e-12)

    def test_categorical_samples_from_domain(self, rng):
        d = Dimension("opt", "categorical", ("a", "b"))
        assert {d.sample(rng) for _ in range(50)} == {"a", "b"}


class TestSpace:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            HyperParamSpace((Dimension("x", "boolean"),
                             Dimension("x", "boolean")))

    def test_json_roundtrip(self):
        space = fusion_search_space()
        again = HyperParamSpace.from_json(space.to_json())
        assert again == space

    def test_published_fusion_space_shape(self):
        space = fusion_search_space()
        names = {d.name for d in space.dimensions}
        assert {"optimizer", "learning_rate", "batch_size",
                "n_fusion_layers", "pre_trained"} <= names
        lr = next(d for d in space.dimensions if d.name == "learning_rate")
        assert lr.domain == (1e-8, 1e-3)
        assert lr.scale == "log"

    def test_sample_population_distinct(self):
        cfgs = sample_initial_population(lr_space(), 8, seed=0)
        assert len(cfgs) == 8
        assert len({c["learning_rate"] for c in cfgs}) == 8

    def test_population_of_one_rejected(self):
        with pytest.raises(ValueError):
            sample_initial_population(lr_space(), 1)
        with pytest.raises(ValueError):
            Pb2Config(population_size=1)


def make_trial(tid, score, epoch=5):
    return TrialState(tid, {"learning_rate": 0.1, "optimizer": "adam",
                            "batch_norm": False},
                      epoch=epoch,
                      checkpoint={"w": np.full(3, float(tid))},
                      score_history=[(epoch, score)])


class TestRanking:
    def test_four_trials_half_quantile(self):
        # scores 1.0 / 0.5 / 2.0 / 0.7: top half {1, 3}, bottom half {0, 2}
        pop = [make_trial(i, s) for i, s in enumerate([1.0, 0.5, 2.0, 0.7])]
        above, below = ready_and_rank(pop, 5, 0.5)
        assert sorted(t.trial_id for t in above) == [1, 3]
        assert sorted(t.trial_id for t in below) == [0, 2]

    def test_two_trials(self):
        pop = [make_trial(0, 2.0), make_trial(1, 1.0)]
        above, below = ready_and_rank(pop, 5, 0.5)
        assert [t.trial_id for t in above] == [1]
        assert [t.trial_id for t in below] == [0]

    def test_odd_population_floor_continue(self):
        # 5 trials: floor(5/2) = 2 continue unperturbed, 3 get perturbed
        pop = [make_trial(i, float(i)) for i in range(5)]
        above, below = ready_and_rank(pop, 5, 0.5)
        assert len(above) == 2
        assert len(below) == 3

    def test_ties_break_by_trial_id(self):
        pop = [make_trial(i, 1.0) for i in range(4)]
        above, _ = ready_and_rank(pop, 5, 0.5)
        assert sorted(t.trial_id for t in above) == [0, 1]

    def test_ranks_best_within_interval_only(self):
        t0 = make_trial(0, 9.0, epoch=10)
        t0.score_history = [(5, 0.01), (10, 9.0)]  # old glory ignored
        t1 = make_trial(1, 5.0, epoch=10)
        t1.score_history = [(5, 8.0), (10, 5.0)]
        above, _ = ready_and_rank([t0, t1], 5, 0.5)
        assert above[0].trial_id == 1

    def test_unequal_epochs_rejected(self):
        with pytest.raises(ValueError, match="equal epochs"):
            ready_and_rank([make_trial(0, 1.0, 5), make_trial(1, 1.0, 10)], 5)

    def test_off_interval_epoch_rejected(self):
        with pytest.raises(ValueError):
            ready_and_rank([make_trial(0, 1.0, 7)], 5)


class TestExploitExplore:
    def space(self):
        return lr_space()

    def test_checkpoint_cloned_bitwise(self):
        below = make_trial(0, 9.0)
        above = [make_trial(7, 0.1)]
        gp = GpBanditState(1)
        clone = exploit_explore(below, above, gp, self.space(), seed=0)
        assert clone.trial_id == 0
        src = above[0].checkpoint["w"]
        assert clone.checkpoint["w"].tobytes() == src.tobytes()
        assert clone.checkpoint["w"] is not src
        assert clone.epoch == above[0].epoch
        assert clone.lineage[-1] == (5, 7)

    def test_fallback_perturbation_within_20_percent(self, monkeypatch):
        monkeypatch.setattr(pb2, "MUTATION_PROBABILITY", 0.0)
        space = self.space()
        gp = GpBanditState(1)  # degenerate: no observations
        for seed in range(50):
            clone = exploit_explore(make_trial(0, 9.0), [make_trial(1, 0.1)],
                                    gp, space, seed=seed)
            ratio = clone.config["learning_rate"] / 0.1
            assert 0.8 <= ratio <= 1.2

    def test_fallback_clips_to_bounds(self, monkeypatch):
        monkeypatch.setattr(pb2, "MUTATION_PROBABILITY", 0.0)
        space = lr_space(lo=0.09, hi=0.11)
        gp = GpBanditState(1)
        for seed in range(30):
            clone = exploit_explore(make_trial(0, 9.0), [make_trial(1, 0.1)],
                                    gp, space, seed=seed)
            assert 0.09 <= clone.config["learning_rate"] <= 0.11

    def test_categoricals_stable_without_mutation(self, monkeypatch):
        monkeypatch.setattr(pb2, "MUTATION_PROBABILITY", 0.0)
        gp = GpBanditState(1)
        clone = exploit_explore(make_trial(0, 9.0), [make_trial(1, 0.1)],
                                gp, self.space(), seed=3)
        assert clone.config["optimizer"] == "adam"
        assert clone.config["batch_norm"] is False

    def test_mutation_resamples_categoricals(self, monkeypatch):
        monkeypatch.setattr(pb2, "MUTATION_PROBABILITY", 1.0)
        gp = GpBanditState(1)
        changed = 0
        for seed in range(200):
            clone = exploit_explore(make_trial(0, 9.0), [make_trial(1, 0.1)],
                                    gp, self.space(), seed=seed)
            changed += clone.config["optimizer"] != "adam"
        assert 0 < changed < 200  # resample is uniform, so roughly half move

    def test_empty_above_set_rejected(self):
        with pytest.raises(ValueError):
            exploit_explore(make_trial(0, 1.0), [], GpBanditState(1),
                            self.space(), seed=0)


class TestGp:
    def test_degenerate_below_two_observations(self, rng):
        gp = GpBanditState(1)
        gp.observe(np.array([0.5]), 0.0, 1.0)
        with pytest.raises(RuntimeError, match="degenerate"):
            gp.propose(np.array([0.5]), 1.0, rng)

    def test_proposals_in_unit_cube(self, rng):
        gp = GpBanditState(2)
        for i in range(10):
            gp.observe(rng.random(2), float(i), float(rng.normal()))
        for _ in range(5):
            u = gp.propose(rng.random(2), 10.0, rng)
            assert np.all(u >= 0.0) and np.all(u <= 1.0)

    def test_ucb_prefers_observed_improvement_region(self, rng):
        # big improvements near x = 0.2, losses near x = 0.8
        gp = GpBanditState(1)
        for i in range(12):
            x = 0.2 if i % 2 == 0 else 0.8
            y = 1.0 if i % 2 == 0 else -1.0
            gp.observe(np.array([x + 0.01 * rng.normal()]), float(i), y)
        hits = sum(abs(gp.propose(np.array([0.5]), 12.0, rng)[0] - 0.2) < 0.25
                   for _ in range(10))
        assert hits >= 7

    def test_window_drops_old_observations(self, monkeypatch):
        monkeypatch.setattr(pb2, "GP_WINDOW", 5)
        gp = GpBanditState(1)
        for i in range(9):
            gp.observe(np.array([0.1]), float(i), 0.0)
        assert len(gp.observations) == 5
        assert gp.observations[0][1] == 4.0

    def test_no_factoring_kernel_is_degenerate(self, rng, monkeypatch):
        gp = GpBanditState(1)
        for i in range(3):
            gp.observe(np.array([0.1 * i]), float(i), float(i))

        def no_factor(k):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", no_factor)
        with pytest.raises(RuntimeError, match="degenerate"):
            gp.propose(np.array([0.5]), 3.0, rng)

    def test_propose_factors_one_kernel_per_grid_point(self, rng,
                                                        monkeypatch):
        gp = GpBanditState(1)
        for i in range(6):
            gp.observe(np.array([0.15 * i]), float(i), float(i % 3))
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda k: calls.append(1) or cholesky(k))
        gp.propose(np.array([0.5]), 6.0, rng)
        assert len(calls) == 12      # the 4 x 3 grid, no second factoring


class TestRunHpo:
    def test_finds_optimum_region(self):
        best, history = run_hpo(lr_space(), Pb2Config(6, 0.5, 5), 50,
                                quadratic_trainable(optimum=1e-2), seed=0)
        assert best.best_score() < 0.5
        assert len(history) == 10

    def test_history_records_lineage_events(self):
        _, history = run_hpo(lr_space(), Pb2Config(4, 0.5, 5), 20,
                             quadratic_trainable(), seed=1)
        events = [e for h in history for e in h["lineage_events"]]
        assert events
        for e in events:
            assert e["cloned_from"] != e["trial_id"]

    def test_crashed_trial_replaced(self):
        calls = {"n": 0}
        inner = quadratic_trainable()

        def flaky(trial, n):
            calls["n"] += 1
            if trial.trial_id == 2 and trial.epoch == 0:
                raise RuntimeError("spurious node failure")
            return inner(trial, n)

        best, history = run_hpo(lr_space(), Pb2Config(4, 0.5, 5), 15,
                                flaky, seed=0)
        assert np.isfinite(best.best_score())
        # the replacement keeps the population at full strength
        assert len(history[-1]["scores"]) == 4

    def test_budget_below_one_interval_rejected(self):
        with pytest.raises(ValueError):
            run_hpo(lr_space(), Pb2Config(4, 0.5, 10), 5,
                    quadratic_trainable())

    def test_deterministic_in_seed(self):
        a, _ = run_hpo(lr_space(), Pb2Config(4, 0.5, 5), 20,
                       quadratic_trainable(), seed=5)
        b, _ = run_hpo(lr_space(), Pb2Config(4, 0.5, 5), 20,
                       quadratic_trainable(), seed=5)
        assert a.config == b.config
        assert a.best_score() == b.best_score()


class TestRandomSearch:
    def test_budget_below_one_interval_rejected(self):
        with pytest.raises(ValueError, match="perturbation interval"):
            pb2.random_search(lr_space(), Pb2Config(4, 0.5, 10), 5,
                              quadratic_trainable())

    def test_all_trials_failing_raises(self):
        def crash(trial, n):
            raise RuntimeError("node lost")

        for search in (run_hpo, pb2.random_search):
            with pytest.raises(RuntimeError, match="every trial"):
                search(lr_space(), Pb2Config(4, 0.5, 5), 10, crash)

    def test_failed_trial_trains_no_more(self):
        calls = []
        inner = quadratic_trainable()

        def flaky(trial, n):
            calls.append(trial.trial_id)
            if trial.trial_id == 0:
                raise RuntimeError("node lost")
            return inner(trial, n)

        best = pb2.random_search(lr_space(), Pb2Config(4, 0.5, 5), 20, flaky)
        assert np.isfinite(best)
        assert calls.count(0) == 1 and calls.count(1) == 4


def test_reference_config_documents_full_scale():
    cfg = pb2.reference_pb2_config()
    assert cfg.population_size == 90
    assert cfg.t_ready == 100
    assert cfg.quantile_fraction == 0.5
