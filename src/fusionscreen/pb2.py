"""Population-based bandit hyperparameter optimization.

Synchronous generations: every trial trains ``t_ready`` epochs, the population
is ranked by its best validation MSE within the interval, and each trial in
the bottom quantile clones a top performer's checkpoint (exploit) and gets a
perturbed configuration (explore).  Continuous dimensions are proposed by a
UCB acquisition over a time-varying Gaussian-process fit to observed score
changes; categorical and boolean dimensions mutate with a fixed small
probability.  PB2 (:func:`run_hpo`) and its random-search baseline
(:func:`random_search`) share one set-up and one generation step, in which a
trial that raises is marked failed and a population with no live trial left
raises.

The full-scale reference configuration (population 90-270,
t_ready 100 epochs, quantile fraction 0.5) is documented in
:func:`reference_pb2_config`; desk-scale defaults are much smaller.
"""

from __future__ import annotations

import copy
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

MUTATION_PROBABILITY = 0.1   # categorical/boolean re-sample chance on explore
FALLBACK_SPREAD = 0.2        # +/-20% uniform perturbation before the GP has data
UCB_KAPPA = 2.0
GP_TIME_DECAY = 10.0         # epochs; time scale of the GP kernel's decay
GP_WINDOW = 64               # observations the GP keeps, newest first


# ---------------------------------------------------------------------------
# search space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dimension:
    name: str
    kind: str                      # categorical | boolean | continuous
    domain: tuple = ()             # value list, or (lo, hi) for continuous
    scale: str = "linear"          # linear | log (continuous only)

    def __post_init__(self):
        where = f"dimension {self.name!r}"
        if self.kind not in ("categorical", "boolean", "continuous"):
            raise ValueError(f"{where}: unknown kind {self.kind!r}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"{where}: scale must be 'linear' or 'log', "
                             f"got {self.scale!r}")
        if self.kind == "categorical" and not self.domain:
            raise ValueError(f"{where}: empty categorical domain")
        if self.kind == "continuous":
            if len(self.domain) != 2 or not all(
                    isinstance(v, (int, float)) for v in self.domain):
                raise ValueError(f"{where}: continuous domain must be two "
                                 f"numbers [lo, hi], got {list(self.domain)}")
            lo, hi = self.domain
            if not lo < hi:
                raise ValueError(f"{where}: bounds must satisfy lo < hi")
            if self.scale == "log" and lo <= 0:
                raise ValueError(f"{where}: log scale needs positive bounds")

    def sample(self, rng) -> object:
        if self.kind == "boolean":
            return bool(rng.integers(0, 2))
        if self.kind == "categorical":
            return self.domain[int(rng.integers(0, len(self.domain)))]
        lo, hi = self.domain
        if self.scale == "log":
            return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        return float(rng.uniform(lo, hi))

    def clip(self, value: float) -> float:
        lo, hi = self.domain
        return float(min(max(value, lo), hi))

    # normalized coordinates for the GP ([0, 1], log scale respected)
    def to_unit(self, value: float) -> float:
        lo, hi = self.domain
        if self.scale == "log":
            return (math.log(value) - math.log(lo)) / (math.log(hi) - math.log(lo))
        return (value - lo) / (hi - lo)

    def from_unit(self, u: float) -> float:
        lo, hi = self.domain
        u = min(max(u, 0.0), 1.0)
        if self.scale == "log":
            return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
        return float(lo + u * (hi - lo))


@dataclass(frozen=True)
class HyperParamSpace:
    dimensions: tuple[Dimension, ...]

    def __post_init__(self):
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise ValueError("dimension names must be unique")

    @property
    def continuous(self) -> list[Dimension]:
        return [d for d in self.dimensions if d.kind == "continuous"]

    def sample(self, rng) -> dict:
        return {d.name: d.sample(rng) for d in self.dimensions}

    def to_json(self) -> str:
        return json.dumps({"dimensions": [
            {"name": d.name, "kind": d.kind, "domain": list(d.domain),
             "scale": d.scale} for d in self.dimensions]}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "HyperParamSpace":
        """The space :meth:`to_json` wrote.  Raises ``ValueError`` naming the
        dimension and the field of a malformed entry."""
        data = json.loads(text)
        if not isinstance(data, dict) or \
                not isinstance(data.get("dimensions"), list):
            raise ValueError('a search space must be an object with a '
                             '"dimensions" list')
        dims = []
        for i, d in enumerate(data["dimensions"]):
            if not isinstance(d, dict):
                raise ValueError(f"dimension {i}: must be an object")
            where = f"dimension {d.get('name', i)!r}"
            for key in ("name", "kind"):
                if key not in d:
                    raise ValueError(f"{where}: missing field {key!r}")
            domain = d.get("domain", [])
            if not isinstance(domain, list):
                raise ValueError(f"{where}: field 'domain' must be a list")
            dims.append(Dimension(d["name"], d["kind"], tuple(domain),
                                  d.get("scale", "linear")))
        return cls(tuple(dims))


def fusion_search_space() -> HyperParamSpace:
    """Published fusion search space (the full-range preset)."""
    return HyperParamSpace((
        Dimension("optimizer", "categorical",
                  ("adam", "adamw", "rmsprop", "adadelta")),
        Dimension("activation", "categorical", ("relu", "leaky-relu", "selu")),
        Dimension("batch_size", "categorical",
                  (1, 2, 4, 5, 8, 12, 16, 24, 28, 34, 38, 48, 56)),
        Dimension("learning_rate", "continuous", (1e-8, 1e-3), "log"),
        Dimension("model_specific_layers", "boolean"),
        Dimension("pre_trained", "boolean"),
        Dimension("batch_norm", "boolean"),
        Dimension("dropout_early", "continuous", (0.0, 0.50)),
        Dimension("dropout_mid", "continuous", (0.0, 0.25)),
        Dimension("dropout_late", "continuous", (0.0, 0.125)),
        Dimension("n_fusion_layers", "categorical", (3, 4, 5)),
        Dimension("fusion_dense_nodes", "categorical",
                  (8, 24, 40, 64, 88, 104, 128)),
        Dimension("residual_1", "boolean"),
        Dimension("residual_2", "boolean"),
    ))


def graph_head_search_space() -> HyperParamSpace:
    """Published graph-head search space."""
    return HyperParamSpace((
        Dimension("batch_size", "categorical", (4, 8, 12, 16)),
        Dimension("learning_rate", "continuous", (2e-4, 2e-2), "log"),
        Dimension("k_cov", "categorical", (2, 3, 4, 5, 6, 7, 8)),
        Dimension("k_noncov", "categorical", (2, 3, 4, 5, 6, 7, 8)),
        Dimension("cov_thresh", "continuous", (1.2, 5.9)),
        Dimension("noncov_thresh", "continuous", (1.2, 5.9)),
        Dimension("gather_width_cov", "categorical",
                  (8, 24, 40, 64, 88, 104, 128)),
        Dimension("gather_width_noncov", "categorical",
                  (8, 24, 40, 64, 88, 104, 128)),
    ))


def voxel_head_search_space() -> HyperParamSpace:
    """Published voxel-head search space."""
    return HyperParamSpace((
        Dimension("batch_size", "categorical", (8, 12, 24)),
        Dimension("learning_rate", "continuous", (1e-6, 1e-4), "log"),
        Dimension("batch_norm", "boolean"),
        Dimension("dense_nodes", "categorical", (40, 64, 88, 104, 128)),
        Dimension("conv_filters_1", "categorical", (32, 64, 96)),
        Dimension("conv_filters_2", "categorical", (64, 96, 128)),
        Dimension("residual_1", "boolean"),
        Dimension("residual_2", "boolean"),
    ))


# ---------------------------------------------------------------------------
# trial state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pb2Config:
    population_size: int = 8
    quantile_fraction: float = 0.5
    t_ready: int = 5

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0.0 < self.quantile_fraction <= 0.5:
            raise ValueError("quantile_fraction must be in (0, 0.5]")
        if self.t_ready < 1:
            raise ValueError("t_ready must be >= 1")


def reference_pb2_config() -> Pb2Config:
    """The full-scale reference setup (not run at desk scale)."""
    return Pb2Config(population_size=90, quantile_fraction=0.5, t_ready=100)


@dataclass
class TrialState:
    trial_id: int
    config: dict
    epoch: int = 0
    checkpoint: dict = field(default_factory=dict)
    score_history: list = field(default_factory=list)   # (epoch, val_mse)
    lineage: list = field(default_factory=list)         # (epoch, cloned_from)
    failed: bool = False

    def best_score(self, since_epoch: int | None = None) -> float:
        scores = [s for e, s in self.score_history
                  if since_epoch is None or e > since_epoch]
        return min(scores) if scores else np.inf


# ---------------------------------------------------------------------------
# time-varying GP bandit over continuous dimensions
# ---------------------------------------------------------------------------

class GpBanditState:
    """GP over (normalized config, time) -> score change, UCB acquisition.

    Squared-exponential kernel over the unit-cube config coordinates times an
    exponential time-decay factor; the lengthscale and noise are picked by
    marginal likelihood over a small fixed grid.  Only the newest
    ``GP_WINDOW`` observations are kept.
    """

    def __init__(self, n_dims: int):
        self.n_dims = n_dims
        self.observations: list[tuple[np.ndarray, float, float]] = []

    def observe(self, x_unit: np.ndarray, t: float, score_change: float) -> None:
        self.observations.append((np.asarray(x_unit, dtype=float), float(t),
                                  float(score_change)))
        if len(self.observations) > GP_WINDOW:
            self.observations = self.observations[-GP_WINDOW:]

    def _kernel(self, a, ta, b, tb, lengthscale):
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        dt = np.abs(ta[:, None] - tb[None, :])
        return np.exp(-d2 / (2 * lengthscale ** 2)) * np.exp(-dt / GP_TIME_DECAY)

    def _fit(self):
        """(x, t, lengthscale, Cholesky factor, weights) of the grid kernel
        with the lowest negative log marginal likelihood of the standardized
        score changes; raises ``RuntimeError`` if no kernel factors."""
        x = np.array([o[0] for o in self.observations])
        t = np.array([o[1] for o in self.observations])
        y = np.array([o[2] for o in self.observations])
        mu, sd = y.mean(), y.std()
        yz = (y - mu) / sd if sd > 0 else y - mu
        best_nll, best = np.inf, None
        for ls in (0.1, 0.25, 0.5, 1.0):
            for noise in (1e-4, 1e-2, 1e-1):
                k = self._kernel(x, t, x, t, ls) + noise * np.eye(len(x))
                try:
                    chol = np.linalg.cholesky(k)
                except np.linalg.LinAlgError:
                    continue
                alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, yz))
                nll = (0.5 * yz @ alpha + np.log(np.diag(chol)).sum())
                if nll < best_nll:
                    best_nll, best = nll, (ls, chol, alpha)
        if best is None:
            raise RuntimeError("GP degenerate: no kernel on the grid factors")
        return (x, t) + best

    def propose(self, base_unit: np.ndarray, t_now: float, rng) -> np.ndarray:
        """Maximizes UCB over random candidates near and across the cube."""
        if len(self.observations) < 2:
            raise RuntimeError("GP degenerate: fewer than 2 observations")
        x, t, ls, chol, alpha = self._fit()
        cand = np.vstack([
            rng.random((128, self.n_dims)),
            np.clip(base_unit + 0.1 * rng.standard_normal((64, self.n_dims)),
                    0, 1),
            base_unit,
        ])
        tc = np.full(len(cand), t_now)
        ks = self._kernel(cand, tc, x, t, ls)
        mean = ks @ alpha
        v = np.linalg.solve(chol, ks.T)
        var = np.clip(1.0 - np.sum(v * v, axis=0), 1e-12, None)
        ucb = mean + UCB_KAPPA * np.sqrt(var)
        return cand[int(np.argmax(ucb))]


# ---------------------------------------------------------------------------
# PB2 operations
# ---------------------------------------------------------------------------

def sample_initial_population(space: HyperParamSpace, n: int,
                              seed: int = 0) -> list[dict]:
    if n < 2:
        raise ValueError("population size must be >= 2")
    rng = np.random.default_rng(seed)
    return [space.sample(rng) for _ in range(n)]


def ready_and_rank(population: list[TrialState], t_ready: int,
                   quantile_fraction: float = 0.5,
                   ) -> tuple[list[TrialState], list[TrialState]]:
    """Splits into top performers (continue) and bottom quantile (perturb).

    Ranks by best validation MSE within the last interval, ties broken by
    trial id.  With an odd population and quantile 0.5, the extra trial goes
    to the perturbed side so that exactly floor(n/2) continue unchanged.
    """
    epochs = {t.epoch for t in population}
    if len(epochs) != 1:
        raise ValueError(f"synchronous ranking requires equal epochs, got {epochs}")
    epoch = epochs.pop()
    if epoch % t_ready != 0:
        raise ValueError(f"trials at epoch {epoch} not at a multiple of {t_ready}")
    since = epoch - t_ready
    ranked = sorted(population,
                    key=lambda t: (t.best_score(since), t.trial_id))
    n = len(ranked)
    n_above = int(np.floor(quantile_fraction * n))
    n_below = int(np.ceil(quantile_fraction * n))
    return ranked[:n_above], ranked[n - n_below:]


def exploit_explore(below_trial: TrialState, above_set: list[TrialState],
                    gp: GpBanditState, space: HyperParamSpace, seed: int,
                    ) -> TrialState:
    """Clone a top checkpoint, then perturb the configuration.

    Continuous dimensions come from the GP-bandit UCB proposal (or a +/-20%
    uniform fallback while the GP is degenerate); categorical and boolean
    dimensions re-sample with a small mutation probability.
    """
    if not above_set:
        raise ValueError("exploit requires a non-empty above set")
    rng = np.random.default_rng(seed)
    source = above_set[int(rng.integers(0, len(above_set)))]
    config = dict(source.config)
    cont = space.continuous
    if cont:
        base_unit = np.array([d.to_unit(config[d.name]) for d in cont])
        try:
            unit = gp.propose(base_unit, float(below_trial.epoch), rng)
        except RuntimeError:
            unit = None
        if unit is not None:
            for d, u in zip(cont, unit):
                config[d.name] = d.from_unit(float(u))
        else:
            for d in cont:
                v = config[d.name] * float(rng.uniform(1 - FALLBACK_SPREAD,
                                                       1 + FALLBACK_SPREAD))
                config[d.name] = d.clip(v)
    for d in space.dimensions:
        if d.kind in ("categorical", "boolean") and \
                rng.random() < MUTATION_PROBABILITY:
            config[d.name] = d.sample(rng)
    clone = TrialState(
        trial_id=below_trial.trial_id,
        config=config,
        epoch=source.epoch,
        checkpoint=copy.deepcopy(source.checkpoint),
        score_history=list(source.score_history),
        lineage=below_trial.lineage + [(source.epoch, source.trial_id)],
    )
    return clone


def _start_search(space: HyperParamSpace, pb2: Pb2Config, budget_epochs: int,
                  seed: int):
    """(rng, initial trials, generation count) of a search of
    ``budget_epochs`` epochs per trial."""
    generations = budget_epochs // pb2.t_ready
    if generations < 1:
        raise ValueError("budget smaller than one perturbation interval")
    rng = np.random.default_rng(seed)
    configs = sample_initial_population(space, pb2.population_size,
                                       int(rng.integers(0, 2 ** 31 - 1)))
    population = [TrialState(i, cfg) for i, cfg in enumerate(configs)]
    return rng, population, generations


def _train_generation(population: list[TrialState], trainable,
                      t_ready: int) -> list[TrialState]:
    """Trains every live trial ``t_ready`` epochs, in place, and returns the
    live ones.  A trial that raises is logged and marked failed, and trains
    no more; a population with no live trial left raises ``RuntimeError``."""
    for i, trial in enumerate(population):
        if trial.failed:
            continue
        try:
            population[i] = trainable(trial, t_ready)
        except Exception as e:  # noqa: BLE001 - trial crash is data
            logger.warning("trial %d failed: %s", trial.trial_id, e)
            trial.failed = True
    alive = [t for t in population if not t.failed]
    if not alive:
        raise RuntimeError("every trial in the population failed")
    return alive


def run_hpo(space: HyperParamSpace, pb2: Pb2Config, budget_epochs: int,
            trainable, seed: int = 0):
    """Full synchronous PB2 loop.

    ``trainable(trial, n_epochs)`` must train the trial for ``n_epochs``,
    advance ``trial.epoch``, refresh ``trial.checkpoint`` and append
    ``(epoch, val_mse)`` rows to ``trial.score_history``; it returns the
    updated trial.  Returns (best TrialState snapshot, history), where history
    has one record per generation including every lineage event.  A trial that
    raises is marked failed and replaced by exploit/explore from the top set.
    """
    rng, population, generations = _start_search(space, pb2, budget_epochs,
                                                  seed)
    gp = GpBanditState(len(space.continuous))
    history = []
    best: tuple[float, TrialState | None] = (np.inf, None)
    for gen in range(generations):
        prev_best = {t.trial_id: t.best_score() for t in population}
        alive = _train_generation(population, trainable, pb2.t_ready)
        for t in alive:
            score = t.best_score(t.epoch - pb2.t_ready)
            if score < best[0]:
                best = (score, copy.deepcopy(t))
            change = prev_best.get(t.trial_id, np.inf) - score
            if space.continuous and np.isfinite(change):
                x = np.array([d.to_unit(t.config[d.name])
                              for d in space.continuous])
                gp.observe(x, float(t.epoch), change)
        above, below = ready_and_rank(alive, pb2.t_ready,
                                      pb2.quantile_fraction)
        replace = {t.trial_id for t in below} | {
            t.trial_id for t in population if t.failed}
        events = []
        for i, trial in enumerate(population):
            if trial.trial_id in replace:
                new = exploit_explore(trial, above or alive[:1], gp, space,
                                      int(rng.integers(0, 2 ** 31 - 1)))
                population[i] = new
                events.append({"trial_id": new.trial_id,
                               "cloned_from": new.lineage[-1][1],
                               "epoch": new.epoch,
                               "config": dict(new.config)})
        history.append({
            "generation": gen,
            "scores": {t.trial_id: t.best_score() for t in alive},
            "lineage_events": events,
        })
    return best[1], history


def random_search(space: HyperParamSpace, pb2: Pb2Config, budget_epochs: int,
                  trainable, seed: int = 0) -> float:
    """Equal-budget random-search baseline; returns the best score seen.

    ``run_hpo``'s set-up and generation step, without exploit or explore.
    """
    _, population, generations = _start_search(space, pb2, budget_epochs,
                                                seed)
    best = np.inf
    for _ in range(generations):
        alive = _train_generation(population, trainable, pb2.t_ready)
        best = min([best] + [t.best_score() for t in alive])
    return float(best)


# ---------------------------------------------------------------------------
# documented synthetic objective for efficacy checks
# ---------------------------------------------------------------------------

def quadratic_trainable(optimum: float = 1e-2, drift: float = 0.002):
    """Synthetic time-varying quadratic objective.

    The score after epoch e is ``(log10(x) - log10(opt(e)))**2`` where x is
    the trial's ``learning_rate`` and ``opt(e) = optimum * (1 + drift)**e``
    drifts slowly upward.  The
    checkpoint carries a cumulative epoch counter array so exploit cloning is
    observable bitwise.
    """

    def run(trial: TrialState, n_epochs: int) -> TrialState:
        x = float(trial.config["learning_rate"])
        for _ in range(n_epochs):
            trial.epoch += 1
            opt = optimum * (1 + drift) ** trial.epoch
            score = (math.log10(x) - math.log10(opt)) ** 2
            trial.score_history.append((trial.epoch, score))
        trial.checkpoint = {
            "epochs_trained": np.array([trial.epoch], dtype=np.float64),
            "x": np.array([x]),
        }
        return trial

    return run
