"""Seeded, parallelizable Monte Carlo engines for every experiment family.

Trials are partitioned into fixed-size chunks; chunk c draws from a generator
seeded by (base_seed, c), so reruns are bit-identical no matter how many
workers execute the chunks or in which order.  `threads` counts worker
processes: above 1, `_run_chunks` shares the chunks between the caller and
forked children.  Inside a chunk, trials advance in lockstep as numpy arrays,
every consensus state through one slot step (`_slot`); every stopping
experiment runs on one engine (`_lockstep`) that takes its per-slot update and
stopping rule and compacts finished trials away.

Ratio-type metrics (variance ratios, consensus coefficients) get their
standard errors from fixed sub-groups of trials; everything that is a plain
per-trial average gets the exact sample standard error.  Truncated trials are
counted separately and never folded into means.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import signal
from collections import deque
from dataclasses import dataclass

import numpy as np

from .consensus import WeightMode, step_weights
from .detectors import SequentialDetector
from .network import NetworkTopology
from .stats import Gaussian, HypothesisModel, llr_nonlinearity

CHUNK_SIZE = 2500
GROUP_SIZE = 50
_PR_SET_PDEATHSIG = 1  # prctl option, linux/prctl.h


@dataclass(frozen=True)
class Estimate:
    value: float
    std_err: float
    count: int
    truncated_count: int = 0

    def __post_init__(self) -> None:
        if self.std_err < 0.0:
            raise ValueError("std_err must be nonnegative")

    @staticmethod
    def from_samples(samples: np.ndarray, truncated: int = 0) -> "Estimate":
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        if n == 0:
            return Estimate(float("nan"), 0.0, 0, truncated)
        se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return Estimate(float(samples.mean()), se, n, truncated)

    @staticmethod
    def from_bernoulli(successes: int, count: int, truncated: int = 0) -> "Estimate":
        if count == 0:
            return Estimate(float("nan"), 0.0, 0, truncated)
        p = successes / count
        return Estimate(p, math.sqrt(p * (1.0 - p) / count), count, truncated)

    @staticmethod
    def from_run_lengths(stops: np.ndarray) -> "Estimate":
        """Mean of the finished run lengths; a zero entry marks a truncated trial."""
        finished = stops > 0
        return Estimate.from_samples(stops[finished], truncated=int((~finished).sum()))


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Deterministic substream for one chunk of trials."""
    return np.random.default_rng((seed, chunk_index))


def _chunk_plan(trials: int) -> list[tuple[int, int]]:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    chunks = math.ceil(trials / CHUNK_SIZE)
    return [(index, min(CHUNK_SIZE, trials - index * CHUNK_SIZE)) for index in range(chunks)]


def _run_chunks(trials: int, seed: int, threads: int, worker):
    """Run worker(chunk_index, size, rng) over all chunks; ordered results.

    With threads > 1 the chunks are dealt round-robin to that many workers,
    capped by the chunk count and the usable CPUs.  The caller runs share 0
    itself and forks one child per other share (Linux): a child inherits the
    worker, closures included, and sends back only its pickled results, or the
    exception it raised, which the caller re-raises.  Every child is reaped
    before this returns or raises, and one still running then is killed.
    """
    plan = _chunk_plan(trials)
    workers = min(threads, len(plan))
    if workers > 1:  # serial runs never reach the Linux-only calls
        workers = min(workers, len(os.sched_getaffinity(0)))

    def run(share: list[tuple[int, int]]) -> list:
        return [worker(index, size, chunk_rng(seed, index)) for index, size in share]

    if workers <= 1:
        return run(plan)
    children: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        for share in range(1, workers):
            pid, read_end = _fork_share(run, plan[share::workers])
            children[pid] = read_end
        results = [run(plan[0::workers])]
        for pid, read_end in list(children.items()):
            with open(read_end, "rb", closefd=False) as pipe:
                message = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            if not message:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"chunk worker {pid} exited with code {code} and sent no result")
            ok, result = pickle.loads(message)
            if not ok:
                raise result
            results.append(result)
    finally:
        for pid, read_end in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
    return [results[slot % workers][slot // workers] for slot in range(len(plan))]


def _fork_share(run, share: list[tuple[int, int]]) -> tuple[int, int]:
    """Fork a child that runs one share of chunks; returns (pid, read end)."""
    read_end, write_end = os.pipe()
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:  # the child never returns into the caller's stack
        os.close(read_end)
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)  # so no child outlives a killed caller
        if os.getppid() == parent:  # else the caller died before prctl took hold
            try:
                message = (True, run(share))
            except Exception as exc:
                message = (False, exc)
            payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)  # whole first: a failure here sends nothing
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
            status = 0
    finally:
        os._exit(status)


def _lockstep(size: int, max_n: int, advance, lanes: list[np.ndarray]) -> np.ndarray:
    """Step a chunk's trials in lockstep, compacting finished ones away.

    lanes holds per-trial arrays of the live trials only, trials on axis 0.
    advance(slot, alive, lanes) moves them through one slot, in place or by
    rebinding lanes[k], and returns the mask, over alive (their indices into
    the chunk), of those that finished in it, or None when none did; only
    then are alive and every lane compacted.  Returns each trial's finishing
    slot, 0 for a trial still live at max_n.
    """
    stop = np.zeros(size, dtype=np.int64)
    alive = np.arange(size)
    slot = 0
    while alive.size and slot < max_n:
        slot += 1
        done = advance(slot, alive, lanes)
        if done is not None:
            stop[alive[done]] = slot
            rows = np.flatnonzero(~done)  # take by index beats both mask forms on 1-D and 2-D lanes
            alive = alive.take(rows)
            lanes[:] = [lane.take(rows, axis=0) for lane in lanes]
    return stop


def _finished(hit: np.ndarray) -> np.ndarray | None:
    """Per-trial crossing mask of a (trials,) or (trials, k) test; None if nothing crossed."""
    if not hit.any():  # most slots have no crossing, and this is far cheaper than any(axis=1)
        return None
    return hit if hit.ndim == 1 else hit.any(axis=1)


def _pair_draws(rng: np.random.Generator, topology: NetworkTopology, v: int, lanes: int):
    """Indices into topology.pair_array of v exchanges per lane; None without gossip."""
    if topology.M > 1 and v > 0:
        return rng.integers(0, len(topology.pairs), size=(lanes, v))
    return None


def _gossip_batch(states: np.ndarray, pair_array: np.ndarray, idx: np.ndarray) -> None:
    """Apply per-trial sequences of pairwise averages in place.

    states has shape (B, M) and must be C-contiguous, since the averages are
    written through its flat view; idx has shape (B, v) and indexes
    pair_array.  Column k is applied before column k+1, so each row ends as
    the product W_v ... W_1 of its pairwise averaging matrices applied to it.
    """
    if not states.flags.c_contiguous:
        raise ValueError("gossip needs C-contiguous states")
    B, M = states.shape
    flat = states.reshape(-1)
    base = np.arange(0, B * M, M)
    for i, j in zip(pair_array[:, 0][idx.T] + base, pair_array[:, 1][idx.T] + base):
        mean = 0.5 * (flat[i] + flat[j])
        flat[i] = mean
        flat[j] = mean


def _slot(rng, topology: NetworkTopology, v: int, states: np.ndarray, sample, n: int,
          mode: WeightMode, include_new_sample: bool) -> tuple[np.ndarray, np.ndarray]:
    """The one lockstep consensus slot for a batch of trials: returns (states, t).

    Draws v admissible pairs per trial, then t = sample(rng, states.shape),
    then mixes.  With the new sample exchanged the result is
    W (alpha s + beta t); otherwise alpha W s + beta t, gossiping the given
    states in place.
    """
    idx = _pair_draws(rng, topology, v, states.shape[0])
    t = sample(rng, states.shape)
    alpha, beta = step_weights(mode, n, states.shape[1])
    if include_new_sample:
        states = alpha * states + beta * t
    if idx is not None:
        _gossip_batch(states, topology.pair_array, idx)
    return (states if include_new_sample else alpha * states + beta * t), t


def consensus_paths(rng, topology: NetworkTopology, v: int, lanes: int, n_max: int, sample,
                    mode: WeightMode, include_new_sample: bool):
    """Yield (n, states, csum) after each of slots 1..n_max of lanes trials from rest.

    csum is each trial's running sum of t over nodes and slots, the
    fusion center's statistic before weighting.
    """
    states = np.zeros((lanes, topology.M))
    csum = np.zeros(lanes)
    for n in range(1, n_max + 1):
        states, t = _slot(rng, topology, v, states, sample, n, mode, include_new_sample)
        csum += t.sum(axis=1)
        yield n, states, csum


# ---------------------------------------------------------------------------
# Covariance of the state vector and the consensus metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceStudy:
    n: np.ndarray
    covariance: np.ndarray  # pooled (n_max, M, M)
    gamma_est: np.ndarray
    gamma_se: np.ndarray
    rho_est: np.ndarray
    rho_se: np.ndarray
    trials: int


def estimate_covariance(
    topology: NetworkTopology,
    v: int,
    n_max: int,
    trials: int,
    seed: int,
    *,
    include_new_sample: bool = False,
    dist: Gaussian | None = None,
    threads: int = 1,
) -> CovarianceStudy:
    """Sample covariance of the averaging-schedule state across trials at every slot.

    States are centered by the known mean of dist rather than the sample
    mean, which removes a bias term; gamma is scaled by dist's variance.  The
    per-slot summaries average gamma over nodes and rho over admissible pairs.
    """
    if trials < 2:
        raise ValueError(f"covariance estimation needs >= 2 trials, got {trials}")
    dist = dist if dist is not None else Gaussian(0.0, 1.0)
    M = topology.M

    def worker(chunk_index: int, size: int, rng: np.random.Generator):
        # group size shrinks with small chunks so several groups back the
        # standard errors even at tiny trial counts
        group = max(2, min(GROUP_SIZE, size // 10)) if size >= 4 else size
        n_groups = math.ceil(size / group)
        sums = np.zeros((n_groups, n_max, M, M))
        bounds = [(g * group, min((g + 1) * group, size)) for g in range(n_groups)]
        paths = consensus_paths(rng, topology, v, size, n_max, dist.sample, WeightMode.AVERAGING, include_new_sample)
        for n, states, _ in paths:
            centered = states - dist.mean
            for g, (lo, hi) in enumerate(bounds):
                block = centered[lo:hi]
                sums[g, n - 1] += block.T @ block
        sizes = np.array([hi - lo for lo, hi in bounds], dtype=float)
        return sums, sizes

    results = _run_chunks(trials, seed, threads, worker)
    group_sums = np.concatenate([r[0] for r in results], axis=0)
    group_sizes = np.concatenate([r[1] for r in results], axis=0)

    slots = np.arange(1, n_max + 1, dtype=float)
    sigma2_n = dist.var / (slots * M)

    group_cov = group_sums / group_sizes[:, None, None, None]
    diag = np.einsum("gnii->gni", group_cov)
    gamma_groups = diag.mean(axis=2) / sigma2_n[None, :]

    pi = topology.pair_array[:, 0]
    pj = topology.pair_array[:, 1]
    cij = group_cov[:, :, pi, pj]
    cii = diag[:, :, pi]
    cjj = diag[:, :, pj]
    rho_groups = (2.0 * cij / (cii + cjj)).mean(axis=2)

    n_groups = group_sizes.size
    gamma_est = gamma_groups.mean(axis=0)
    rho_est = rho_groups.mean(axis=0)
    if n_groups > 1:
        gamma_se = gamma_groups.std(axis=0, ddof=1) / math.sqrt(n_groups)
        rho_se = rho_groups.std(axis=0, ddof=1) / math.sqrt(n_groups)
    else:
        gamma_se = np.zeros_like(gamma_est)
        rho_se = np.zeros_like(rho_est)

    pooled = group_sums.sum(axis=0) / trials
    return CovarianceStudy(
        n=slots.astype(int),
        covariance=pooled,
        gamma_est=gamma_est,
        gamma_se=gamma_se,
        rho_est=rho_est,
        rho_se=rho_se,
        trials=trials,
    )


# ---------------------------------------------------------------------------
# Consensus error moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorMomentStudy:
    slots: np.ndarray
    second_moment: list[Estimate]  # per requested slot, pooled over nodes
    third_abs_moment: list[Estimate]


def estimate_error_moments(
    topology: NetworkTopology,
    v: int,
    slots,
    trials: int,
    seed: int,
    *,
    dist: Gaussian | None = None,
    threads: int = 1,
) -> ErrorMomentStudy:
    """Empirical E[e^2] and E[|e|^3] of the accumulating-schedule error."""
    dist = dist if dist is not None else Gaussian(0.0, 1.0)
    slots = np.asarray(sorted(slots), dtype=int)
    n_max = int(slots.max())

    def worker(chunk_index: int, size: int, rng: np.random.Generator):
        out2 = np.zeros((slots.size, size))
        out3 = np.zeros((slots.size, size))
        pos = 0
        paths = consensus_paths(rng, topology, v, size, n_max, dist.sample, WeightMode.ACCUMULATING, True)
        for n, states, csum in paths:
            if pos < slots.size and n == slots[pos]:
                err = states - csum[:, None]
                out2[pos] = (err ** 2).mean(axis=1)
                out3[pos] = (np.abs(err) ** 3).mean(axis=1)
                pos += 1
        return out2, out3

    results = _run_chunks(trials, seed, threads, worker)
    second = np.concatenate([r[0] for r in results], axis=1)
    third = np.concatenate([r[1] for r in results], axis=1)
    return ErrorMomentStudy(
        slots=slots,
        second_moment=[Estimate.from_samples(second[k]) for k in range(slots.size)],
        third_abs_moment=[Estimate.from_samples(third[k]) for k in range(slots.size)],
    )


# ---------------------------------------------------------------------------
# Fixed-sample-size detection probabilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FssStudy:
    threshold: float
    n: int
    p_f: dict[str, Estimate]
    p_d: dict[str, Estimate]


def estimate_error_probabilities(
    model: HypothesisModel,
    nonlinearity,
    topology: NetworkTopology,
    v: int,
    n: int,
    threshold: float,
    trials: int,
    seed: int,
    *,
    node: int = 0,
    threads: int = 1,
    run_null: bool = True,
) -> FssStudy:
    """Empirical false-alarm and detection frequencies at a fixed threshold.

    Within a trial the centralized and node statistics share the same sample
    stream; they are coupled by construction.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    laws = ([("null", model.null)] if run_null else []) + [("alt", model.alt)]

    def worker(chunk_index: int, size: int, rng: np.random.Generator):
        counts = {}
        for label, dist in laws:
            def sample(rng: np.random.Generator, shape) -> np.ndarray:
                return nonlinearity(dist.sample(rng, shape))

            paths = consensus_paths(rng, topology, v, size, n, sample, WeightMode.ACCUMULATING, True)
            _, states, csum = deque(paths, maxlen=1)[0]  # the last slot
            counts[label] = (
                int((csum >= threshold).sum()),
                int((states[:, node] >= threshold).sum()),
            )
        return counts

    results = _run_chunks(trials, seed, threads, worker)
    rates: dict[str, dict[str, Estimate]] = {"null": {}, "alt": {}}
    for label, _ in laws:
        for col, source in enumerate(("centralized", "node")):
            rates[label][source] = Estimate.from_bernoulli(sum(r[label][col] for r in results), trials)
    return FssStudy(threshold=threshold, n=n, p_f=rates["null"], p_d=rates["alt"])


# ---------------------------------------------------------------------------
# Sequential stopping times
# ---------------------------------------------------------------------------

_DEC_NONE, _DEC_H0, _DEC_H1 = 0, 1, 2


@dataclass(frozen=True)
class SequentialOutcome:
    """Per-hypothesis outcome for one statistic source."""

    mean_n: Estimate
    declare_h1: Estimate  # fraction declaring H1 among non-truncated trials

    @staticmethod
    def from_trials(stop: np.ndarray, dec: np.ndarray) -> "SequentialOutcome":
        ok = dec != _DEC_NONE
        truncated = int((~ok).sum())
        return SequentialOutcome(
            mean_n=Estimate.from_samples(stop[ok], truncated=truncated),
            declare_h1=Estimate.from_bernoulli(int((dec == _DEC_H1).sum()), int(ok.sum()), truncated),
        )


@dataclass(frozen=True)
class SequentialStudy:
    """Outcomes under each hypothesis, by statistic source."""

    under_null: dict[str, SequentialOutcome]
    under_alt: dict[str, SequentialOutcome]

    def error_probability(self, source: str = "centralized") -> float:
        """Symmetric error summary (p_f + 1 - p_d)/2 for one source."""
        p_f = self.under_null[source].declare_h1.value
        p_d = self.under_alt[source].declare_h1.value
        return 0.5 * (p_f + (1.0 - p_d))

    def error_probability_std_err(self, source: str = "centralized") -> float:
        null, alt = self.under_null[source].declare_h1, self.under_alt[source].declare_h1
        return 0.5 * math.hypot(null.std_err, alt.std_err)

    def mean_sample_number(self, source: str = "centralized") -> float:
        """Symmetric average of the expected stopping times."""
        return 0.5 * (self.under_null[source].mean_n.value + self.under_alt[source].mean_n.value)

    def mean_sample_number_std_err(self, source: str = "centralized") -> float:
        null, alt = self.under_null[source].mean_n, self.under_alt[source].mean_n
        return 0.5 * math.hypot(null.std_err, alt.std_err)

    def truncated_count(self, source: str = "centralized") -> int:
        return self.under_null[source].mean_n.truncated_count + self.under_alt[source].mean_n.truncated_count


def _sequential_trials(dist, nonlinearity, topology, v, detector, size, rng, max_n, node):
    """Per-statistic stopping slots and decisions of one chunk under one law.

    With node=None every node statistic is tracked; otherwise the columns are
    the centralized statistic and the one node statistic.  A trial finishes
    once all of its tracked statistics have left (a_r, b_r).
    """
    M = topology.M
    eta, a_r, b_r = detector.eta_r, detector.a_r, detector.b_r
    width = M if node is None else 2
    stops = np.zeros((size, width), dtype=np.int64)
    decs = np.zeros((size, width), dtype=np.int8)

    def sample(rng: np.random.Generator, shape) -> np.ndarray:
        return nonlinearity(dist.sample(rng, shape))

    def advance(slot: int, alive: np.ndarray, lanes: list[np.ndarray]) -> np.ndarray | None:
        states, csum, undecided = lanes
        states, t = _slot(rng, topology, v, states, sample, slot, WeightMode.ACCUMULATING, True)
        lanes[0] = states
        shift = slot * M * eta
        if node is None:
            values = states - shift
        else:
            csum += t.sum(axis=1)
            values = np.column_stack((csum - shift, states[:, node] - shift))
        upper = values >= b_r
        hit = (upper | (values <= a_r)) & undecided
        if not hit.any():
            return None
        rows, cols = np.nonzero(hit)
        decs[alive[rows], cols] = np.where(upper[rows, cols], _DEC_H1, _DEC_H0)
        stops[alive[rows], cols] = slot
        undecided &= ~hit
        return ~undecided.any(axis=1)

    _lockstep(size, max_n, advance, [np.zeros((size, M)), np.zeros(size), np.ones((size, width), dtype=bool)])
    return stops, decs


def estimate_stopping(
    model: HypothesisModel,
    nonlinearity,
    topology: NetworkTopology,
    v: int,
    detector: SequentialDetector,
    trials: int,
    seed: int,
    *,
    max_n: int,
    node: int = 0,
    threads: int = 1,
) -> SequentialStudy:
    """Stopping times and decisions for the two-threshold sequential test.

    Tracks the centralized statistic and one node statistic on the shared
    sample stream.
    """
    def worker(chunk_index: int, size: int, rng: np.random.Generator):
        return [
            _sequential_trials(dist, nonlinearity, topology, v, detector, size, rng, max_n, node)
            for dist in (model.null, model.alt)
        ]

    results = _run_chunks(trials, seed, threads, worker)

    def collect(which: int) -> dict[str, SequentialOutcome]:
        stops = np.concatenate([r[which][0] for r in results])
        decs = np.concatenate([r[which][1] for r in results])
        return {
            source: SequentialOutcome.from_trials(stops[:, col], decs[:, col])
            for col, source in enumerate(("centralized", "node"))
        }

    return SequentialStudy(under_null=collect(0), under_alt=collect(1))


def node_stopping_spread(
    model: HypothesisModel,
    nonlinearity,
    topology: NetworkTopology,
    v: int,
    detector: SequentialDetector,
    trials: int,
    seed: int,
    *,
    max_n: int,
    threads: int = 1,
) -> np.ndarray:
    """Per-trial relative spread of the per-node stopping times, under H1."""
    def worker(chunk_index: int, size: int, rng: np.random.Generator):
        return _sequential_trials(model.alt, nonlinearity, topology, v, detector, size, rng, max_n, None)

    results = _run_chunks(trials, seed, threads, worker)
    stops = np.concatenate([r[0] for r in results], axis=0)
    decs = np.concatenate([r[1] for r in results], axis=0)
    times = stops[(decs != _DEC_NONE).all(axis=1)]
    return (times.max(axis=1) - times.min(axis=1)) / times.mean(axis=1)


# ---------------------------------------------------------------------------
# CUSUM run lengths (false-alarm intervals and detection delays)
# ---------------------------------------------------------------------------

def _llr_sampler(model: HypothesisModel, under: str, dof: int):
    """Sampler of log-likelihood-ratio increments, each summed over dof sensors.

    dof is M for the fusion-center sum and 1 for one sensor's own increment.
    Zero-mean Gaussian pairs admit an exact sufficient form: the summed
    increment is affine in a chi-square draw with dof degrees of freedom, a
    squared standard normal at dof 1 (about 3x cheaper than chisquare(1)).
    Anything else falls back to sampling dof raw values per increment.
    """
    dist = model.null if under == "null" else model.alt
    null, alt = model.null, model.alt
    if (
        isinstance(null, Gaussian)
        and isinstance(alt, Gaussian)
        and null.mean == 0.0
        and alt.mean == 0.0
    ):
        a = -0.5 * math.log(alt.variance / null.variance)
        b = 0.5 * (1.0 / null.variance - 1.0 / alt.variance)
        scale = b * dist.variance

        def sampler(rng: np.random.Generator, shape) -> np.ndarray:
            # dof * a + scale * chi2, built in place (bit for bit the same)
            if dof == 1:
                out = rng.standard_normal(shape)
                np.square(out, out=out)
            else:
                out = rng.chisquare(float(dof), shape)
            out *= scale
            out += dof * a
            return out

        return sampler

    llr = llr_nonlinearity(model)

    def sampler(rng: np.random.Generator, shape) -> np.ndarray:
        return llr(dist.sample(rng, (*shape, dof))).sum(axis=-1)

    return sampler


def page_run_lengths(
    model: HypothesisModel,
    mode: str,
    gamma: float,
    M: int,
    trials: int,
    seed: int,
    *,
    under: str = "null",
    max_n: int,
    topology: NetworkTopology | None = None,
    v: int = 1,
    node: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """Per-trial first-crossing slots of the reset-at-zero statistic.

    mode is one of "centralized", "single", "bank", "running".  False-alarm
    experiments run entirely under the pre-change law (under="null");
    detection-delay experiments start the statistic at zero at the change
    (under="alt").  A zero entry marks a trial truncated at max_n.
    """
    if mode not in ("centralized", "single", "bank", "running"):
        raise ValueError(f"unknown run-length mode: {mode}")
    if mode == "running" and topology is None:
        raise ValueError("running mode needs a topology")
    if mode == "running":
        M = topology.M
    draw = _llr_sampler(model, under, M if mode == "centralized" else 1)

    def worker(chunk_index: int, size: int, rng: np.random.Generator):
        if mode == "running":  # gossip the updated statistic, then reset

            def advance(slot: int, alive: np.ndarray, lanes: list[np.ndarray]) -> np.ndarray | None:
                states, _ = _slot(rng, topology, v, lanes[0], draw, slot, WeightMode.ACCUMULATING, True)
                lanes[0] = np.maximum(0.0, states, out=states)
                return _finished(states[:, node] >= gamma)

            return _lockstep(size, max_n, advance, [np.zeros((size, M))])

        def advance(slot: int, alive: np.ndarray, lanes: list[np.ndarray]) -> np.ndarray | None:
            block = lanes[0]
            block += draw(rng, block.shape)
            np.maximum(0.0, block, out=block)
            return _finished(block >= gamma)

        return _lockstep(size, max_n, advance, [np.zeros((size, M) if mode == "bank" else size)])

    return np.concatenate(_run_chunks(trials, seed, threads, worker))


# ---------------------------------------------------------------------------
# Classic probability-ratio sequential test (fusion-center baseline)
# ---------------------------------------------------------------------------

def estimate_sprt_stopping(
    model: HypothesisModel,
    M: int,
    p_f: float,
    p_d: float,
    trials: int,
    seed: int,
    *,
    max_n: int,
    threads: int = 1,
) -> SequentialStudy:
    """Exact log-likelihood-ratio test with the classic threshold pair.

    The cumulative ratio over all M per-slot samples is compared against
    log(p_d/p_f) above and log((1-p_d)/(1-p_f)) below.  Its one statistic
    source is the fusion center's, "centralized".
    """
    upper = math.log(p_d / p_f)
    lower = math.log((1.0 - p_d) / (1.0 - p_f))

    def run(under: str, size: int, rng: np.random.Generator):
        draw = _llr_sampler(model, under, M)
        # a finished trial's total is compacted away, so its decision is kept when it crosses
        decs = np.zeros(size, dtype=np.int8)

        def advance(slot: int, alive: np.ndarray, lanes: list[np.ndarray]) -> np.ndarray | None:
            total = lanes[0]
            total += draw(rng, total.shape)
            above = total >= upper
            done = _finished(above | (total <= lower))
            if done is not None:
                decs[alive[done]] = np.where(above[done], _DEC_H1, _DEC_H0)
            return done

        return _lockstep(size, max_n, advance, [np.zeros(size)]), decs

    def worker(chunk_index: int, size: int, rng: np.random.Generator):
        return run("null", size, rng), run("alt", size, rng)

    results = _run_chunks(trials, seed, threads, worker)

    def collect(which: int) -> dict[str, SequentialOutcome]:
        return {"centralized": SequentialOutcome.from_trials(
            np.concatenate([r[which][0] for r in results]),
            np.concatenate([r[which][1] for r in results]),
        )}

    return SequentialStudy(under_null=collect(0), under_alt=collect(1))


# ---------------------------------------------------------------------------
# Sample-based spectral summary for multi-exchange slots
# ---------------------------------------------------------------------------

def estimate_expected_square(
    topology: NetworkTopology, v: int, trials: int, seed: int
) -> np.ndarray:
    """Monte Carlo estimate of E[W W^T] for v pairwise exchanges per slot."""
    rng = chunk_rng(seed, 0)
    M = topology.M
    acc = np.zeros((M, M))
    for _ in range(trials):
        # gossiping the rows of I with one pair sequence gives W^T
        idx = np.repeat(_pair_draws(rng, topology, v, 1), M, axis=0)
        W_T = np.eye(M)
        _gossip_batch(W_T, topology.pair_array, idx)
        acc += W_T.T @ W_T
    return acc / trials
