"""Seeded, parallelizable Monte Carlo engines for every experiment family.

Trials are partitioned into fixed-size chunks; chunk c draws from a generator
seeded by (base_seed, c), so reruns are bit-identical no matter how many
workers execute the chunks or in which order.  `threads` counts worker
processes: above 1, `_run_chunks` shares the chunks between the caller and
forked children.  Inside a chunk, trials advance in lockstep as numpy arrays,
every increment from one sampler's two forms (`increment_sampler`, or
`_lane_sampler` for a batch of laws) and every consensus state through one
slot step (`_slot`) of one schedule, the running sum; every experiment runs
on one engine (`_lockstep`) that takes its per-slot update and stopping rule
and compacts finished trials away.  Every decision test steps one
two-threshold core on it (`sequential_trials`): the sequential test, its
probability-ratio baseline (no gossip, no node column) and the fixed-sample
test (`NEVER_STOPS`, read at its horizon).  All three run through one study
(`_two_law_study`) that steps each chunk's trials of both laws as one batch,
null rows first, into one decision record (`DecisionStudy`).  One CUSUM run
serves a whole threshold grid (`page_run_lengths`).

Ratio-type metrics (variance ratios, consensus coefficients) get their
standard errors from fixed sub-groups of trials; a ratio of covariances is
taken from the covariance pooled over every trial, since a mean of per-group
ratios keeps a bias of order 1/GROUP_SIZE.  Everything that is a plain
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

from .analysis import CUSUM_FAMILIES
from .detectors import SequentialDetector, continuous_time_thresholds
from .network import NetworkTopology
from .stats import Gaussian, HypothesisModel, LogLikelihoodRatio, llr_nonlinearity

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
    first, second = pair_array.T
    for col in idx.T:  # exchange by exchange: all (v, B) indices at once fall out of cache on wide batches
        i = first[col] + base
        j = second[col] + base
        mean = 0.5 * (flat[i] + flat[j])
        flat[i] = mean
        flat[j] = mean


def _chi_square_form(dist, statistic) -> tuple[float, float] | None:
    """(a, scale) of the zero-mean Gaussian LLR under a zero-mean Gaussian dist, a + scale * chi2(1); else None."""
    if isinstance(statistic, LogLikelihoodRatio) and all(
        isinstance(law, Gaussian) and law.mean == 0.0 for law in (dist, statistic.null, statistic.alt)
    ):
        null, alt = statistic.null, statistic.alt
        scale = 0.5 * (1.0 / null.variance - 1.0 / alt.variance) * dist.variance
        return -0.5 * math.log(alt.variance / null.variance), scale
    return None


def increment_sampler(dist, statistic, dof: int = 1):
    """Sampler of statistic increments under law dist, each summed over dof sensors.

    dof is M for the fusion-center sum and 1 for one sensor's own increment.
    The log-likelihood ratio of two zero-mean Gaussians, sampled under either,
    admits an exact sufficient form (`_chi_square_form`): the summed increment
    is affine in a chi-square draw with dof degrees of freedom, a squared
    standard normal at dof 1 (about 3x cheaper than chisquare(1)).  Any other
    statistic has no summed form, so it takes dof 1: an increment is the
    statistic of one raw draw.
    """
    form = _chi_square_form(dist, statistic)
    if form is not None:
        a, scale = form

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
    if dof != 1:
        raise ValueError(f"only the zero-mean Gaussian log-likelihood ratio sums over sensors, got dof {dof}")
    return lambda rng, shape: statistic(dist.sample(rng, shape))


def _lane_sampler(laws, statistic, size: int):
    """Sampler draw(rng, alive, shape) of one slot's increments for the live rows alive of a batch of laws.

    The batch holds size trials of each law, law k's in rows k * size to
    (k + 1) * size - 1.  One draw serves every live row, in `increment_sampler`'s
    forms at dof 1 with a per-row column: in the chi-square form each row takes
    its own law's scale; otherwise a row's raw draw is the first law's moved by
    its own law's shift, which needs a location family (else ValueError).
    """
    forms = [_chi_square_form(law, statistic) for law in laws]
    if all(form is not None for form in forms):
        a = forms[0][0]  # the statistic's alone, the same for every law
        scale = np.repeat([form[1] for form in forms], size)[:, None]

        def draw(rng: np.random.Generator, alive: np.ndarray, shape) -> np.ndarray:
            out = rng.standard_normal(shape)
            np.square(out, out=out)
            out *= scale[alive]
            out += a
            return out

        return draw
    base = laws[0]
    if any(law != base.at(law.mean) for law in laws):
        raise ValueError(f"one batch of raw draws needs its laws to be one location family, got {laws}")
    shift = np.repeat([law.mean - base.mean for law in laws], size)[:, None]

    def draw(rng: np.random.Generator, alive: np.ndarray, shape) -> np.ndarray:
        x = base.sample(rng, shape)
        x += shift[alive]
        return statistic(x)

    return draw


def _slot(rng, topology: NetworkTopology, v: int, states: np.ndarray, sample,
          include_new_sample: bool) -> tuple[np.ndarray, np.ndarray]:
    """The one lockstep consensus slot for a batch of trials: returns (states, t).

    Draws v admissible pairs per trial, then t = sample(rng, states.shape),
    then steps the running sum: W (s + M t) with the new sample exchanged,
    otherwise W s + M t, gossiping the given states in place.  From rest the
    nodes' mean is the fusion center's sum of t; divided by n M after slot
    n, the states are the averaging schedule's under either form.
    """
    idx = _pair_draws(rng, topology, v, states.shape[0])
    t = sample(rng, states.shape)
    M = states.shape[1]
    if include_new_sample:
        # s + M t bit for bit, in one temporary: wide batches churn the heap less
        mixed = M * t
        mixed += states
        states = mixed
    if idx is not None:
        _gossip_batch(states, topology.pair_array, idx)
    return (states if include_new_sample else states + M * t), t


# ---------------------------------------------------------------------------
# Covariance of the state vector and the consensus metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceStudy:
    """Per-slot gamma and rho with their standard errors from groups of trials, and the pooled covariance."""

    covariance: np.ndarray  # pooled (n_max, M, M) of the averaging state: summed per chunk, then over chunks in order
    gamma_est: np.ndarray
    gamma_se: np.ndarray
    rho_est: np.ndarray
    rho_se: np.ndarray


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

    That state is the running sum (`_slot`) over n M, stepped on `_lockstep`
    to n_max: the sum is centered by its known mean n M mu rather than the
    sample mean, which removes a bias term, and gamma is scaled by n M
    sigma^2.  The per-slot summaries average gamma over nodes and rho over
    admissible pairs.  gamma is the mean of its per-group values and rho, a
    ratio, that of the pooled covariance (a mean of per-group ratios keeps a
    bias of order 1/GROUP_SIZE); both take standard errors from the
    per-group spread.  Each chunk reduces a slot as soon as it is stepped,
    into per-group gamma and rho and the pooled sum, so memory is
    O(trials / GROUP_SIZE * n_max + n_max * M^2).
    """
    if trials < 2:
        raise ValueError(f"covariance estimation needs >= 2 trials, got {trials}")
    dist = dist if dist is not None else Gaussian(0.0, 1.0)
    M = topology.M
    n_m = np.arange(1, n_max + 1, dtype=float) * M  # at each slot, the running sum over the averaging state
    pi, pj = topology.pair_array.T

    def worker(chunk_index: int, size: int, rng: np.random.Generator):
        # group size shrinks with small chunks so several groups back the
        # standard errors even at tiny trial counts
        group = max(2, min(GROUP_SIZE, size // 10)) if size >= 4 else size
        full, tail = divmod(size, group)  # full groups, then a ragged last one of tail trials
        sizes = np.array([group] * full + [tail] * (tail > 0), dtype=float)[:, None, None]
        products = np.empty((sizes.size, M, M))
        pooled = np.empty((n_max, M, M))
        gamma, rho = np.empty((2, sizes.size, n_max))

        def advance(slot: int, alive: np.ndarray, lanes: list[np.ndarray]) -> None:
            lanes[0], _ = _slot(rng, topology, v, lanes[0], dist.sample, include_new_sample)
            centered = lanes[0] - n_m[slot - 1] * dist.mean
            blocks = centered[:full * group].reshape(full, group, M)
            np.matmul(blocks.transpose(0, 2, 1), blocks, out=products[:full])
            if tail:
                np.matmul(centered[full * group:].T, centered[full * group:], out=products[full])
            pooled[slot - 1] = products.sum(axis=0)
            group_cov = products / sizes
            diag = np.diagonal(group_cov, axis1=1, axis2=2)
            gamma[:, slot - 1] = diag.mean(axis=1) / (n_m[slot - 1] * dist.var)
            rho[:, slot - 1] = (2.0 * group_cov[:, pi, pj] / (diag[:, pi] + diag[:, pj])).mean(axis=1)

        _lockstep(size, n_max, advance, [np.zeros((size, M))])
        return gamma, rho, pooled

    def summary(groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot mean over the groups and its standard error (0 from one group)."""
        se = groups.std(axis=0, ddof=1) / math.sqrt(len(groups)) if len(groups) > 1 else np.zeros(n_max)
        return groups.mean(axis=0), se

    results = _run_chunks(trials, seed, threads, worker)
    (gamma_est, gamma_se), (_, rho_se) = (summary(np.concatenate([r[k] for r in results])) for k in (0, 1))
    covariance = sum(r[2] for r in results) / trials / (n_m**2)[:, None, None]
    diag = np.diagonal(covariance, axis1=1, axis2=2)
    rho_est = (2.0 * covariance[:, pi, pj] / (diag[:, pi] + diag[:, pj])).mean(axis=1)
    return CovarianceStudy(covariance=covariance, gamma_est=gamma_est, gamma_se=gamma_se,
                           rho_est=rho_est, rho_se=rho_se)


# ---------------------------------------------------------------------------
# Decisions under both laws: the fixed-sample and the sequential tests
# ---------------------------------------------------------------------------

_DEC_NONE, _DEC_H0, _DEC_H1 = 0, 1, 2


@dataclass(frozen=True)
class DecisionOutcome:
    """One statistic source under one law: its mean stopping slot (n for a fixed-sample test) and H1 frequency."""

    mean_n: Estimate
    declare_h1: Estimate  # fraction declaring H1 among non-truncated trials

    @staticmethod
    def from_trials(stop: np.ndarray, dec: np.ndarray) -> "DecisionOutcome":
        ok = dec != _DEC_NONE
        truncated = int((~ok).sum())
        return DecisionOutcome(
            mean_n=Estimate.from_samples(stop[ok], truncated=truncated),
            declare_h1=Estimate.from_bernoulli(int((dec == _DEC_H1).sum()), int(ok.sum()), truncated),
        )


@dataclass(frozen=True)
class DecisionStudy:
    """Outcomes under each hypothesis, by statistic source: p_f is under_null's declare_h1, p_d under_alt's."""

    under_null: dict[str, DecisionOutcome]
    under_alt: dict[str, DecisionOutcome]

    def summary(self, source: str) -> tuple[Estimate, Estimate]:
        """(E[N], P_e = (p_f + 1 - p_d)/2) of one source over both laws; one law's trials, both's truncations."""
        null, alt = self.under_null[source], self.under_alt[source]
        trials = null.mean_n.count + null.mean_n.truncated_count
        truncated = null.mean_n.truncated_count + alt.mean_n.truncated_count
        en = 0.5 * (null.mean_n.value + alt.mean_n.value)
        pe = 0.5 * (null.declare_h1.value + (1.0 - alt.declare_h1.value))
        return (Estimate(en, 0.5 * math.hypot(null.mean_n.std_err, alt.mean_n.std_err), trials, truncated),
                Estimate(pe, 0.5 * math.hypot(null.declare_h1.std_err, alt.declare_h1.std_err), trials, truncated))


def _two_law_study(model: HypothesisModel, sources: tuple[str, ...], trials: int, seed: int, threads: int,
                   run) -> DecisionStudy:
    """Outcomes by source of run(laws, size, rng) -> (stops, decs) under the null and the alternative law.

    laws is (model.null, model.alt): each chunk steps size trials of each law
    as one batch (`sequential_trials`), whose rows are the null law's trials,
    then the alternative's, so each chunk's rows split in half by law;
    column k of stops and decs belongs to sources[k].
    """
    results = _run_chunks(trials, seed, threads, lambda index, size, rng: run((model.null, model.alt), size, rng))

    def collect(half: int) -> dict[str, DecisionOutcome]:
        stops, decs = (np.concatenate([np.split(r[part], 2)[half] for r in results]) for part in (0, 1))
        return {source: DecisionOutcome.from_trials(stops[:, col], decs[:, col])
                for col, source in enumerate(sources)}

    return DecisionStudy(under_null=collect(0), under_alt=collect(1))


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
) -> DecisionStudy:
    """The fixed-sample test of the centralized and one node's statistic at slot n.

    Every trial runs `sequential_trials` with a test that never stops, to
    slot n, and declares H1 where its statistic is then at or above
    threshold, so declare_h1 is the false-alarm frequency under the null and
    the detection frequency under the alternative.  Within a trial the two
    statistics share the same sample stream; they are coupled by construction.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")

    def run(laws, size: int, rng: np.random.Generator):
        last = deque(maxlen=1)  # the last slot's statistics, every trial still live
        sequential_trials(laws, nonlinearity, topology, v, NEVER_STOPS, n, [node], size, rng, record=last.append)
        above = last[0] >= threshold
        return np.full(above.shape, n), np.where(above, _DEC_H1, _DEC_H0)

    return _two_law_study(model, ("centralized", "node"), trials, seed, threads, run)


# ---------------------------------------------------------------------------
# Sequential stopping times
# ---------------------------------------------------------------------------

NEVER_STOPS = SequentialDetector(eta_r=0.0, a_r=-math.inf, b_r=math.inf)  # no drift: each column is its sum


def sequential_trials(laws, statistic, topology: NetworkTopology, v: int, detector: SequentialDetector,
                      max_n: int, nodes, size: int, rng: np.random.Generator, record=None, *,
                      include_new_sample: bool = True):
    """Stopping slots and decisions, by row and column, of size trials of the sequential test under each of laws.

    The trials step as one batch on one sample stream: rows k * size to
    (k + 1) * size - 1 are law k's trials, and each slot makes one draw for
    every live trial (`_lane_sampler`).  Column 0 is the centralized
    statistic, the sum of every increment, and column 1 + k the state of
    nodes[k], each less the slot's drift n M eta_r.  A column stops at the
    first slot where it leaves (a_r, b_r), declaring H1 above and H0 below; a
    trial finishes once every column has stopped.  A column still inside at
    max_n keeps stop and decision 0.  record(values), if given, sees each
    slot's (live, columns) statistics.  include_new_sample picks the update
    form of `_slot`.
    """
    draw = _lane_sampler(laws, statistic, size)
    nodes = np.asarray(nodes, dtype=np.intp)  # once, not at every slot's indexing; [] alone would be float
    stops = np.zeros((len(laws) * size, 1 + nodes.size), dtype=np.int64)
    decs = np.zeros(stops.shape, dtype=np.int8)

    def advance(slot: int, alive: np.ndarray, lanes: list[np.ndarray]) -> np.ndarray | None:
        states, t = _slot(rng, topology, v, lanes[0], lambda rng, shape: draw(rng, alive, shape),
                          include_new_sample)
        lanes[0] = states
        lanes[1] += t.sum(axis=1, keepdims=True)
        values = np.concatenate((lanes[1], states[:, nodes]), axis=1) - slot * topology.M * detector.eta_r
        if record is not None:
            record(values)
        undecided = lanes[2]
        above = values >= detector.b_r
        hit = (above | (values <= detector.a_r)) & undecided
        if not hit.any():
            return None
        rows, cols = np.nonzero(hit)
        decs[alive[rows], cols] = np.where(above[rows, cols], _DEC_H1, _DEC_H0)
        stops[alive[rows], cols] = slot
        undecided &= ~hit
        return ~undecided.any(axis=1)

    total = len(stops)
    _lockstep(total, max_n, advance, [np.zeros((total, topology.M)), np.zeros((total, 1)), np.ones(stops.shape, bool)])
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
) -> DecisionStudy:
    """Stopping times and decisions of the centralized and one node's sequential test (`sequential_trials`)."""
    return _two_law_study(model, ("centralized", "node"), trials, seed, threads,
                          lambda laws, size, rng: sequential_trials(
                              laws, nonlinearity, topology, v, detector, max_n, [node], size, rng))


# ---------------------------------------------------------------------------
# CUSUM run lengths (false-alarm intervals and detection delays)
# ---------------------------------------------------------------------------

def page_run_lengths(
    model: HypothesisModel,
    mode: str,
    gammas,
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
    """Level-major first-crossing slots (K * trials,) of the reset-at-zero statistic at K ascending thresholds.

    Level k's per-trial slots are entries k * trials onward, so one level gives
    one per-trial array (the form `bench/tracing.py` counts lane-slots from).
    mode names one of the CUSUM_FAMILIES.  False-alarm experiments run
    entirely under the pre-change law (under="null"); detection-delay
    experiments start the statistic at zero at the change (under="alt").  Each
    lane carries its next uncrossed level and finishes past the largest, whose
    slots are thus bit for bit a one-level run's; only the lanes that cross in
    a slot look up how many levels they passed (a bank lane by its largest
    sensor).  A zero entry marks a level not crossed by max_n.
    """
    if mode not in CUSUM_FAMILIES:
        raise ValueError(f"unknown run-length mode: {mode}")
    if mode == "running" and topology is None:
        raise ValueError("running mode needs a topology")
    levels = np.asarray(gammas, dtype=float)
    if levels.ndim != 1 or not levels.size or np.any(np.diff(levels) < 0.0):
        raise ValueError(f"thresholds must be a nonempty ascending grid, got {gammas}")
    if mode == "running":
        M = topology.M
    K, gamma, lower = levels.size, float(levels[0]), np.arange(levels.size - 1)
    dist = model.null if under == "null" else model.alt
    draw = increment_sampler(dist, llr_nonlinearity(model), M if mode == "centralized" else 1)

    def worker(chunk_index: int, size: int, rng: np.random.Generator):
        below = np.zeros((K - 1, size), dtype=np.int64)  # the crossing slots of every level but the largest

        def advance(slot: int, alive: np.ndarray, lanes: list[np.ndarray]) -> np.ndarray | None:
            if mode == "running":  # gossip the updated statistic, then reset
                states, _ = _slot(rng, topology, v, lanes[0], draw, True)
                lanes[0] = np.maximum(0.0, states, out=states)
                stat = states[:, node]
            else:
                stat = lanes[0]  # (live,), or (live, M) for the bank
                stat += draw(rng, stat.shape)
                np.maximum(0.0, stat, out=stat)
            level = gamma if K == 1 else lanes[1]  # one level: a compare against one scalar, no level lane
            hit = stat >= (level if stat.ndim == 1 or K == 1 else level[:, None])
            if not hit.any():  # most slots have no crossing, and this is far cheaper than any(axis=1)
                return None
            crossed = hit if hit.ndim == 1 else hit.any(axis=1)
            if K == 1:
                return crossed
            rows = np.flatnonzero(crossed)
            past = np.searchsorted(levels, stat[rows] if stat.ndim == 1 else stat[rows].max(axis=1), side="right")
            first = np.searchsorted(levels, level[rows])
            row, col = np.nonzero((first[:, None] <= lower) & (lower < past[:, None]))
            below[col, alive[rows[row]]] = slot
            level[rows] = levels[np.minimum(past, K - 1)]
            crossed[rows[past < K]] = False  # only a lane past the largest level finishes
            return crossed if crossed.any() else None

        lanes = [np.zeros((size, M) if mode in ("running", "bank") else size)]
        if K > 1:
            lanes.append(np.full(size, gamma))
        return np.vstack((below, _lockstep(size, max_n, advance, lanes)))

    return np.concatenate(_run_chunks(trials, seed, threads, worker), axis=1).ravel()


# ---------------------------------------------------------------------------
# Classic probability-ratio sequential test (fusion-center baseline)
# ---------------------------------------------------------------------------

def estimate_sprt_stopping(
    model: HypothesisModel,
    topology: NetworkTopology,
    p_f: float,
    p_d: float,
    trials: int,
    seed: int,
    *,
    max_n: int,
    threads: int = 1,
) -> DecisionStudy:
    """Exact log-likelihood-ratio test with the classic threshold pair.

    `sequential_trials` without gossip, node columns or drift: the cumulative
    ratio over all topology.M per-slot samples is compared against
    log(p_d/p_f) above and log((1-p_d)/(1-p_f)) below, the Wiener limit's
    exit levels at unit efficacy.  Its one statistic source is the fusion
    center's, "centralized".
    """
    detector = SequentialDetector(0.0, *continuous_time_thresholds(p_f, p_d, 1.0))
    return _two_law_study(model, ("centralized",), trials, seed, threads,
                          lambda laws, size, rng: sequential_trials(
                              laws, llr_nonlinearity(model), topology, 0, detector, max_n, [], size, rng))
