"""Command-line front end: scenario files in, CSV tables out.

One subcommand per experiment family plus a `reproduce` command that runs a
tag's bundled scenarios, each by the figure runner of its scenario kind; both
take one path in `main`: load, override, check, run.  The fss,
sequential and change experiments compute one set of named estimates per grid
point, {statistic: montecarlo.Estimate}: the subcommand's long table writes
all of them, the reproduce wide table selects fields of some.  All CSV output
uses `.` decimals, `,` separators, LF line endings, a mandatory header row,
and floats printed with 12 significant digits, so identical seeds give
byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from importlib import resources

import numpy as np

from . import analysis, montecarlo, scenario as scn, stats
from .detectors import fss_threshold, sequential_design
from .network import TopologyError, effective_eigenvalues, expected_gossip_matrix
from .scenario import ScenarioError, ScenarioFile
from .stats import QuadratureError

OUT_DIR_ENV = "RUNCONS_OUT_DIR"


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------

def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Stage the table beside path, then move it into place: a failure leaves path as it was."""
    path = resolve_output(path)
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    staged = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(staged, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(",".join(map(format_cell, row)) + "\n" for row in [header, *rows])
        os.replace(staged, path)
    finally:
        if os.path.exists(staged):  # the write failed
            os.unlink(staged)
    print(f"wrote {path}: {len(rows)} rows")


def resolve_output(path: str) -> str:
    """A relative path lands in $RUNCONS_OUT_DIR, the working directory by default."""
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), path)


def with_suffix(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_{suffix}{ext or '.csv'}"


# ---------------------------------------------------------------------------
# Scenario wiring
# ---------------------------------------------------------------------------

def model_from_scenario(sc: ScenarioFile, theta: float | None = None) -> stats.HypothesisModel:
    """The scenario's model; theta (a location parameter) moves its alternative."""
    read = partial(sc.get, "model")
    if read("family") == "variance_change":
        return stats.variance_change_model(read("variance0"), read("variance1"))
    theta0 = read("theta0")
    theta = theta0 if theta is None else theta
    if read("family") == "gaussian":
        return stats.gaussian_shift_model(read("variance"), theta, theta0)
    return stats.mixture_shift_model(read("weight"), read("variance1"), read("variance2"), theta, theta0)


def nonlinearity_from_scenario(sc: ScenarioFile, model: stats.HypothesisModel):
    """The scenario's statistic; the identity where the kind reads none (bounds samples the raw law)."""
    name = sc.get("model", "nonlinearity")
    if name == "score":
        return stats.score_nonlinearity(model)
    if name == "llr":
        return stats.llr_nonlinearity(model)
    return stats.Identity()


# ---------------------------------------------------------------------------
# Trajectory dump (shared by several subcommands)
# ---------------------------------------------------------------------------

def dump_trajectory(sc: ScenarioFile, path: str, v: int, n_slots: int, include_new_sample: bool = True,
                    averaging: bool = False) -> None:
    """One trial's running sums, every node at every slot, under the null law; slot n's over n M if averaging."""
    model = model_from_scenario(sc)
    topology = scn.topology_from_scenario(sc)
    sums = []
    montecarlo.sequential_trials(
        (model.null,), nonlinearity_from_scenario(sc, model), topology, v, montecarlo.NEVER_STOPS, n_slots,
        range(topology.M), 1, montecarlo.chunk_rng(sc.get("montecarlo", "seed"), 10**6), record=sums.append,
        include_new_sample=include_new_sample,
    )
    rows = []
    for n, values in enumerate(sums, 1):
        central, *states = values[0] / (n * topology.M) if averaging else values[0]
        rows += [[n, j, state, central, state - central] for j, state in enumerate(states)]
    write_csv(path, ["n", "node", "state", "centralized", "error"], rows)


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

def run_spectral(sc: ScenarioFile, args) -> None:
    topology = scn.topology_from_scenario(sc)
    summary = expected_gossip_matrix(topology)
    write_csv(
        sc.get("output", "path"), ["kind", "m", "n_pairs", "lambda_U", "lambda_L"],
        [[sc.get("topology", "kind"), topology.M, len(topology.pairs), summary.lambda_U, summary.lambda_L]],
    )
    print(f"lambda_U = {summary.lambda_U:.6f}, lambda_L = {summary.lambda_L:.6f}")


def run_bounds(sc: ScenarioFile, args) -> None:
    topology, v = scn.topology_from_scenario(sc), sc.get("topology", "v")
    n_max, include_new = sc.get("experiment", "n_max"), sc.get("experiment", "include_new_sample")
    lam_u, lam_l = effective_eigenvalues(expected_gossip_matrix(topology), v)
    bounds = analysis.theorem_bounds(lam_u, lam_l, topology.M, n_max, include_new)
    study = montecarlo.estimate_covariance(
        topology, v, n_max, sc.get("montecarlo", "trials"), sc.get("montecarlo", "seed"),
        include_new_sample=include_new, dist=model_from_scenario(sc).null, threads=sc.get("montecarlo", "threads"),
    )
    columns = {
        "n": bounds.n.astype(int), "psi_U": bounds.psi_U, "psi_L": bounds.psi_L,
        "gamma_minus1_lower": bounds.gamma_lower, "gamma_minus1_upper": bounds.gamma_upper,
        "one_minus_rho_lower": bounds.rho_lower, "one_minus_rho_upper": bounds.rho_upper,
        "approx_lower": bounds.approx_B_L, "approx_upper": bounds.approx_B_U,
        "gamma_est": study.gamma_est, "gamma_se": study.gamma_se, "rho_est": study.rho_est, "rho_se": study.rho_se,
    }
    write_csv(sc.get("output", "path"), list(columns), list(zip(*columns.values())))
    if args.dump_trajectory:
        dump_trajectory(sc, args.dump_trajectory, v, min(n_max, 200), include_new, averaging=True)


# ---------------------------------------------------------------------------
# Named estimates: one set per grid point, the long and wide tables write it
# ---------------------------------------------------------------------------

def _write_long(sc: ScenarioFile, key_names: list[str], points: list[tuple]) -> None:
    """One row per grid point and statistic; each point starts (keys, {statistic: Estimate})."""
    label = sc.get("experiment", "label")
    write_csv(
        sc.get("output", "path"),
        ["scenario", *key_names, "statistic", "estimate", "std_err", "n_trials", "n_truncated"],
        [[label, *keys, name, est.value, est.std_err, est.count, est.truncated_count]
         for keys, estimates, *_ in points for name, est in estimates.items()],
    )


def _write_wide(sc: ScenarioFile, key_names: list[str], columns: list[str], points: list[tuple],
                tail_names: tuple[str, ...] = ()) -> None:
    """One row per grid point (keys, {statistic: Estimate}, *tail): its keys, the named columns, its tail."""
    write_csv(
        sc.get("output", "path"), [*key_names, *columns, *tail_names],
        [[*keys, *(_wide_cell(estimates, column) for column in columns), *tail] for keys, estimates, *tail in points],
    )


def _wide_cell(estimates: dict[str, montecarlo.Estimate], column: str):
    """Wide column S is statistic S's estimate, S_se its std_err, n_truncated_X en_X's truncations."""
    if column.startswith("n_truncated_"):
        return estimates["en_" + column.removeprefix("n_truncated_")].truncated_count
    if column.endswith("_se"):
        return estimates[column.removesuffix("_se")].std_err
    return estimates[column].value


def _shared_theta0_moments(sc: ScenarioFile) -> stats.MomentSet | None:
    """Moments at theta0 of the statistic, the same at every theta_r; None for the LLR, which moves with it."""
    model = model_from_scenario(sc, theta=sc.get("model", "theta0"))
    nonlin = nonlinearity_from_scenario(sc, model)
    if isinstance(nonlin, stats.LogLikelihoodRatio):
        return None
    return stats.moments(model, nonlin, model.theta0)


def _fss_points(sc: ScenarioFile) -> list[tuple]:
    """((v, n, threshold), named estimates, p_d_limit) on the (v, n) grid of an fss scenario."""
    topology = scn.topology_from_scenario(sc)
    theta0, gamma_scale, p_f = sc.get("model", "theta0"), sc.get("experiment", "gamma_scale"), sc.get("detector", "p_f")
    shared_m0 = _shared_theta0_moments(sc)
    points = []
    for v in sc.get("experiment", "v_list"):
        for n in sc.get("experiment", "n_list"):
            model = model_from_scenario(sc, theta=theta0 + gamma_scale / math.sqrt(n))
            nonlin = nonlinearity_from_scenario(sc, model)
            m0 = shared_m0 if shared_m0 is not None else stats.moments(model, nonlin, theta0)
            threshold = fss_threshold(p_f, n, m0, topology.M)
            study = montecarlo.estimate_error_probabilities(
                model, nonlin, topology, v, n, threshold, sc.get("montecarlo", "trials"), sc.get("montecarlo", "seed"),
                node=sc.get("detector", "node"), threads=sc.get("montecarlo", "threads"),
            )
            estimates = {f"{name}_{source}": outcomes[source].declare_h1
                         for name, outcomes in (("p_f", study.under_null), ("p_d", study.under_alt))
                         for source in ("centralized", "node")}
            p_d_limit = analysis.fss_asymptotic_pd(p_f, gamma_scale, stats.efficacy(m0, topology.M))
            points.append(((v, n, threshold), estimates, p_d_limit))
    return points


def run_fss(sc: ScenarioFile, args) -> None:
    points = _fss_points(sc)
    _write_long(sc, ["v", "n", "threshold"], points)
    if args.dump_trajectory:  # at the first gossip count of the grid
        dump_trajectory(sc, args.dump_trajectory, sc.get("experiment", "v_list")[0],
                        max(keys[1] for keys, *_ in points))


def _sequential_design(sc: ScenarioFile, M: int, p_e: float, r: float, shared_m0: stats.MomentSet | None = None):
    """Model, statistic, symmetric-error test and horizon at error p_e and scale r.

    A grid passes shared_m0 = `_shared_theta0_moments(sc)` to skip the moments
    at theta0 at every point.  The horizon is max_n_factor times r times the
    larger asymptotic expected sample number.  Returns
    (model, nonlinearity, detector, (asn0, asn1), max_n).
    """
    theta0 = sc.get("model", "theta0")
    theta_r = theta0 + 1.0 / math.sqrt(r)
    model = model_from_scenario(sc, theta=theta_r)
    nonlin = nonlinearity_from_scenario(sc, model)
    m0 = shared_m0 if shared_m0 is not None else stats.moments(model, nonlin, theta0)
    mr = stats.moments(model, nonlin, theta_r)
    detector = sequential_design(p_e, 1.0 - p_e, r, m0, mr, M)
    asn = analysis.sequential_asymptotics(p_e, 1.0 - p_e, stats.efficacy(m0, M))
    max_n = max(10, int(math.ceil(sc.get("experiment", "max_n_factor") * r * max(asn))))
    return model, nonlin, detector, asn, max_n


def _sequential_points(sc: ScenarioFile) -> list[tuple]:
    """((p_e, snr_db, snr), named estimates) at every grid point of an asn/are sequential scenario.

    Every estimate reports montecarlo.trials as its trial count.  The scaled
    sample numbers en_snr_* are E[N] times the SNR; en_snr_asymptote is their
    limit.  The SPRT baseline adds en_snr_sprt and pe_sprt; measure "are"
    adds the fusion center redesigned at the node's error,
    en_matched_centralized, and its ratio to the node's E[N], are_node.
    """
    topology, v = scn.topology_from_scenario(sc), sc.get("topology", "v")
    trials, seed, threads = (sc.get("montecarlo", key) for key in ("trials", "seed", "threads"))
    V = model_from_scenario(sc).null.var  # noise variance
    shared_m0 = _shared_theta0_moments(sc)

    def named(value: float, std_err: float = 0.0, truncated: int = 0) -> montecarlo.Estimate:
        return montecarlo.Estimate(value, std_err, trials, truncated)

    points = []
    for p_e in sc.get("detector", "p_e_list"):
        for snr_db in sc.get("experiment", "snr_db_list"):
            snr = 10.0 ** (snr_db / 10.0)
            r = 1.0 / (snr * V)
            model, nonlin, detector, asn, max_n = _sequential_design(sc, topology.M, p_e, r, shared_m0)
            study = montecarlo.estimate_stopping(
                model, nonlin, topology, v, detector, trials, seed,
                max_n=max_n, node=sc.get("detector", "node"), threads=threads,
            )
            estimates = {}
            for source in ("centralized", "node"):
                en, pe = study.summary(source)
                estimates[f"en_{source}"] = en
                estimates[f"en_snr_{source}"] = named(en.value * snr, en.std_err * snr, en.truncated_count)
                estimates[f"pe_{source}"] = pe
            estimates["en_snr_asymptote"] = named(0.5 * (asn[0] + asn[1]) / V)
            if sc.get("experiment", "include_sprt_baseline"):
                sprt_en, sprt_pe = montecarlo.estimate_sprt_stopping(
                    model, topology, p_e, 1.0 - p_e, trials, seed + 1, max_n=max_n, threads=threads,
                ).summary("centralized")
                estimates["en_snr_sprt"] = named(sprt_en.value * snr, sprt_en.std_err * snr, sprt_en.truncated_count)
                estimates["pe_sprt"] = sprt_pe
            if sc.get("experiment", "measure") == "are":
                pe_hat = min(max(estimates["pe_node"].value, 1e-6), 0.49)
                model, nonlin, detector, _, max_n = _sequential_design(sc, topology.M, pe_hat, r, shared_m0)
                matched, _ = montecarlo.estimate_stopping(
                    model, nonlin, topology, v, detector, trials, seed + 2, max_n=max_n, threads=threads,
                ).summary("centralized")
                node = estimates["en_node"]
                estimates["en_matched_centralized"] = named(matched.value, matched.std_err, matched.truncated_count)
                are = matched.value / node.value  # its std_err by the delta method, the two runs independent
                estimates["are_node"] = named(are, are * math.hypot(matched.std_err / matched.value,
                                                                    node.std_err / node.value))
            points.append(((p_e, snr_db, snr), estimates))
    return points


def run_sequential(sc: ScenarioFile, args) -> None:
    if sc.get("experiment", "measure") == "trajectory":
        if args.dump_trajectory:
            raise ScenarioError("--dump-trajectory does not apply to measure 'trajectory'")
        _sequential_trajectory(sc, args)
        return
    _write_long(sc, ["p_e", "snr_db", "snr"], _sequential_points(sc))
    if args.dump_trajectory:
        dump_trajectory(sc, args.dump_trajectory, sc.get("topology", "v"), 200)


def _sequential_trajectory(sc: ScenarioFile, args) -> None:
    """One trial's centered statistic paths under the alternative, until all leave (a_r, b_r) or the horizon."""
    topology = scn.topology_from_scenario(sc)
    r = 1.0 / (10.0 ** (sc.get("experiment", "snr_db_list")[0] / 10.0) * model_from_scenario(sc).null.var)
    model, nonlin, detector, _, max_n = _sequential_design(sc, topology.M, sc.get("detector", "p_e_list")[0], r)
    rows = []
    stops, _ = montecarlo.sequential_trials(
        (model.alt,), nonlin, topology, sc.get("topology", "v"), detector, max_n, range(topology.M), 1,
        montecarlo.chunk_rng(sc.get("montecarlo", "seed"), 0),
        record=lambda values: rows.append([len(rows) + 1, *values[0].tolist()]),
    )
    write_csv(sc.get("output", "path"), ["n", "centralized", *[f"node_{j}" for j in range(topology.M)]], rows)
    central, *nodes = (int(stop) or None for stop in stops[0])
    print(f"crossing slots: centralized={central}, nodes={nodes}, "
          f"upper={detector.b_r:.6g}, lower={detector.a_r:.6g}")


def _change_quantities(sc: ScenarioFile):
    """The change model, its two divergences and the LLR variance after the change.

    The null and the alternative must differ: neither equal (no change to detect) nor so close that the
    divergences round to zero or below, nor so far apart that the LLR's variance overflows.
    """
    model = model_from_scenario(sc)
    if model.null == model.alt:
        raise ScenarioError(f"model.variance1 must differ from model.variance0 for {sc.kind} experiments")
    llr = stats.llr_nonlinearity(model)
    d01 = stats.kl_divergence(model.null, model.alt)
    d10 = stats.kl_divergence(model.alt, model.null)
    if not (d01 > 0.0 and d10 > 0.0):  # the closed form cancels to nothing a few ulps from equal variances
        raise ScenarioError(f"model.variance0 = {model.null.variance:g} and model.variance1 = {model.alt.variance:g} "
                            f"are too close: their divergences round to {d01:.3g} and {d10:.3g}")
    try:  # a squared LLR that overflows in the quadrature would make the variance NaN
        with np.errstate(over="raise", invalid="raise"):
            var1 = stats.moments(model, llr, model.theta).sigma2
    except FloatingPointError:
        raise ScenarioError(f"model.variance0 = {model.null.variance:g} and model.variance1 = "
                            f"{model.alt.variance:g} are too far apart: their LLR's variance overflows") from None
    return model, d01, d10, var1


def _change_points(sc: ScenarioFile):
    """Theory for every family and threshold, and named estimates of the simulated ones.

    Returns the operating points (family-major, in analysis.CUSUM_FAMILIES
    order) and, for each simulated family and threshold in the scenario's
    order, ((family, gamma), named estimates, [(decision, stops, max_n)]).
    experiment.measure "rate" simulates false alarms under the null law
    (false_alarm_rate, mean_run_length_null), "delay" detection delays under
    the alternative (mean_delay), "both" both.  Horizons are 100 predicted
    mean run lengths, from the family's own accurate rate or delay.  Each
    family makes one run per law over the whole threshold grid, to its
    largest horizon (montecarlo.page_run_lengths); a crossing after its own
    threshold's horizon counts as truncated, and equal thresholds share a run.
    """
    topology = scn.topology_from_scenario(sc)
    M, measure, seed = topology.M, sc.get("experiment", "measure"), sc.get("montecarlo", "seed")
    gamma_list = sc.get("experiment", "gamma_list")
    model, d01, d10, var1 = _change_quantities(sc)
    try:  # the bank's Wald shape gamma d10 / var1 shrinks like 1 / model.variance1 as it grows
        theory = [analysis.operating_point(family, gamma, M, d01, d10, var1)
                  for family in analysis.CUSUM_FAMILIES for gamma in gamma_list]
    except QuadratureError as exc:
        raise ScenarioError(f"model.variance0 = {model.null.variance:g} and model.variance1 = "
                            f"{model.alt.variance:g} are too far apart for the bank delay: {exc}") from None
    operating = {(p.family, p.gamma): p for p in theory}
    families = sc.get("experiment", "families")
    plan = []
    if measure in ("rate", "both"):
        for p in (operating[family, gamma] for family in families for gamma in gamma_list):
            if p.rate_accurate * sys.float_info.max < 100.0:  # 100 / rate overflows
                raise ScenarioError(
                    f"experiment.gamma_list entry {p.gamma:g} predicts a {p.family} false-alarm rate of "
                    f"{p.rate_accurate:g}, too small for a false-alarm run")
        plan.append(("false_alarm", "null", seed))
    if measure in ("delay", "both"):
        plan.append(("detection", "alt", seed + 1))
    grid = sorted(set(gamma_list))
    simulated = {(family, gamma): ({}, []) for family in families for gamma in grid}
    for family in families:
        points = [operating[family, gamma] for gamma in grid]
        for decision, under, run_seed in plan:
            horizons = [int(math.ceil(100.0 / p.rate_accurate if under == "null"
                                      else 100.0 * max(p.delay_accurate, 10.0))) for p in points]
            stops = montecarlo.page_run_lengths(
                model, family, np.add(grid, sc.get("detector", "gamma_offset")), M, sc.get("montecarlo", "trials"),
                run_seed, under=under, max_n=max(horizons), topology=topology, v=sc.get("topology", "v"),
                node=sc.get("detector", "node"), threads=sc.get("montecarlo", "threads"),
            )
            for p, first, max_n in zip(points, stops.reshape(len(grid), -1), horizons):
                own = np.where(first > max_n, 0, first)
                estimates, runs = simulated[family, p.gamma]
                est = montecarlo.Estimate.from_run_lengths(own)
                if under == "null":
                    estimates["false_alarm_rate"] = montecarlo.Estimate(
                        1.0 / est.value, est.std_err / est.value**2, est.count, est.truncated_count)
                    estimates["mean_run_length_null"] = est
                else:
                    estimates["mean_delay"] = est
                runs.append((decision, own, max_n))
    return theory, [((family, gamma), *simulated[family, gamma]) for family in families for gamma in gamma_list]


_THEORY_COLUMNS = ["family", "gamma", "R_accurate", "R_largegamma", "D_accurate", "D_largegamma"]


def _theory_row(p: analysis.OperatingPoint) -> list:
    return [p.family, p.gamma, p.rate_accurate, p.rate_large_gamma, p.delay_accurate, p.delay_large_gamma]


def run_change(sc: ScenarioFile, args) -> None:
    theory, points = _change_points(sc)
    write_csv(with_suffix(sc.get("output", "path"), "theory"), _THEORY_COLUMNS, [_theory_row(p) for p in theory])
    _write_long(sc, ["family", "gamma"], points)
    if args.dump_trials:  # rows only when asked: a false-alarm run can hold thousands of trials per point
        write_csv(
            args.dump_trials,
            ["mode", "gamma", "trial", "alarm_time", "decision"],
            [[family, gamma, t, int(stop) if stop > 0 else max_n, decision if stop > 0 else "truncated"]
             for (family, gamma), _, runs in points
             for decision, stops, max_n in runs
             for t, stop in enumerate(stops)],
        )


def run_efficiency(sc: ScenarioFile, args) -> None:
    rate_list = sc.get("experiment", "rate_list")
    model, d01, d10, var1 = _change_quantities(sc)
    if max(rate_list) >= d01:
        raise ScenarioError(
            f"experiment.rate_list entries must be below delta01 = {d01:.6g}, got {max(rate_list):g}")
    try:  # the bank factor's Wald shape gamma d10 / var1 shrinks like 1 / model.variance1 as it grows
        rows = [
            [M, p.R, p.eta_cr, p.eta_sr, p.eta_br, p.eta_bs]
            for M in sc.get("experiment", "m_list")
            for p in analysis.relative_efficiencies_large_gamma(rate_list, M, d01, d10, var1)
        ]
    except QuadratureError as exc:
        raise ScenarioError(f"model.variance0 = {model.null.variance:g} and model.variance1 = "
                            f"{model.alt.variance:g} are too far apart for the bank factor: {exc}") from None
    write_csv(sc.get("output", "path"), ["M", "R", "eta_cr", "eta_sr", "eta_br", "eta_bs"], rows)


RUNNERS = {
    "spectral": run_spectral,
    "bounds": run_bounds,
    "fss": run_fss,
    "sequential": run_sequential,
    "change": run_change,
    "efficiency": run_efficiency,
}


# ---------------------------------------------------------------------------
# Figure-ready writers for the reproduce registry: wide tables over the named
# estimates, one row per grid point
# ---------------------------------------------------------------------------

def figure_fss(sc: ScenarioFile, args) -> None:
    """Wide detection-probability table: one row per (v, n)."""
    columns = ["p_f_node", "p_f_node_se", "p_d_node", "p_d_node_se", "p_d_centralized", "p_d_centralized_se"]
    _write_wide(sc, ["v", "n", "threshold"], columns, _fss_points(sc), ("p_d_limit",))


def figure_sequential(sc: ScenarioFile, args) -> None:
    """Wide scaled-sample-number / error-probability table per grid point."""
    if sc.get("experiment", "measure") == "trajectory":
        _sequential_trajectory(sc, args)
        return
    points = _sequential_points(sc)
    columns = ["en_snr_centralized", "en_snr_centralized_se", "en_snr_node", "en_snr_node_se", "en_snr_asymptote",
               "pe_centralized", "pe_node", "n_truncated_centralized", "n_truncated_node"]
    if "pe_sprt" in points[0][1]:
        columns += ["en_snr_sprt", "pe_sprt"]
    if "are_node" in points[0][1]:
        columns += ["en_node", "en_matched_centralized", "are_node"]
    _write_wide(sc, ["p_e", "snr_db", "snr"], columns, points)


def figure_change(sc: ScenarioFile, args) -> None:
    """Operating-characteristic table: theory plus simulated (R, D) points."""
    theory, points = _change_points(sc)
    simulated = {keys: estimates for keys, estimates, _ in points}
    rows = []
    for p in theory:
        row = _theory_row(p)
        estimates = simulated.get((p.family, p.gamma))
        if estimates is None:
            rows.append([*row, None, None, None, None, 0, 0])
            continue
        for name in ("false_alarm_rate", "mean_delay"):
            est = estimates.get(name)
            row += [None, None] if est is None else [est.value, est.std_err]
        # truncations of the false-alarm run if there is one, else of the delay run
        rows.append([*row, sc.get("montecarlo", "trials"), next(iter(estimates.values())).truncated_count])
    write_csv(sc.get("output", "path"),
              [*_THEORY_COLUMNS, "R_sim", "R_sim_se", "D_sim", "D_sim_se", "n_trials", "n_truncated"], rows)


REPRODUCE_TAGS: dict[str, list[str]] = {
    "fig:bound1": ["fig_bound1_complete.scn", "fig_bound1_kneighbor.scn"],
    "fig:bound2": ["fig_bound2_complete.scn", "fig_bound2_kneighbor.scn"],
    "fig:FSS3": ["fig_fss3.scn"],
    "fig:NmedGauss": ["fig_nmed_gauss.scn"],
    "fig:PerrGauss": ["fig_perr_gauss.scn"],
    "fig:AREGauss": ["fig_are_gauss.scn"],
    "fig:NmedMixt": ["fig_nmed_mixt.scn"],
    "fig:PerrMixt": ["fig_perr_mixt.scn"],
    "fig:stopping": ["fig_stopping.scn"],
    "fig:sim2": ["fig_sim2.scn"],
    "fig:sim1": ["fig_sim1.scn"],
    "fig:RE1": ["fig_re1.scn"],
    "fig:RE2": ["fig_re2.scn"],
}

FIGURE_RUNNERS = {  # by scenario kind
    "bounds": run_bounds,
    "efficiency": run_efficiency,
    "fss": figure_fss,
    "sequential": figure_sequential,
    "change": figure_change,
}


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _apply_overrides(sc: ScenarioFile, args) -> None:
    """Every --set, then --seed, --trials, --threads and --out, which win, then one check of the whole spec.

    The three Monte Carlo flags are accepted on every kind and ignored where it runs no Monte Carlo.
    """
    items = []
    for item in args.set or []:
        if "=" not in item:
            raise ScenarioError(f"--set expects section.key=value, got '{item}'")
        dotted, _, value = item.partition("=")
        items.append((dotted.strip(), value.strip()))
    items += [(f"montecarlo.{key}", str(getattr(args, key))) for key in ("seed", "trials", "threads")
              if getattr(args, key) is not None and sc.kind in scn.SCHEMA["montecarlo"][key].reads]
    if args.out:
        items.append(("output.path", args.out))
    scn.apply_overrides(sc, items)


def _check_outputs(scenarios: list[ScenarioFile], args) -> None:
    """Every file one command writes has its own path: each table, change's theory sibling and the dumps."""
    paths = [sc.get("output", "path") for sc in scenarios]
    if args.command == "change":
        paths.append(with_suffix(paths[0], "theory"))
    paths += [path for path in (args.dump_trajectory, args.dump_trials) if path]
    seen = set()
    for path in paths:
        where = os.path.realpath(resolve_output(path))
        base = os.path.dirname(where)
        while not os.path.exists(base):  # the nearest existing ancestor: the writer makes the rest
            base = os.path.dirname(base)
        # not empty, no trailing separator, not a directory, and not under a file or a read-only directory
        if not (os.path.basename(path) and os.path.isdir(base) and os.access(base, os.W_OK)) or os.path.isdir(where):
            raise ScenarioError(f"output path {path!r} must name a file in a writable directory")
        if where in seen:
            raise ScenarioError(f"two outputs of one run would both write {path}: give each its own path "
                                "(output.path, --out, --dump-trajectory, --dump-trials)")
        seen.add(where)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override montecarlo.seed")
    parser.add_argument("--trials", type=int, default=None, help="override montecarlo.trials")
    parser.add_argument("--threads", type=int, default=None,
                        help="override montecarlo.threads: Monte Carlo worker processes (forked; at most "
                             "one per chunk and per usable CPU)")
    parser.add_argument("--out", default=None, help="override output.path")
    parser.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override any scenario key (repeatable)")
    parser.set_defaults(dump_trajectory=None, dump_trials=None)  # each dump flag only where it is written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runcons",
        description="Running-consensus inference experiments: scenario files in, CSV tables out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        cmd = sub.add_parser(name, help=f"run a '{name}' scenario file")
        cmd.add_argument("scenario", help="path to the scenario file")
        _add_common(cmd)
        if name in ("bounds", "fss", "sequential"):
            cmd.add_argument("--dump-trajectory", metavar="PATH", help="also dump one state trajectory as CSV")
        if name == "change":
            cmd.add_argument("--dump-trials", metavar="PATH", help="also dump per-trial records as CSV")
    rep = sub.add_parser("reproduce", help="run a bundled experiment by tag")
    rep.add_argument("tag", help="experiment tag, e.g. fig:bound1")
    _add_common(rep)
    return parser


def main(argv=None) -> int:
    """Load the subcommand's file or the tag's bundled files, override and check every one, then run each."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            if args.tag not in REPRODUCE_TAGS:
                raise ScenarioError(
                    f"unknown experiment tag {args.tag!r}; known tags: {', '.join(sorted(REPRODUCE_TAGS))}")
            paths = [resources.files("runcons").joinpath("scenarios", name) for name in REPRODUCE_TAGS[args.tag]]
            runners = FIGURE_RUNNERS
        else:
            paths, runners = [args.scenario], RUNNERS
        scenarios = [scn.load(path) for path in paths]
        for sc in scenarios:  # every scenario is checked before the first one writes
            _apply_overrides(sc, args)
            if args.command not in ("reproduce", sc.kind):
                raise ScenarioError(f"scenario kind '{sc.kind}' does not match subcommand '{args.command}'")
        _check_outputs(scenarios, args)
        for sc in scenarios:
            runners[sc.kind](sc, args)
    except (ScenarioError, TopologyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
