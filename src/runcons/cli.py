"""Command-line front end: scenario files in, CSV tables out.

One subcommand per experiment family plus a `reproduce` command that runs
bundled scenarios for the named experiment tags.  All CSV output uses `.`
decimals, `,` separators, LF line endings, a mandatory header row, and floats
printed with 12 significant digits, so identical seeds give byte-identical
files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import analysis, montecarlo, scenario as scn, stats
from .consensus import WeightMode, centralized_weight
from .detectors import fss_threshold, sequential_design
from .network import NetworkTopology, TopologyError, effective_eigenvalues, expected_gossip_matrix
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
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(format_cell(cell) for cell in row) + "\n")
    print(f"wrote {path}: {len(rows)} rows")


def resolve_output(path: str, override: str | None) -> str:
    chosen = override if override else path
    if os.path.isabs(chosen):
        return chosen
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), chosen)


def with_suffix(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_{suffix}{ext or '.csv'}"


# ---------------------------------------------------------------------------
# Scenario wiring
# ---------------------------------------------------------------------------

def model_from_scenario(sc: ScenarioFile, theta: float | None = None) -> stats.HypothesisModel:
    """The scenario's model; theta (a location parameter) moves its alternative."""
    section = sc.sections.get("model")
    if section is None:
        raise ScenarioError("missing required section [model]")
    family = section.get("family")
    if theta is not None and family == "variance_change":
        raise ScenarioError(f"{sc.kind} experiments need a location family; variance_change has none")
    theta0 = float(section.get("theta0", 0.0))
    if family == "gaussian":
        variance = float(sc.require("model", "variance"))
        return stats.gaussian_shift_model(variance, theta if theta is not None else theta0, theta0)
    if family == "gaussian_mixture":
        weight = float(sc.require("model", "weight"))
        v1 = float(sc.require("model", "variance1"))
        v2 = float(sc.require("model", "variance2"))
        return stats.mixture_shift_model(weight, v1, v2, theta if theta is not None else theta0, theta0)
    if family == "variance_change":
        v0 = float(sc.require("model", "variance0"))
        v1 = float(sc.require("model", "variance1"))
        return stats.variance_change_model(v0, v1)
    raise ScenarioError(f"unknown model family {family!r}")


def nonlinearity_from_scenario(sc: ScenarioFile, model: stats.HypothesisModel):
    name = str(sc.get("model", "nonlinearity", "identity"))
    if name == "identity":
        return stats.Identity()
    if name == "score":
        return stats.score_nonlinearity(model)
    if name == "llr":
        return stats.llr_nonlinearity(model)
    raise ScenarioError(f"unknown nonlinearity {name!r}")


@dataclass(frozen=True)
class Setting:
    """What every simulating subcommand reads first: network, node, Monte Carlo sizes."""

    topology: NetworkTopology
    v: int  # pairwise exchanges per slot
    node: int
    trials: int
    seed: int
    threads: int


def _setting(sc: ScenarioFile) -> Setting:
    topology = scn.topology_from_scenario(sc)
    node = int(sc.get("detector", "node", 0))
    if not 0 <= node < topology.M:
        raise ScenarioError(f"detector.node must be in 0..{topology.M - 1}, got {node}")
    return Setting(
        topology=topology, v=int(sc.get("topology", "v", 1)), node=node,
        trials=int(sc.get("montecarlo", "trials", 10000)),
        seed=int(sc.get("montecarlo", "seed", 0)),
        threads=int(sc.get("montecarlo", "threads", 1)),
    )


def _required_list(sc: ScenarioFile, key: str, kind: str) -> list[float]:
    values = [float(x) for x in (sc.get("experiment", key) or [])]
    if not values:
        raise ScenarioError(f"{kind} experiments need experiment.{key}")
    return values


def scenario_label(sc: ScenarioFile) -> str:
    return str(sc.get("experiment", "label", sc.kind))


# ---------------------------------------------------------------------------
# Trajectory dump (shared by several subcommands)
# ---------------------------------------------------------------------------

def dump_trajectory(
    sc: ScenarioFile,
    setting: Setting,
    path: str,
    n_slots: int,
    mode: WeightMode,
    include_new_sample: bool,
) -> None:
    """One trial's states under the null law, every node at every slot."""
    model = model_from_scenario(sc)
    nonlin = nonlinearity_from_scenario(sc, model)
    M = setting.topology.M
    paths = montecarlo.consensus_paths(
        montecarlo.chunk_rng(setting.seed, 10**6), setting.topology, setting.v, 1, n_slots,
        lambda rng, shape: nonlin(model.null.sample(rng, shape)), mode, include_new_sample,
    )
    rows = []
    for n, states, csum in paths:
        central = centralized_weight(mode, n, M) * csum[0]
        rows += [[n, j, state, central, state - central] for j, state in enumerate(states[0])]
    write_csv(path, ["n", "node", "state", "centralized", "error"], rows)


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

def run_spectral(sc: ScenarioFile, args) -> None:
    topology = scn.topology_from_scenario(sc)
    summary = expected_gossip_matrix(topology)
    out = resolve_output(str(sc.require("output", "path")), args.out)
    write_csv(
        out,
        ["kind", "m", "n_pairs", "lambda_U", "lambda_L"],
        [[sc.get("topology", "kind"), topology.M, len(topology.pairs), summary.lambda_U, summary.lambda_L]],
    )
    print(f"lambda_U = {summary.lambda_U:.6f}, lambda_L = {summary.lambda_L:.6f}")


def run_bounds(sc: ScenarioFile, args) -> None:
    setting = _setting(sc)
    topology, v = setting.topology, setting.v
    n_max = int(sc.get("experiment", "n_max", 200))
    include_new = bool(sc.get("experiment", "include_new_sample", False))

    summary = expected_gossip_matrix(topology)
    lam_u, lam_l = effective_eigenvalues(summary, v)
    variant = (
        analysis.BoundVariant.NEW_SAMPLE_EXCHANGED
        if include_new
        else analysis.BoundVariant.NEW_SAMPLE_HELD
    )
    bounds = analysis.theorem_bounds(lam_u, lam_l, topology.M, n_max, variant)

    model = model_from_scenario(sc)
    study = montecarlo.estimate_covariance(
        topology,
        v,
        n_max,
        setting.trials,
        setting.seed,
        include_new_sample=include_new,
        dist=model.null,
        threads=setting.threads,
    )

    out = resolve_output(str(sc.require("output", "path")), args.out)
    rows = []
    for k in range(n_max):
        rows.append([
            int(bounds.n[k]),
            bounds.psi_U[k],
            bounds.psi_L[k],
            bounds.gamma_lower[k],
            bounds.gamma_upper[k],
            bounds.rho_lower[k],
            bounds.rho_upper[k],
            bounds.approx_B_L[k],
            bounds.approx_B_U[k],
            study.gamma_est[k],
            study.gamma_se[k],
            study.rho_est[k],
            study.rho_se[k],
        ])
    write_csv(
        out,
        [
            "n", "psi_U", "psi_L",
            "gamma_minus1_lower", "gamma_minus1_upper",
            "one_minus_rho_lower", "one_minus_rho_upper",
            "approx_lower", "approx_upper",
            "gamma_est", "gamma_se", "rho_est", "rho_se",
        ],
        rows,
    )
    if args.dump_trajectory:
        dump_trajectory(
            sc, setting, resolve_output(args.dump_trajectory, None),
            min(n_max, 200), WeightMode.AVERAGING, include_new,
        )


def _shared_theta0_moments(sc: ScenarioFile) -> stats.MomentSet | None:
    """Moments at theta0 of the statistic, the same at every theta_r; None for the LLR, which moves with it."""
    model = model_from_scenario(sc, theta=float(sc.get("model", "theta0", 0.0)))
    nonlin = nonlinearity_from_scenario(sc, model)
    if isinstance(nonlin, stats.LogLikelihoodRatio):
        return None
    return stats.moments(model, nonlin, model.theta0)


def _fss_points(sc: ScenarioFile, setting: Setting) -> list[tuple]:
    """(v, n, threshold, study, p_d_limit) on the (v, n) grid of an fss scenario."""
    M = setting.topology.M
    n_list = sc.get("experiment", "n_list") or [int(sc.get("experiment", "n_max", 100))]
    v_list = sc.get("experiment", "v_list") or [setting.v]
    theta0 = float(sc.get("model", "theta0", 0.0))
    gamma_scale = float(sc.get("experiment", "gamma_scale", 1.0))
    p_f = float(sc.require("detector", "p_f"))
    shared_m0 = _shared_theta0_moments(sc)
    points = []
    for v in v_list:
        for n in n_list:
            model = model_from_scenario(sc, theta=theta0 + gamma_scale / math.sqrt(n))
            nonlin = nonlinearity_from_scenario(sc, model)
            m0 = shared_m0 if shared_m0 is not None else stats.moments(model, nonlin, theta0)
            threshold = fss_threshold(p_f, n, m0, M)
            study = montecarlo.estimate_error_probabilities(
                model, nonlin, setting.topology, v, n, threshold, setting.trials, setting.seed,
                node=setting.node, threads=setting.threads,
            )
            p_d_limit = analysis.fss_asymptotic_pd(p_f, gamma_scale, stats.efficacy(m0, M))
            points.append((v, n, threshold, study, p_d_limit))
    return points


def run_fss(sc: ScenarioFile, args) -> None:
    setting = _setting(sc)
    label = scenario_label(sc)
    points = _fss_points(sc, setting)
    rows = [
        [label, v, n, threshold, stat_name, est.value, est.std_err, est.count, est.truncated_count]
        for v, n, threshold, study, _ in points
        for stat_name, est in (
            ("p_f_centralized", study.p_f["centralized"]),
            ("p_f_node", study.p_f["node"]),
            ("p_d_centralized", study.p_d["centralized"]),
            ("p_d_node", study.p_d["node"]),
        )
    ]
    out = resolve_output(str(sc.require("output", "path")), args.out)
    write_csv(
        out,
        ["scenario", "v", "n", "threshold", "statistic", "estimate", "std_err", "n_trials", "n_truncated"],
        rows,
    )
    if args.dump_trajectory:
        dump_trajectory(
            sc, setting, resolve_output(args.dump_trajectory, None),
            max(point[1] for point in points), WeightMode.ACCUMULATING, True,
        )


def _sequential_design(sc: ScenarioFile, M: int, p_e: float, r: float, shared_m0: stats.MomentSet | None = None):
    """Model, statistic, symmetric-error test and horizon at error p_e and scale r.

    A grid passes shared_m0 = `_shared_theta0_moments(sc)` to skip the moments
    at theta0 at every point.  The horizon is max_n_factor times r times the
    larger asymptotic expected sample number.  Returns
    (model, nonlinearity, detector, (asn0, asn1), max_n).
    """
    theta0 = float(sc.get("model", "theta0", 0.0))
    theta_r = theta0 + 1.0 / math.sqrt(r)
    model = model_from_scenario(sc, theta=theta_r)
    nonlin = nonlinearity_from_scenario(sc, model)
    m0 = shared_m0 if shared_m0 is not None else stats.moments(model, nonlin, theta0)
    mr = stats.moments(model, nonlin, theta_r)
    detector = sequential_design(p_e, 1.0 - p_e, r, m0, mr, M)
    asn = analysis.sequential_asymptotics(p_e, 1.0 - p_e, stats.efficacy(m0, M))
    factor = float(sc.get("experiment", "max_n_factor", 100.0))
    max_n = max(10, int(math.ceil(factor * r * max(asn))))
    return model, nonlin, detector, asn, max_n


@dataclass(frozen=True)
class SequentialPoint:
    p_e: float
    snr_db: float
    snr: float
    study: montecarlo.SequentialStudy
    asymptote: float  # limit of E[N] * SNR
    sprt: montecarlo.SequentialStudy | None  # probability-ratio baseline
    matched: montecarlo.SequentialStudy | None  # fusion center redesigned at the node's error


def _sequential_points(sc: ScenarioFile, setting: Setting) -> list[SequentialPoint]:
    """Every (p_e, SNR) grid point of an asn/error/are sequential scenario."""
    topology, v, trials, seed = setting.topology, setting.v, setting.trials, setting.seed
    V = model_from_scenario(sc).null.var  # noise variance
    shared_m0 = _shared_theta0_moments(sc)
    points = []
    for p_e in _p_e_values(sc):
        for snr_db in _snr_db_values(sc):
            snr = 10.0 ** (float(snr_db) / 10.0)
            r = 1.0 / (snr * V)
            model, nonlin, detector, asn, max_n = _sequential_design(sc, topology.M, float(p_e), r, shared_m0)
            study = montecarlo.estimate_stopping(
                model, nonlin, topology, v, detector, trials, seed,
                max_n=max_n, node=setting.node, threads=setting.threads,
            )
            sprt = matched = None
            if sc.get("experiment", "include_sprt_baseline", False):
                sprt = montecarlo.estimate_sprt_stopping(
                    model, topology.M, float(p_e), 1.0 - float(p_e), trials, seed + 1,
                    max_n=max_n, threads=setting.threads,
                )
            if _sequential_measure(sc) == "are":
                pe_hat = min(max(study.error_probability("node"), 1e-6), 0.49)
                model, nonlin, detector, _, max_n = _sequential_design(sc, topology.M, pe_hat, r, shared_m0)
                matched = montecarlo.estimate_stopping(
                    model, nonlin, topology, v, detector, trials, seed + 2,
                    max_n=max_n, threads=setting.threads,
                )
            asymptote = 0.5 * (asn[0] + asn[1]) / V
            points.append(SequentialPoint(p_e, snr_db, snr, study, asymptote, sprt, matched))
    return points


def _sequential_measure(sc: ScenarioFile) -> str:
    measure = str(sc.get("experiment", "measure", "asn"))
    if measure not in ("asn", "error", "are", "trajectory"):
        raise ScenarioError(f"unknown sequential measure {measure!r}")
    return measure


def _p_e_values(sc: ScenarioFile) -> list:
    return sc.get("detector", "p_e_list") or [float(sc.require("detector", "p_e"))]


def _snr_db_values(sc: ScenarioFile) -> list:
    return sc.get("experiment", "snr_db_list") or [-20.0]


def run_sequential(sc: ScenarioFile, args) -> None:
    setting = _setting(sc)
    if _sequential_measure(sc) == "trajectory":
        if args.dump_trajectory:
            raise ScenarioError("--dump-trajectory does not apply to measure 'trajectory'")
        _sequential_trajectory(sc, args, setting)
        return
    label = scenario_label(sc)
    rows = []
    for point in _sequential_points(sc, setting):
        study, snr = point.study, point.snr
        outputs = []
        for source in ("centralized", "node"):
            mean_n, se = study.mean_sample_number(source), study.mean_sample_number_std_err(source)
            trunc = study.truncated_count(source)
            outputs.append((f"en_{source}", mean_n, se, trunc))
            outputs.append((f"en_snr_{source}", mean_n * snr, se * snr, trunc))
            outputs.append((f"pe_{source}", study.error_probability(source),
                            study.error_probability_std_err(source), trunc))
        outputs.append(("en_snr_asymptote", point.asymptote, 0.0, 0))
        if point.sprt is not None:
            sprt = point.sprt
            outputs.append(("en_snr_sprt", sprt.mean_sample_number() * snr, 0.0, sprt.truncated_count()))
            outputs.append(("pe_sprt", sprt.error_probability(), 0.0, 0))
        if point.matched is not None:
            matched = point.matched.mean_sample_number()
            outputs.append(("en_matched_centralized", matched, 0.0, point.matched.truncated_count()))
            outputs.append(("are_node", matched / study.mean_sample_number("node"), 0.0, 0))
        for stat_name, value, se, trunc in outputs:
            rows.append([label, point.p_e, point.snr_db, snr, stat_name, value, se, setting.trials, trunc])
    out = resolve_output(str(sc.require("output", "path")), args.out)
    write_csv(
        out,
        ["scenario", "p_e", "snr_db", "snr", "statistic", "estimate", "std_err", "n_trials", "n_truncated"],
        rows,
    )
    if args.dump_trajectory:
        dump_trajectory(
            sc, setting, resolve_output(args.dump_trajectory, None),
            200, WeightMode.ACCUMULATING, True,
        )


def _sequential_trajectory(sc: ScenarioFile, args, setting: Setting) -> None:
    """Single-trial centered statistic paths for every node and the oracle."""
    M = setting.topology.M
    p_e, snr_db = float(_p_e_values(sc)[0]), float(_snr_db_values(sc)[0])
    r = 1.0 / (10.0 ** (snr_db / 10.0) * model_from_scenario(sc).null.var)
    model, nonlin, detector, _, _ = _sequential_design(sc, M, p_e, r)
    paths = montecarlo.consensus_paths(
        montecarlo.chunk_rng(setting.seed, 0), setting.topology, setting.v, 1, 100_000,
        lambda rng, shape: nonlin(model.alt.sample(rng, shape)), WeightMode.ACCUMULATING, True,
    )
    rows = []
    crossed: dict[int | str, int] = {}
    for slot, states, csum in paths:
        shift = slot * M * detector.eta_r
        central = csum[0] - shift
        nodes = states[0] - shift
        if "centralized" not in crossed and (central >= detector.b_r or central <= detector.a_r):
            crossed["centralized"] = slot
        for j in range(M):
            if j not in crossed and (nodes[j] >= detector.b_r or nodes[j] <= detector.a_r):
                crossed[j] = slot
        rows.append([slot, central, *nodes.tolist()])
        if len(crossed) == M + 1:
            break
    out = resolve_output(str(sc.require("output", "path")), args.out)
    write_csv(out, ["n", "centralized", *[f"node_{j}" for j in range(M)]], rows)
    times = [crossed.get(j) for j in range(M)]
    print(f"crossing slots: centralized={crossed.get('centralized')}, nodes={times}, "
          f"upper={detector.b_r:.6g}, lower={detector.a_r:.6g}")


def _change_quantities(sc: ScenarioFile):
    model = model_from_scenario(sc)
    llr = stats.llr_nonlinearity(model)
    d01 = stats.kl_divergence(model.null, model.alt)
    d10 = stats.kl_divergence(model.alt, model.null)
    var1 = stats.moments(model, llr, model.theta).sigma2
    return model, d01, d10, var1


def _change_points(sc: ScenarioFile, setting: Setting):
    """Theory for every family and threshold, and run lengths of the simulated ones.

    Returns the operating points (family-major, in analysis.CUSUM_FAMILIES
    order), the simulated families, and {(family, gamma): {under: (stops,
    max_n)}}.  experiment.measure "rate" simulates false alarms
    (under="null"), "delay" detection delays (under="alt"), "both" (the
    default) both.  Horizons are 100 predicted mean run lengths, from the
    family's own accurate rate or delay.
    """
    M = setting.topology.M
    measure = str(sc.get("experiment", "measure", "both"))
    gamma_offset = float(sc.get("detector", "gamma_offset", 0.0))
    gamma_list = _required_list(sc, "gamma_list", "change")
    families = [str(f) for f in (sc.get("experiment", "families") or ["centralized"])]
    for family in families:
        if family not in analysis.CUSUM_FAMILIES:
            raise ScenarioError(f"unknown change-detection family {family!r}")
    if measure not in ("rate", "delay", "both"):
        raise ScenarioError(f"unknown change measure {measure!r}")
    model, d01, d10, var1 = _change_quantities(sc)
    theory = [
        analysis.operating_point(family, gamma, M, d01, d10, var1)
        for family in analysis.CUSUM_FAMILIES
        for gamma in gamma_list
    ]
    runs = {}
    for point in theory:
        if point.family not in families:
            continue
        plan = []
        if measure in ("rate", "both"):
            plan.append(("null", setting.seed, int(math.ceil(100.0 / point.rate_accurate))))
        if measure in ("delay", "both"):
            plan.append(("alt", setting.seed + 1, int(math.ceil(100.0 * max(point.delay_accurate, 10.0)))))
        runs[point.family, point.gamma] = {
            under: (montecarlo.page_run_lengths(
                model, point.family, point.gamma + gamma_offset, M, setting.trials, run_seed,
                under=under, max_n=max_n, topology=setting.topology, v=setting.v, node=setting.node,
                threads=setting.threads,
            ), max_n)
            for under, run_seed, max_n in plan
        }
    return theory, families, runs


def run_change(sc: ScenarioFile, args) -> None:
    setting = _setting(sc)
    label = scenario_label(sc)
    theory, families, runs = _change_points(sc, setting)
    out = resolve_output(str(sc.require("output", "path")), args.out)
    write_csv(
        with_suffix(out, "theory"),
        ["family", "gamma", "R_accurate", "R_largegamma", "D_accurate", "D_largegamma"],
        [[p.family, p.gamma, p.rate_accurate, p.rate_large_gamma, p.delay_accurate, p.delay_large_gamma]
         for p in theory],
    )
    mc_rows = []
    trial_rows = []
    for family in families:
        for gamma in (p.gamma for p in theory if p.family == family):
            for under, (stops, max_n) in runs[family, gamma].items():
                est = montecarlo.Estimate.from_run_lengths(stops)
                counts = [est.count, est.truncated_count]
                if under == "null":
                    rate, rate_se = 1.0 / est.value, est.std_err / est.value**2
                    mc_rows.append([label, family, gamma, "false_alarm_rate", rate, rate_se, *counts])
                    mc_rows.append([label, family, gamma, "mean_run_length_null", est.value, est.std_err, *counts])
                else:
                    mc_rows.append([label, family, gamma, "mean_delay", est.value, est.std_err, *counts])
                if args.dump_trials:
                    decision = "false_alarm" if under == "null" else "detection"
                    trial_rows += [
                        [family, gamma, t, int(stop) if stop > 0 else max_n, decision if stop > 0 else "truncated"]
                        for t, stop in enumerate(stops)
                    ]
    write_csv(
        out,
        ["scenario", "family", "gamma", "statistic", "estimate", "std_err", "n_trials", "n_truncated"],
        mc_rows,
    )
    if args.dump_trials:
        write_csv(
            resolve_output(args.dump_trials, None),
            ["mode", "gamma", "trial", "alarm_time", "decision"],
            trial_rows,
        )


def run_efficiency(sc: ScenarioFile, args) -> None:
    topology = scn.topology_from_scenario(sc)
    rate_list = _required_list(sc, "rate_list", "efficiency")
    m_list = sc.get("experiment", "m_list")
    _, d01, d10, var1 = _change_quantities(sc)
    if max(rate_list) >= d01:
        raise ScenarioError(
            f"experiment.rate_list entries must be below delta01 = {d01:.6g}, got {max(rate_list):g}")
    header = ["M", "R", "eta_cr", "eta_sr", "eta_br", "eta_bs"]
    rows = [
        [int(M), p.R, p.eta_cr, p.eta_sr, p.eta_br, p.eta_bs]
        for M in (m_list or [topology.M])
        for p in analysis.relative_efficiencies_large_gamma(rate_list, int(M), d01, d10, var1)
    ]
    if not m_list:  # the scenario's own network: no M column
        header, rows = header[1:], [row[1:] for row in rows]
    write_csv(resolve_output(str(sc.require("output", "path")), args.out), header, rows)


RUNNERS = {
    "spectral": run_spectral,
    "bounds": run_bounds,
    "fss": run_fss,
    "sequential": run_sequential,
    "change": run_change,
    "efficiency": run_efficiency,
}


# ---------------------------------------------------------------------------
# Figure-ready writers for the reproduce registry
# ---------------------------------------------------------------------------

def figure_fss(sc: ScenarioFile, args) -> None:
    """Wide detection-probability table: one row per (v, n)."""
    rows = [
        [v, n, threshold,
         study.p_f["node"].value, study.p_f["node"].std_err,
         study.p_d["node"].value, study.p_d["node"].std_err,
         study.p_d["centralized"].value, study.p_d["centralized"].std_err,
         p_d_limit]
        for v, n, threshold, study, p_d_limit in _fss_points(sc, _setting(sc))
    ]
    out = resolve_output(str(sc.require("output", "path")), args.out)
    write_csv(
        out,
        ["v", "n", "threshold", "p_f_node", "p_f_node_se", "p_d_node", "p_d_node_se",
         "p_d_centralized", "p_d_centralized_se", "p_d_limit"],
        rows,
    )


def figure_sequential(sc: ScenarioFile, args) -> None:
    """Wide scaled-sample-number / error-probability table per grid point."""
    setting = _setting(sc)
    measure = _sequential_measure(sc)
    if measure == "trajectory":
        _sequential_trajectory(sc, args, setting)
        return
    header = ["p_e", "snr_db", "snr",
              "en_snr_centralized", "en_snr_centralized_se",
              "en_snr_node", "en_snr_node_se", "en_snr_asymptote",
              "pe_centralized", "pe_node",
              "n_truncated_centralized", "n_truncated_node"]
    if sc.get("experiment", "include_sprt_baseline", False):
        header += ["en_snr_sprt", "pe_sprt"]
    if measure == "are":
        header += ["en_node", "en_matched_centralized", "are_node"]
    rows = []
    for point in _sequential_points(sc, setting):
        study, snr = point.study, point.snr
        en_n = study.mean_sample_number("node")
        row = [
            point.p_e, point.snr_db, snr,
            study.mean_sample_number("centralized") * snr, study.mean_sample_number_std_err("centralized") * snr,
            en_n * snr, study.mean_sample_number_std_err("node") * snr, point.asymptote,
            study.error_probability("centralized"), study.error_probability("node"),
            study.truncated_count("centralized"), study.truncated_count("node"),
        ]
        if point.sprt is not None:
            row += [point.sprt.mean_sample_number() * snr, point.sprt.error_probability()]
        if point.matched is not None:
            matched = point.matched.mean_sample_number()
            row += [en_n, matched, matched / en_n]
        rows.append(row)
    out = resolve_output(str(sc.require("output", "path")), args.out)
    write_csv(out, header, rows)


def figure_change(sc: ScenarioFile, args) -> None:
    """Operating-characteristic table: theory plus simulated (R, D) points."""
    setting = _setting(sc)
    theory, families, runs = _change_points(sc, setting)
    rows = []
    for p in theory:
        sim = [None, None, None, None, 0, 0]
        if p.family in families:
            est = {under: montecarlo.Estimate.from_run_lengths(stops)
                   for under, (stops, _) in runs[p.family, p.gamma].items()}
            null, alt = est.get("null"), est.get("alt")
            if null is not None:
                sim[:2] = [1.0 / null.value, null.std_err / null.value**2]
            if alt is not None:
                sim[2:4] = [alt.value, alt.std_err]
            # truncations of the false-alarm run if there is one, else of the delay run
            sim[4:] = [setting.trials, (null or alt).truncated_count]
        rows.append([p.family, p.gamma, p.rate_accurate, p.rate_large_gamma,
                     p.delay_accurate, p.delay_large_gamma, *sim])
    out = resolve_output(str(sc.require("output", "path")), args.out)
    write_csv(
        out,
        ["family", "gamma", "R_accurate", "R_largegamma", "D_accurate", "D_largegamma",
         "R_sim", "R_sim_se", "D_sim", "D_sim_se", "n_trials", "n_truncated"],
        rows,
    )


REPRODUCE_TAGS: dict[str, list[tuple[str, str]]] = {
    "fig:bound1": [("fig_bound1_complete.scn", "bounds"), ("fig_bound1_kneighbor.scn", "bounds")],
    "fig:bound2": [("fig_bound2_complete.scn", "bounds"), ("fig_bound2_kneighbor.scn", "bounds")],
    "fig:FSS3": [("fig_fss3.scn", "figure_fss")],
    "fig:NmedGauss": [("fig_nmed_gauss.scn", "figure_sequential")],
    "fig:PerrGauss": [("fig_perr_gauss.scn", "figure_sequential")],
    "fig:AREGauss": [("fig_are_gauss.scn", "figure_sequential")],
    "fig:NmedMixt": [("fig_nmed_mixt.scn", "figure_sequential")],
    "fig:PerrMixt": [("fig_perr_mixt.scn", "figure_sequential")],
    "fig:stopping": [("fig_stopping.scn", "figure_sequential")],
    "fig:sim2": [("fig_sim2.scn", "figure_change")],
    "fig:sim1": [("fig_sim1.scn", "figure_change")],
    "fig:RE1": [("fig_re1.scn", "efficiency")],
    "fig:RE2": [("fig_re2.scn", "efficiency")],
}

FIGURE_RUNNERS = {
    "bounds": run_bounds,
    "efficiency": run_efficiency,
    "figure_fss": figure_fss,
    "figure_sequential": figure_sequential,
    "figure_change": figure_change,
}


def load_bundled_scenario(resource_name: str) -> ScenarioFile:
    text = resources.files("runcons").joinpath("scenarios", resource_name).read_text(encoding="utf-8")
    return scn.parse(text)


def run_reproduce(tag: str, args) -> None:
    if tag not in REPRODUCE_TAGS:
        raise ScenarioError(
            f"unknown experiment tag {tag!r}; known tags: {', '.join(sorted(REPRODUCE_TAGS))}"
        )
    for resource_name, runner_name in REPRODUCE_TAGS[tag]:
        sc = load_bundled_scenario(resource_name)
        _apply_overrides(sc, args)
        FIGURE_RUNNERS[runner_name](sc, args)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _apply_overrides(sc: ScenarioFile, args) -> None:
    """Every --set in turn, then --seed, --trials and --threads, which win."""
    for item in args.set or []:
        if "=" not in item:
            raise ScenarioError(f"--set expects section.key=value, got '{item}'")
        dotted, _, value = item.partition("=")
        scn.apply_override(sc, dotted.strip(), value.strip())
    for key in ("seed", "trials", "threads"):
        if getattr(args, key) is not None:
            scn.apply_override(sc, f"montecarlo.{key}", str(getattr(args, key)))


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "reproduce":
            run_reproduce(args.tag, args)
        else:
            sc = scn.load(args.scenario)
            if sc.kind != args.command:
                raise ScenarioError(
                    f"scenario kind '{sc.kind}' does not match subcommand '{args.command}'"
                )
            _apply_overrides(sc, args)
            RUNNERS[args.command](sc, args)
    except (ScenarioError, TopologyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
