"""The workloads: set-up, timed passes of jmsched commands, checks, metrics.

Every run reports every end-to-end metric, so every workload runs the whole
chain a user runs (simulate, fit, predict, schedule, score).  The workloads
differ in which command carries the weight and which layer that stresses:

- ``fit``: a 200-subject cohort and a 2 x 150-iteration ``current_value``
  fit in every pass, checked against the simulation truth.
  ``_FitData.per_subject_loglik`` does nearly all the work.  Predict,
  schedule and score run at light sizes on the draws of a short set-up fit,
  so their cost does not follow how far the measured fit's unmixed hazard
  block has wandered.
- ``dynpred``: a 100-subject cohort with short set-up fits of two
  associations.  ``predict`` for four subjects at risk at the landmark,
  ``schedule`` for two of them with 400 x 25 = 10^4 rows per
  information-gain batch, so the batched conditional-RE sampler
  ``_re_mh_draws`` is bound by rows; and ``score`` of both associations at
  the two landmarks where 65 and 50 subjects are at risk, with 20 x 4 rows
  per cvDCL chain: over a hundred short chains per command, each with its
  own mode finding, so the same sampler is bound by per-call overhead.

Commands are called the way users call them, ``cli.run`` on generated config
files, and their outputs are checked after the timer stops.  A pass runs
every operation of the workload once; a run makes at least three passes,
and each command metric is the mean over its operations of the median of
that operation's times over the passes.
"""

from __future__ import annotations

import resource
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import checks
import cohort
import mixing
import tracing

SETUP_REPEATS = 4
MIN_PASSES = 3
CHAINS = 2
LANDMARK = 2.0
KAPPA = 0.8
T_MAX = 5.0
GRID_SIZE = 5

# point-mass probes: flat hazard, no association, closed-form answers
PROBE_LAMBDA = 0.1
PROBE_DRAWS = 20
PROBE_SCHEDULE = dict(outer=20, inner=4, g_pi=50, warmup=10)
PROBE_SCORE = dict(landmarks=(4.0,), theta_draws=4, re_draws=2, warmup=5)


@dataclass(frozen=True)
class Sizes:
    n_subjects: int
    associations: tuple     # one set-up fit, and one scored model, per association
    setup_fit: tuple        # (iterations, burn-in) of each set-up fit
    pass_fit: tuple         # (iterations, burn-in) of a current_value fit timed
                            # in every pass and checked against the truth, or None
    subjects: int           # at-risk subjects that get a predict
    plans: int              # the first of them that also get a schedule
    predict: dict           # g_pi, warmup, points
    schedule: dict          # outer, inner, g_pi, warmup
    score: dict             # at_risk, theta_draws, re_draws, warmup
    score_repeats: int      # score commands per association in a pass


LIGHT_PREDICT = dict(g_pi=250, warmup=40, points=20)
LIGHT_SCHEDULE = dict(outer=40, inner=5, g_pi=250, warmup=40)

WORKLOADS = {
    "fit": Sizes(200, ("current_value",), (40, 20), (150, 75), 8, 6,
                 LIGHT_PREDICT, LIGHT_SCHEDULE,
                 dict(at_risk=(95,), theta_draws=10, re_draws=2, warmup=20), 3),
    "dynpred": Sizes(100, ("current_value", "slope"), (60, 30), None, 4, 2,
                     dict(g_pi=2000, warmup=100, points=50),
                     dict(outer=400, inner=25, g_pi=1000, warmup=20),
                     dict(at_risk=(65, 50), theta_draws=20, re_draws=4, warmup=30), 1),
}

COMMANDS = ("simulate", "fit", "predict", "schedule", "score")


class SetupError(RuntimeError):
    """Set-up failed, so there is nothing to measure."""


class Run:
    """One benchmark run of one workload: counts, timings and checks."""

    def __init__(self, cli, work: Path, sizes: Sizes, seed: int, fit_seed=None):
        self.cli, self.work, self.sizes = cli, work, sizes
        rng = np.random.default_rng(seed)
        names = ("simulate", "fit", "predict", "schedule", "score", "subjects")
        self.seeds = {n: int(s) for n, s in zip(names, rng.integers(0, 2**31 - 1, len(names)))}
        if fit_seed is not None:
            self.seeds["fit"] = fit_seed
        self.attempted = self.failed = 0
        self.correct = True
        self.errors = []
        # command -> operation (its config file name) -> (window, wall time), one
        # per pass; a window is a set-up or a pass, with its calibration samples
        self.times = {name: {} for name in COMMANDS}
        self.calibration = {}
        self.window = None
        self.setups = []        # (window, wall time) of each set-up
        # fit_s reads the measured fit, else the set-up fits; so do the mixing metrics
        self.fit_prefixes = ("measured",) if sizes.pass_fit else sizes.associations
        self.mixing_prefix = "measured" if sizes.pass_fit else "current_value"
        self.passes = []
        self.evaluations = None
        self.draws = None
        self.survival = {}
        self.subjects = []

    # --- one command invocation ---------------------------------------------

    def command(self, name: str, config: Path, check=None, record=True) -> float:
        """Run one command and its check; returns the command's wall time."""
        self.attempted += 1
        self._calibrate(calibrate.SAMPLES_PER_COMMAND)
        start = perf_counter()
        try:
            self.cli.run(self.cli.RunConfig.from_file(name, config))
        except Exception:  # a failing command is counted and the run goes on
            self.failed += 1
            self.errors.append(f"{name} {config.name}: {traceback.format_exc()}")
            return perf_counter() - start
        elapsed = perf_counter() - start
        if check is not None:
            try:
                check()
            except Exception:  # a malformed output fails its check too
                self.failed += 1
                self.correct = False
                self.errors.append(f"check of {name} {config.name}: {traceback.format_exc()}")
                return elapsed
        if record:
            self.times[name].setdefault(config.name, []).append((self.window, elapsed))
        return elapsed

    def _calibrate(self, samples: int) -> None:
        self.calibration.setdefault(self.window, []).extend(
            calibrate.sample() for _ in range(samples))

    # --- set-up, passes, probes ----------------------------------------------

    def _check_cohort(self):
        self.survival = cohort.survival(self.work / "cohort_survival.csv")
        _, long_rows = cohort.read_table(self.work / "cohort_longitudinal.csv")
        checks.check_cohort(self.survival, self.sizes.n_subjects, long_rows)

    def fit(self, association: str, iterations: int, burn_in: int, prefix: str,
            recovery: bool) -> float:
        work = self.work
        config = cohort.fit_config(work, prefix, self.seeds["fit"], association,
                                   iterations, burn_in)

        def check():
            draws = checks.check_fit(work / f"{prefix}_draws.csv", work / f"{prefix}_ranef.csv",
                                     list(self.survival), CHAINS * (iterations - burn_in),
                                     recovery)
            if prefix == self.mixing_prefix:
                self.draws = draws
        return self.command("fit", config, check)

    def setup(self) -> None:
        """Simulate the cohort and run the set-up fits; times one set-up."""
        s = self.sizes
        self.window = f"setup{len(self.setups)}"
        # a set-up runs few commands: more samples steady its scale
        self._calibrate(calibrate.SAMPLES_PER_SETUP)
        config = cohort.simulate_config(self.work, self.seeds["simulate"], s.n_subjects)
        spent = self.command("simulate", config, self._check_cohort)
        spent += sum(self.fit(a, *s.setup_fit, a, recovery=False) for a in s.associations)
        self.setups.append((self.window, spent))

    def _pick_subjects(self) -> None:
        candidates = cohort.at_risk(self.survival, LANDMARK)
        rng = np.random.default_rng(self.seeds["subjects"])
        picked = rng.choice(len(candidates), size=self.sizes.subjects, replace=False)
        self.subjects = [candidates[i] for i in sorted(picked)]

    def operations(self) -> list:
        """One pass: every operation of the workload once, as callables.

        A score command scores one association at every landmark.  The
        measured fit and the score commands stand between runs of the
        subjects' predicts and plans, so every command type is spread over
        the pass."""
        s, work = self.sizes, self.work
        per_subject = []
        draws = work / "current_value_draws.csv"
        p = s.predict
        for k, sid in enumerate(self.subjects):
            predict = cohort.predict_config(work, self.seeds["predict"] + k, sid, LANDMARK,
                                            draws, p["g_pi"], p["warmup"], p["points"], T_MAX)
            per_subject.append(
                lambda c=predict, sid=sid: self.command("predict", c, lambda: checks.check_pi_curve(
                    work / f"predict_{sid}_pi.csv", LANDMARK, T_MAX, p["points"])))
            if k < s.plans:
                plan = cohort.schedule_config(
                    work, f"plan_{sid}", self.seeds["schedule"] + k, sid, LANDMARK, draws,
                    KAPPA, T_MAX, GRID_SIZE, **s.schedule)
                per_subject.append(
                    lambda c=plan, sid=sid: self.command("schedule", c, lambda: checks.check_plan(
                        work / f"plan_{sid}_schedule.csv", LANDMARK, KAPPA, T_MAX, GRID_SIZE)))
        landmarks = score_landmarks(self.survival, s.score["at_risk"])
        scores = []
        for a in s.associations:
            models = {a: (a, work / f"{a}_draws.csv", work / f"{a}_ranef.csv")}
            score = cohort.score_config(work, f"score_{a}", self.seeds["score"], models,
                                        landmarks, s.score["theta_draws"],
                                        s.score["re_draws"], s.score["warmup"])

            def check_score(a=a, models=models):
                self.evaluations = checks.check_scores(work / f"score_{a}_scores.csv", models,
                                                       landmarks, self.survival)
            scores.append(lambda c=score, check=check_score: self.command("score", c, check))
        extra = scores * s.score_repeats
        if s.pass_fit is not None:
            extra.insert(len(extra) // 2, lambda: self.fit("current_value", *s.pass_fit,
                                                           "measured", recovery=True))
        # the predicts and plans in len(extra) + 1 runs, one extra operation between two
        cuts = [len(per_subject) * k // (len(extra) + 1) for k in range(len(extra) + 2)]
        ops = per_subject[:cuts[1]]
        for k, op in enumerate(extra, start=1):
            ops += [op] + per_subject[cuts[k]:cuts[k + 1]]
        return ops

    def probes(self) -> None:
        """Closed-form checks on a point-mass posterior, outside the timed passes."""
        work = self.work
        self.window = "probes"
        draws, ranef = cohort.write_point_mass(work, PROBE_LAMBDA, PROBE_DRAWS,
                                               list(self.survival))
        config = cohort.schedule_config(
            work, "point_plan", self.seeds["schedule"], self.subjects[0], LANDMARK, draws,
            KAPPA, T_MAX, GRID_SIZE, **PROBE_SCHEDULE)
        self.command("schedule", config, lambda: checks.check_point_mass_plan(
            work / "point_plan_schedule.csv", LANDMARK, KAPPA, T_MAX, GRID_SIZE,
            PROBE_LAMBDA), record=False)
        landmarks = PROBE_SCORE["landmarks"]
        config = cohort.score_config(
            work, "point_score", self.seeds["score"], {"point": ("current_value", draws, ranef)},
            landmarks, PROBE_SCORE["theta_draws"], PROBE_SCORE["re_draws"],
            PROBE_SCORE["warmup"])
        self.command("score", config, lambda: checks.check_point_mass_scores(
            work / "point_score_scores.csv", "point", landmarks, self.survival,
            PROBE_LAMBDA), record=False)

    def measure(self, seconds: float, tracer=None) -> None:
        """Set up, then whole passes: at least ``MIN_PASSES``, and more while
        the next one would not overrun ``seconds``.

        Each later set-up runs after one of the first passes, so the set-up
        samples are spread over the run.  A tracer records only the first
        set-up and the first pass, so its counts repeat exactly.
        """
        self.setup()
        if self.failed:
            raise SetupError("set-up failed:\n" + "\n".join(self.errors))
        self._pick_subjects()
        operations = self.operations()
        while True:
            self.window = f"pass{len(self.passes)}"
            start = perf_counter()
            for op in operations:
                op()
            self.passes.append(perf_counter() - start)
            if tracer is not None:
                tracer.uninstall()
                tracer = None
            if len(self.setups) < SETUP_REPEATS:
                self.setup()
            total = sum(self.passes)
            if len(self.passes) >= MIN_PASSES and total + total / len(self.passes) > seconds:
                break

    # --- metrics ---------------------------------------------------------------

    def scale(self, window) -> float:
        """Factor that turns a wall time of the window into reference seconds."""
        return calibrate.REFERENCE_S / statistics.fmean(self.calibration[window])

    def _median(self, name, op) -> float:
        return statistics.median(t * self.scale(w) for w, t in self.times[name][op])

    def _typical(self, name, keep=lambda op: True):
        """Mean over the command's operations of each one's median scaled time."""
        medians = [self._median(name, op) for op in self.times[name] if keep(op)]
        return statistics.fmean(medians) if medians else None

    def fit_s(self):
        return self._typical("fit", lambda op: op in {f"fit_{p}.cfg" for p in self.fit_prefixes})

    def end_to_end(self) -> dict:
        s = self.sizes
        fit_s = self.fit_s()
        score_s = self._typical("score")
        chain_iters = CHAINS * (s.pass_fit or s.setup_fit)[0]
        return {
            "setup_s": (statistics.median(t * self.scale(w) for w, t in self.setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "fit_s": (fit_s, "s"),
            "fit_iter_per_s": (_ratio(chain_iters, fit_s), "iter/s"),
            "predict_s": (self._typical("predict"), "s"),
            "schedule_s": (self._typical("schedule"), "s"),
            "score_s": (score_s, "s"),
            "cvdcl_subject_per_s": (_ratio(self.evaluations, score_s), "1/s"),
        }

    def hazard_mixing(self) -> dict:
        """Hazard-block mixing of the measured (else the set-up) current_value
        fit, from its draws CSV."""
        hazard = [n for n in cohort.DRAW_COLUMNS if n.startswith(cohort.HAZARD_PREFIXES)]
        ess = min(mixing.bulk_ess(self.draws[n]) for n in hazard)
        return {
            "mcmc.min_ess": (ess, "count"),
            "mcmc.worst_rhat": (max(mixing.rhat(self.draws[n]) for n in hazard), "1"),
            "mcmc.alpha_move_rate": (float(np.mean(np.diff(self.draws["alpha[0]"]) != 0.0)),
                                     "ratio"),
            "fit_min_ess_per_s": (_ratio(ess, self._median("fit", f"fit_{self.mixing_prefix}.cfg")),
                                  "1/s"),
        }

    def per_layer(self, tracer) -> dict:
        tot, n = tracer.totals(), tracer.counts
        return {
            "numerics.bspline_calls": (n["numerics.bspline"], "count"),
            "numerics.bspline_s": (tot["numerics.bspline"], "s"),
            "model.design_rows": (n["model.design_rows"], "count"),
            "model.design_s": (tot["model.design"], "s"),
            "model.assoc_s": (tot["model.assoc"], "s"),
            "mcmc.fitdata_s": (tot["mcmc.fitdata"], "s"),
            "mcmc.loglik_calls": (n["mcmc.loglik"], "count"),
            "mcmc.loglik_ms": (_ratio(1e3 * tot["mcmc.loglik"], n["mcmc.loglik"]), "ms/call"),
            "mcmc.loglik_s": (tot["mcmc.loglik"], "s"),
            "mcmc.re_prior_s": (tot["mcmc.re_prior"], "s"),
            "mcmc.iter_ms": (_ratio(1e3 * tot["mcmc.fit"], n["mcmc.chain_iters"]), "ms"),
            **self.hazard_mixing(),
            "mcmc.dic_s": (tot["mcmc.dic"], "s"),
            "mcmc.mode_calls": (n["mcmc.mode"], "count"),
            "mcmc.mode_s": (tot["mcmc.mode"], "s"),
            "mcmc.re_mh_calls": (n["mcmc.re_mh"], "count"),
            "mcmc.re_mh_row_iters": (n["mcmc.re_mh_row_iters"], "count"),
            "mcmc.re_mh_s": (tot["mcmc.re_mh"], "s"),
            "mcmc.re_mh_ns_per_row_iter": (_ratio(1e9 * tot["mcmc.re_mh"],
                                                  n["mcmc.re_mh_row_iters"]), "ns"),
            "mcmc.log_target_s": (tot["mcmc.log_target"], "s"),
            "mcmc.cum_hazard_calls": (n["mcmc.cum_hazard"], "count"),
            "mcmc.cum_hazard_s": (tot["mcmc.cum_hazard"], "s"),
            "mcmc.mvt_logpdf_s": (tot["mcmc.mvt_logpdf"], "s"),
            "dynpred.pi_evals": (n["dynpred.pi"], "count"),
            "dynpred.pi_s": (tot["dynpred.pi"], "s"),
            "dynpred.ekl_s": (_ratio(tot["dynpred.ekl"], n["dynpred.ekl"]), "s/point"),
            "dynpred.event_time_calls": (n["dynpred.event_time"], "count"),
            "dynpred.event_time_s": (tot["dynpred.event_time"], "s"),
            "dynpred.event_time_uncapped_ratio": (
                _ratio(n["dynpred.event_time_rows"] - n["dynpred.event_time_capped"],
                       n["dynpred.event_time_rows"]), "ratio"),
            "dynpred.cvdcl_ms": (_ratio(1e3 * tot["dynpred.cvdcl"],
                                        n["dynpred.cvdcl_subjects"]), "ms/subject"),
            "simulate.generate_s": (tot["simulate.generate"], "s"),
            "cli.parse_s": (tot["cli.parse"], "s"),
            "cli.write_s": (tot["cli.write"], "s"),
            "cli.read_s": (tot["cli.read"], "s"),
            "cli.bytes_written": (n["cli.bytes_written"], "B"),
            "cli.bytes_read": (n["cli.bytes_read"], "B"),
        }


def score_landmarks(survival: dict, at_risk) -> tuple:
    """The times at which exactly ``at_risk[i]`` subjects are still at risk:
    midway between two observed times.  Every seed then scores as many
    (subject, landmark) pairs, so the cost of a score does not follow the
    cohort's draw."""
    times = sorted((obs for obs, _ in survival.values()), reverse=True)
    landmarks = []
    for k in at_risk:
        if not times[k - 1] > times[k]:
            raise SetupError(f"no time with exactly {k} subjects at risk")
        landmarks.append((times[k - 1] + times[k]) / 2.0)
    return tuple(landmarks)


def _ratio(num, den):
    return None if num is None or not den else num / den


def run(cli, tracing_modules, name: str, seed: int, seconds: float, trace: bool,
        work: Path, trace_path: Path = None, fit_seed=None, sizes: Sizes = None):
    """Set up, measure and check one workload.

    Returns the result object the benchmark prints and a log for stderr.
    """
    bench = Run(cli, work, sizes or WORKLOADS[name], seed, fit_seed)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(tracing_modules, tracing.entry_points(*tracing_modules[1:]))
    try:
        bench.measure(seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    bench.probes()
    metrics = bench.per_layer(tracer) if trace else bench.end_to_end()
    if tracer is not None and trace_path is not None:
        tracer.write(trace_path)
    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    log = {"setups_s": bench.setups, "passes_s": bench.passes,
           "calibration_ms": {w: 1e3 * statistics.fmean(c) for w, c in bench.calibration.items()},
           "times": bench.times, "errors": bench.errors}
    if bench.draws is not None:
        log["recovery_z"] = checks.recovery_z(bench.draws)
    return result, log
