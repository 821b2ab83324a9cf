"""Spans and counts at the entry points of each jmsched module.

``Tracer.install`` replaces each entry point with a wrapper that records a
span (name, start, end, parent) and the counts of the work it was handed.
Several modules import names from others (``dynpred._re_mh_draws``,
``simulate.simulate_event_time``), so a function is replaced wherever a
module binds it, not only where it is defined.  Nothing under ``src/`` is
edited; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from time import perf_counter


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_rows(counts, args, kwargs, out):
    counts["model.design_rows"] += len(out)


def _count_chain_iters(counts, args, kwargs, out):
    config = _arg(args, kwargs, 4, "config")
    counts["mcmc.chain_iters"] += config.chains * config.iterations


def _count_row_iters(counts, args, kwargs, out):
    th = _arg(args, kwargs, 1, "th")
    iters = _arg(args, kwargs, 4, "warmup") + (_arg(args, kwargs, 6, "n_keep", 0) or 0)
    counts["mcmc.re_mh_row_iters"] += th.size * iters


def _count_event_times(counts, args, kwargs, out):
    _, capped = out
    counts["dynpred.event_time_rows"] += capped.size
    counts["dynpred.event_time_capped"] += int(capped.sum())


def _count_at_risk(counts, args, kwargs, out):
    dataset, t = _arg(args, kwargs, 1, "dataset"), _arg(args, kwargs, 2, "t")
    counts["dynpred.cvdcl_subjects"] += sum(1 for s in dataset.subjects if s.event_time > t)


def _count_read(*positions):
    def count(counts, args, kwargs, out):
        for i in positions:
            counts["cli.bytes_read"] += os.path.getsize(args[i])
    return count


def _count_written(counts, args, kwargs, out):
    counts["cli.bytes_written"] += sum(os.path.getsize(p) for p in out)


def entry_points(numerics, model, mcmc, dynpred, simulate, cli):
    """(owner, attribute, span name, counter) for every traced boundary."""
    design = ("fixed_matrix", "random_matrix", "fixed_deriv_matrix",
              "random_deriv_matrix", "fixed_integral_matrix", "random_integral_matrix")
    return [
        (numerics, "bspline_matrix", "numerics.bspline", None),
        (numerics, "bspline_deriv_matrix", "numerics.bspline", None),
        *[(model.LongitudinalSpec, name, "model.design", _count_rows) for name in design],
        (model.JointModelSpec, "baseline_matrix", "model.design", _count_rows),
        (model.AssociationForm, "value", "model.assoc", None),
        (mcmc._FitData, "__init__", "mcmc.fitdata", None),
        (mcmc._FitData, "per_subject_loglik", "mcmc.loglik", None),
        (mcmc._FitData, "re_log_prior", "mcmc.re_prior", None),
        (mcmc, "fit", "mcmc.fit", _count_chain_iters),
        (mcmc, "dic", "mcmc.dic", None),
        (mcmc, "posterior_mode_re", "mcmc.mode", None),
        (mcmc, "_re_mh_draws", "mcmc.re_mh", _count_row_iters),
        (mcmc._ConditionData, "log_target", "mcmc.log_target", None),
        (mcmc._ConditionData, "cum_hazard", "mcmc.cum_hazard", None),
        (mcmc._ConditionData, "cum_hazard_rowwise", "mcmc.cum_hazard", None),
        (mcmc, "_mvt_logpdf", "mcmc.mvt_logpdf", None),
        (dynpred._PiMachine, "pi", "dynpred.pi", None),
        (dynpred, "ekl", "dynpred.ekl", None),
        (dynpred, "_event_time_batch", "dynpred.event_time", _count_event_times),
        (dynpred, "cv_dcl", "dynpred.cvdcl", _count_at_risk),
        (simulate, "generate_dataset", "simulate.generate", None),
        (cli, "load_config", "cli.parse", _count_read(0)),
        (cli, "parse_dataset", "cli.parse", _count_read(0, 1)),
        (mcmc, "read_draws_csv", "cli.read", _count_read(0)),
        (mcmc, "read_ranef_csv", "cli.read", _count_read(0)),
        (cli, "write_dataset", "cli.write", None),
        (mcmc, "write_draws_csv", "cli.write", None),
        (mcmc, "write_ranef_csv", "cli.write", None),
        (mcmc, "write_diagnostics_report", "cli.write", None),
        (cli, "write_schedule_csv", "cli.write", None),
        (cli, "run", "cli.run", _count_written),
    ]


class Tracer:
    """In-memory spans plus counts, keyed by span name."""

    def __init__(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.outermost = []          # False when nested in a span of the same name
        self.counts = Counter()
        self._stack = []
        self._active = Counter()
        self._patched = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.outermost.append(self._active[name] == 0)
            self.ends.append(0.0)
            self._stack.append(idx)
            self._active[name] += 1
            self.starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._active[name] -= 1
                self._stack.pop()
            self.counts[name] += 1
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out
        return traced

    def install(self, modules, targets) -> None:
        """Wrap each target in its owner and in every module binding it."""
        for owner, attr, name, count in targets:
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, count)
            holders = [owner] + [m for m in modules
                                 if m is not owner and m.__dict__.get(attr) is original]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def totals(self) -> Counter:
        """Seconds inside spans of each name, each interval counted once."""
        out = Counter()
        for i, name in enumerate(self.names):
            if self.outermost[i]:
                out[name] += self.ends[i] - self.starts[i]
        return out

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def write(self, path) -> None:
        """One CSV row per span: id, parent, name, start, end, self time."""
        own = self.self_times()
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{name},{self.starts[i] - t0!r},"
                         f"{self.ends[i] - t0!r},{own[i]!r}\n")
