"""Span tracing of the library from the benchmark's own files.

While a :class:`Tracer` is installed, every public function of interest is
replaced by a timing wrapper at each name a caller bound it to: the
function object is looked up in every ``bayescomp`` module, so a call such
as ``abc.sample_categorical(...)`` is wrapped in ``abc`` as well as in
``core``.  Constructors are traced through the class's ``__post_init__``;
factories that return closures (the probit latent completion, the capture
conditionals) get their closures wrapped on the way out.  Nothing in the
library's source changes, and the wrappers touch no random stream, so the
outputs of a traced run are byte-identical to an untraced one.

Each span records its name, start, end, parent span, run id and thread.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

import numpy as np

from bayescomp.model import LatentCompletion
from workloads import EVIDENCE_METHODS

MODULES = ("core", "model", "probit", "capture", "mixture", "datasets",
           "montecarlo", "pmc", "mcmc", "evidence", "abc", "cli")

# (defining module, function name) -> span name
FUNCTIONS = {
    ("core", "truncated_normal_vector"): "core.truncnorm",
    ("core", "sample_truncated_normal"): "core.truncnorm",
    ("core", "sample_categorical"): "core.categorical",
    ("core", "sample_categorical_many"): "core.categorical",
    ("core", "log_sum_exp"): "core.lse",
    ("model", "log_posterior"): "model.log_posterior",
    ("probit", "probit_loglik"): "probit.loglik",
    ("probit", "probit_loglik_many"): "probit.loglik_many",
    ("probit", "probit_mle"): "probit.mle",
    ("probit", "probit_abc_summary"): "probit.abc_summary",
    ("probit", "probit_latent_completion"): "probit.completion",
    ("mcmc", "probit_gibbs_run"): "mcmc.gibbs",
    ("mcmc", "rw_mh_run"): "mcmc.mh",
    ("mcmc", "mwg_probit_overparam_run"): "mcmc.mwg",
    ("mcmc", "chain_diagnostics"): "mcmc.diag",
    ("capture", "capture_gibbs_run"): "capture.run",
    ("capture", "capture_loglik"): "capture.loglik",
    ("capture", "capture_gibbs_conditionals"): "capture.conditionals",
    ("evidence", "bf_prior_mc"): "evidence.prior-mc",
    ("evidence", "bf_importance"): "evidence.importance",
    ("evidence", "harmonic_mean_gd"): "evidence.harmonic-gd",
    ("evidence", "newton_raftery_hm"): "evidence.harmonic-nr",
    ("evidence", "chib_marginal"): "evidence.chib",
    ("evidence", "bridge_embedded"): "evidence.bridge-embedded",
    ("evidence", "bridge_sampling"): "evidence.bridge",
    ("evidence", "_log_mean_exp"): "evidence.log_mean_exp",
    ("evidence", "_batch_log_means"): "evidence.batch_means",
    ("pmc", "pmc_run"): "pmc.run",
    ("pmc", "_mixture_logpdf"): "pmc.mixture_logpdf",
    ("abc", "probit_abc"): "abc.run",
    ("abc", "abc_pmc"): "abc.pmc",
    ("abc", "abc_reject"): "abc.gen0",
    ("mixture", "mixture_logpost"): "mixture.logpost",
    ("datasets", "load_pima"): "datasets.load",
    ("cli", "run_experiment"): "cli.run_experiment",
    ("cli", "replicate"): "cli.replicate",
}

# (defining module, class, method) -> span name
METHODS = {
    ("core", "RngStream", "__post_init__"): "core.streams",
    ("core", "MvnParams", "__post_init__"): "core.mvn_params",
    ("montecarlo", "GaussianProposal", "__post_init__"): "montecarlo.gaussian",
    ("montecarlo", "GaussianProposal", "logpdf_many"): "montecarlo.logpdf_many",
}

# span name -> function(args, kwargs, result) giving a value kept on the span
_NOTES = {
    "probit.loglik_many": lambda a, k, r: len(r),
    "montecarlo.logpdf_many": lambda a, k, r: len(r),
    "mcmc.gibbs": lambda a, k, r: len(r[0]),
    "mcmc.mh": lambda a, k, r: (len(r), r.acceptance_rate),
    "mcmc.mwg": lambda a, k, r: (len(r), r.acceptance_rate),
    "capture.run": lambda a, k, r: len(r["N"]),
    "pmc.run": lambda a, k, r: len(r),
    "abc.pmc": lambda a, k, r: (sum(p.n_proposals for p in r),
                                sum(len(p) for p in r), len(r),
                                r[-1].epsilon),
}

# spans that also record the thread's CPU time, for GIL-wait accounting
_CPU_TIMED = {"cli.run_experiment"}

NAME, START, END, PARENT, RUN, THREAD, NOTE, CPU = range(8)


class Tracer:
    """Installs the wrappers, collects spans, and removes the wrappers."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, post=None):
        spans = self.spans
        note = _NOTES.get(name)
        cpu = name in _CPU_TIMED
        clock = time.perf_counter
        thread_time = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id,
                   threading.get_ident(), None, None]
            spans.append(rec)
            stack.append(rec)
            c0 = thread_time() if cpu else 0.0
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                if cpu:
                    rec[CPU] = thread_time() - c0
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return post(result) if post is not None else result

        return traced

    def _wrap_completion(self, completion):
        return LatentCompletion(
            self.wrap("probit.latents", completion.sample_latents),
            self.wrap("probit.params", completion.sample_params),
            completion.log_full_conditional_param)

    def _wrap_conditionals(self, cond):
        return {k: self.wrap(f"capture.cond.{k}", f) for k, f in cond.items()}

    def install(self):
        modules = [importlib.import_module(f"bayescomp.{m}") for m in MODULES]
        posts = {"probit.completion": self._wrap_completion,
                 "capture.conditionals": self._wrap_conditionals}
        for (mod, attr), name in FUNCTIONS.items():
            original = getattr(importlib.import_module(f"bayescomp.{mod}"), attr)
            wrapper = self.wrap(name, original, posts.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for (mod, cls_name, attr), name in METHODS.items():
            cls = getattr(importlib.import_module(f"bayescomp.{mod}"), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one CSV row; parents by row index."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,run,thread\n")
            for rec in self.spans:
                parent = index[id(rec[PARENT])] if rec[PARENT] is not None else -1
                fh.write(f"{rec[NAME]},{rec[START]!r},{rec[END]!r},{parent},"
                         f"{rec[RUN]},{rec[THREAD]}\n")


_TAIL_PCTS = (99.9, 99.0, 90.0, 50.0)


def call_stats(values):
    """(median, tail, tail percentile) of per-call values.  The tail is the
    highest of 99.9/99/90/50 with at least ten samples beyond it; all
    three are 0 when there are too few samples for any."""
    n = len(values)
    pct = next((p for p in _TAIL_PCTS if n * (1.0 - p / 100.0) >= 10), 0.0)
    if not pct:
        return 0.0, 0.0, 0.0
    p50, tail = np.percentile(values, [50.0, pct])
    return float(p50), float(tail), pct


def _dur(recs):
    return sum(r[END] - r[START] for r in recs)


def _outer(recs):
    """Spans not nested in a span of the same name (recursion-free total)."""
    return [r for r in recs if r[PARENT] is None or r[PARENT][NAME] != r[NAME]]


def _by_thread(recs):
    out = {}
    for r in recs:
        out.setdefault(r[THREAD], []).append(r)
    return out


def _pairs(first, last):
    """Per-thread (start of each `first` span, end of the matching `last`)."""
    a, b = _by_thread(first), _by_thread(last)
    return [(x[START], y[END]) for t in a for x, y in zip(a[t], b.get(t, ()))]


def layer_metrics(spans, main_thread):
    """Per-layer metrics of one traced pass."""
    by = {}
    for rec in spans:
        by.setdefault(rec[NAME], []).append(rec)
    get = lambda name: by.get(name, [])
    notes = lambda name: [r[NOTE] for r in get(name)]
    ratio = lambda a, b: a / b if b else 0.0
    m = {}

    m["core.streams.count"] = len(get("core.streams"))
    m["core.streams.s"] = _dur(get("core.streams"))
    m["core.mvn_params.count"] = len(get("core.mvn_params"))
    m["core.truncnorm.s"] = _dur(_outer(get("core.truncnorm")))
    cat = _outer(get("core.categorical"))
    m["core.categorical.count"] = len(cat)
    m["core.categorical.s"] = _dur(cat)
    m["core.lse.count"] = len(get("core.lse"))

    m["model.log_posterior.count"] = len(get("model.log_posterior"))
    m["model.log_posterior.s"] = _dur(get("model.log_posterior"))

    ll = get("probit.loglik")
    m["probit.loglik.count"] = len(ll)
    m["probit.loglik.s"] = _dur(ll)
    (m["probit.loglik_us.p50"], m["probit.loglik_us.tail"],
     m["probit.loglik_us.tail_pct"]) = call_stats(
        [(r[END] - r[START]) * 1e6 for r in ll])
    rows = sum(notes("probit.loglik_many"))
    m["probit.loglik_many.rows"] = rows
    m["probit.batched_share"] = ratio(rows, rows + len(ll))
    sweeps = _pairs(get("probit.latents"), get("probit.params"))
    (m["probit.sweep_us.p50"], m["probit.sweep_us.tail"],
     m["probit.sweep_us.tail_pct"]) = call_stats(
        [(b - a) * 1e6 for a, b in sweeps])
    m["probit.mle.s"] = _dur(get("probit.mle"))
    m["probit.abc_summary.count"] = len(get("probit.abc_summary"))

    m["mcmc.gibbs_chains.count"] = len(get("mcmc.gibbs"))
    m["mcmc.gibbs.sweep_us"] = 1e6 * ratio(_dur(get("mcmc.gibbs")),
                                           sum(notes("mcmc.gibbs")))
    for kind in ("mh", "mwg"):
        recs = get(f"mcmc.{kind}")
        steps = sum(n for n, _ in notes(f"mcmc.{kind}"))
        m[f"mcmc.{kind}.step_us"] = 1e6 * ratio(_dur(recs), steps)
        m[f"mcmc.{kind}.accept_rate"] = ratio(
            sum(n * a for n, a in notes(f"mcmc.{kind}")), steps)
    m["mcmc.diag.s"] = _dur(get("mcmc.diag"))

    cap = _pairs(get("capture.cond.p"), get("capture.cond.N"))
    (m["capture.sweep_us.p50"], m["capture.sweep_us.tail"],
     m["capture.sweep_us.tail_pct"]) = call_stats(
        [(b - a) * 1e6 for a, b in cap])
    m["capture.loglik.s"] = _dur(get("capture.loglik"))
    m["capture.conditionals.s"] = _dur(get("capture.conditionals"))

    for method in EVIDENCE_METHODS:
        m[f"evidence.{method}.s"] = _dur(get(f"evidence.{method}"))
    bridge = get("evidence.bridge")
    lme = [r for r in get("evidence.log_mean_exp")
           if r[PARENT] is not None and r[PARENT][NAME] == "evidence.bridge"]
    m["evidence.bridge.iters"] = ratio(len(lme), 2 * len(bridge))

    m["montecarlo.gaussian.count"] = len(get("montecarlo.gaussian"))
    lpm = notes("montecarlo.logpdf_many")
    m["montecarlo.logpdf_many.calls"] = len(lpm)
    m["montecarlo.logpdf_many.rows_per_call"] = ratio(sum(lpm), len(lpm))

    m["pmc.run.s"] = _dur(get("pmc.run"))
    m["pmc.iter_s"] = ratio(_dur(get("pmc.run")), sum(notes("pmc.run")))
    m["pmc.mixture_logpdf.s"] = _dur(get("pmc.mixture_logpdf"))

    abc = notes("abc.pmc")
    proposals = sum(n[0] for n in abc)
    m["abc.run.s"] = _dur(get("abc.run"))
    m["abc.gen0.s"] = _dur(get("abc.gen0"))
    m["abc.proposals"] = proposals
    m["abc.us_per_proposal"] = 1e6 * ratio(_dur(get("abc.pmc")), proposals)
    m["abc.accept_rate"] = ratio(sum(n[1] for n in abc), proposals)
    m["abc.generations"] = ratio(sum(n[2] for n in abc), len(abc))
    m["abc.final_eps"] = ratio(sum(n[3] for n in abc), len(abc))

    m["mixture.logpost.count"] = len(get("mixture.logpost"))
    m["datasets.load.count"] = len(get("datasets.load"))
    m["datasets.load.s"] = _dur(get("datasets.load"))

    runs = get("cli.run_experiment")
    m["cli.run_experiment.count"] = len(runs)
    pooled = [r for r in runs if r[THREAD] != main_thread]
    busy = _dur(pooled)
    m["cli.replicate.busy_s"] = busy
    m["cli.replicate.gil_wait_s"] = busy - sum(r[CPU] for r in pooled)
    m["cli.replicate.speedup"] = ratio(busy, _dur(get("cli.replicate")))
    main = get("cli.main")
    child = sum(r[END] - r[START] for r in spans
                if r[PARENT] is not None and r[PARENT][NAME] == "cli.main")
    m["cli.io.s"] = _dur(main) - child
    return m
