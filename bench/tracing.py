"""Span tracing of groupmotion's public functions, from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that
records a span (name, start, end, parent span) and restores the originals
on `uninstall()`. A function is replaced in every groupmotion module that
holds it, because modules import names directly: `composer` calls its own
`ddim_sample` and `aggregate`, `priors` its own `build_pair_scripts`, and
`cli` its own `evaluate_runs`, `write_motion` and so on. Replacing only
the defining module would leave those calls unseen.

Self time is a span's duration minus the time its child spans cover.
Besides spans the tracer counts tape nodes (every `autodiff.Var`
constructed), constant leaves and node value bytes inside each objective
evaluation of `optimize_noise`, plus the bytes of every motion file
written.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (span name, module, attribute); the attribute may be "Class.method"
TRACED = (
    ("autodiff.grad", "autodiff", "grad"),
    ("autodiff.adam", "autodiff", "Adam.step"),
    ("scripts.build_pair_scripts", "scripts", "build_pair_scripts"),
    ("priors.predict", "priors", "AnalyticPrior.predict"),
    ("priors.predict", "priors", "MLPPrior.predict"),
    ("priors.train", "priors", "train"),
    ("diffusion.ddim", "diffusion", "ddim_sample"),
    ("diffusion.masked", "diffusion", "masked_sample"),
    ("diffusion.inpaint", "diffusion", "inpaint_extend"),
    ("penalties.aggregate", "penalties", "aggregate"),
    ("composer.optimize", "composer", "optimize_noise"),
    ("metrics.evaluate_runs", "metrics", "evaluate_runs"),
    ("metrics.penetration", "metrics", "proxy_penetration_volume"),
    ("motion.write", "motion", "write_motion"),
    ("motion.read", "motion", "read_motion"),
    ("corpus.generate", "corpus", "generate_corpus"),
)

CLI_COMMANDS = ("corpus", "train", "compose", "eval", "export")


class Tracer:
    def __init__(self):
        self._patches = []       # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self.vars = [0, 0, 0]    # nodes, value bytes, constant leaves
        self.evaluations = 0
        self.eval_vars = [0, 0, 0]
        self.bytes_written = 0

    # -- spans -----------------------------------------------------------

    def _span(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn):
        if name == "composer.optimize":
            @functools.wraps(fn)
            def optimize(objective, x_init, config):
                return self._span(name, fn, self._counted(objective),
                                  x_init, config)
            return optimize
        if name == "motion.write":
            @functools.wraps(fn)
            def write(seq, path):
                out = self._span(name, fn, seq, path)
                self.bytes_written += os.path.getsize(path)
                return out
            return write

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, objective):
        def evaluate(var):
            before = list(self.vars)
            out = objective(var)
            self.evaluations += 1
            for i in range(3):
                self.eval_vars[i] += self.vars[i] - before[i]
            return out
        return evaluate

    # -- install / uninstall ------------------------------------------------

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        from groupmotion import autodiff, cli
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.split(".")[0] == "groupmotion" and m is not None]
        for name, mod, attr in TRACED:
            owner = sys.modules[f"groupmotion.{mod}"]
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(owner, cls)
                self._replace(owner, meth,
                              self._wrapper(name, owner.__dict__[meth]))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrapper(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._replace(m, key, wrapped)
        for cmd in CLI_COMMANDS:
            orig = cli.COMMANDS[cmd]
            self._patches.append((cli.COMMANDS, cmd, orig))
            cli.COMMANDS[cmd] = self._wrapper(f"cli.{cmd}", orig)

        var_init = autodiff.Var.__init__
        counts = self.vars

        def counting_init(var, value, parents=(), backward=None,
                          requires_grad=True):
            var_init(var, value, parents, backward, requires_grad)
            counts[0] += 1
            counts[1] += var.value.nbytes
            if not requires_grad:
                counts[2] += 1
        self._replace(autodiff.Var, "__init__", counting_init)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds; plus the
        counters."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]
        return {"calls": dict(calls), "total": dict(total),
                "self": dict(self_s), "evaluations": self.evaluations,
                "eval_nodes": self.eval_vars[0],
                "eval_bytes": self.eval_vars[1],
                "eval_consts": self.eval_vars[2],
                "bytes_written": self.bytes_written}
