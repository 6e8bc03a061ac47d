"""In-memory span tracing of the nlsblow layers, installed from outside src/.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
enclosing span of the same process, or -1.  ``instrument`` replaces each
trace point (a public function or method of a layer) by a wrapper that
records one span per call.  Spans stay in memory until the process writes
them out; ``self_times`` turns them into time not covered by child spans.
"""

import functools
import importlib
import sys

# Set-up boundaries: what a command does before its own work starts.  Only
# these are wrapped in an untraced run, to time set-up at full speed.
SETUP_POINTS = (
    ("nlsblow.config", "load_config"),
    ("nlsblow.lab", "get_lab"),
    ("nlsblow.kmodel", "InhomogeneityModel.validate"),
    ("nlsblow.profile", "build_expansion"),
)

COMMAND_FUNCTIONS = {
    "verify": "cmd_verify",
    "profile": "cmd_profile",
    "ode": "cmd_ode",
    "appendix-b": "cmd_appendix_b",
    "simulate": "cmd_simulate",
    "analyze": "cmd_analyze",
}

# Every boundary a traced run records, layer by layer.
TRACE_POINTS = SETUP_POINTS + (
    ("nlsblow.radial", "solve_ground_state"),
    ("nlsblow.radial", "moments"),
    ("nlsblow.linops", "LinearizedOps.compute_rho"),
    ("nlsblow.linops", "LinearizedOps.solve"),
    ("nlsblow.linops", "LinearizedOps.identity_residuals"),
    ("nlsblow.kmodel", "InhomogeneityModel.k"),
    ("nlsblow.fields", "AngularField.on_native"),
    ("nlsblow.profile", "derive_constants"),
    ("nlsblow.profile", "ProfileExpansion.residual"),
    ("nlsblow.modeqs", "integrate"),
    ("nlsblow.modeqs", "modulation_rhs"),
    ("nlsblow.modeqs", "basis"),
    ("nlsblow.modeqs", "decaying_solution"),
    ("nlsblow.modeqs", "integrate_linear_system"),
    ("nlsblow.modeqs", "bound_report"),
    ("nlsblow.sim", "init_from_profile"),
    ("nlsblow.sim", "run"),
    ("nlsblow.sim", "Stepper.step_values"),
    ("nlsblow.sim", "Stepper.gradient"),
    ("nlsblow.sim", "conserved"),
    ("nlsblow.sim", "lambda_proxy"),
    ("nlsblow.sim", "write_snapshot"),
    ("nlsblow.sim", "read_snapshot"),
    # sim looks these up on the scipy.fft module at call time
    ("scipy.fft", "fft2"),
    ("scipy.fft", "ifft2"),
    ("nlsblow.modfit", "decompose"),
    ("nlsblow.modfit", "FieldSampler.__call__"),
    ("nlsblow.modfit", "lyapunov_I"),
    ("nlsblow.modfit", "virial_boundary"),
    ("nlsblow.modfit", "fit_rate"),
    ("nlsblow.cli", "write_csv"),
    ("nlsblow.cli", "write_json"),
) + tuple(("nlsblow.cli", fn) for fn in COMMAND_FUNCTIONS.values())


def span_name(module: str, attr: str) -> str:
    """``nlsblow.sim`` + ``Stepper.gradient`` -> ``sim.Stepper.gradient``."""
    return module.rsplit(".", 1)[-1] + "." + attr


class Tracer:
    """Collects spans of one single-threaded process."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def instrument(tracer: Tracer, points) -> None:
    """Wrap every ``(module, "func")`` or ``(module, "Class.method")`` point.

    A module-level function is also replaced wherever an ``nlsblow`` module
    holds a reference to it (``from .lab import get_lab``), including the
    CLI's command table.
    """
    commands = importlib.import_module("nlsblow.cli").COMMANDS
    for module_name, attr in points:
        module = importlib.import_module(module_name)
        owner_path, _, leaf = attr.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        traced = tracer.wrap(original, span_name(module_name, attr))
        setattr(owner, leaf, traced)
        if owner is not module:
            continue
        for name, mod in list(sys.modules.items()):
            if name.startswith("nlsblow") and mod is not None:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, traced)
        for key, val in commands.items():
            if val is original:
                commands[key] = traced


def self_times(spans) -> list:
    """Span duration minus the time covered by its direct child spans.

    Spans of one thread nest, so the children of a span never overlap and
    their durations add.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def setup_end(spans, t_default: float) -> float:
    """End of the set-up phase: the latest first-call end of a set-up point."""
    names = {span_name(m, a) for m, a in SETUP_POINTS}
    first = {}
    for name, _, end, _ in spans:
        if name in names and name not in first and end is not None:
            first[name] = end
    return max(first.values(), default=t_default)
