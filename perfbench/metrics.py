"""Metric definitions and their computation from iterations and spans.

End-to-end metrics come from untraced iterations; per-layer metrics from
the spans of one traced iteration, the outputs it checked, and the
untraced iteration run beside it.  Each metric is ``(name, unit, better)``;
BENCHMARK.json lists the same names and units.
"""

import statistics

import tracing

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class SpanStats:
    """Per-name queries over the merged spans of one traced iteration."""

    def __init__(self, spans):
        self.spans = spans
        self.self_s = tracing.self_times(spans)

    def _select(self, name, under=None):
        for i, (n, _, _, parent) in enumerate(self.spans):
            if n == name and (under is None or self._has_ancestor(parent, under)):
                yield i

    def _has_ancestor(self, i, names):
        while i >= 0:
            if self.spans[i][0] in names:
                return True
            i = self.spans[i][3]
        return False

    def calls(self, name, under=None) -> int:
        return sum(1 for _ in self._select(name, under))

    def inclusive(self, name, under=None) -> list:
        return [self.spans[i][2] - self.spans[i][1] for i in self._select(name, under)]

    def self_list(self, name, under=None) -> list:
        return [self.self_s[i] for i in self._select(name, under)]

    def self_total(self, *names, under=None) -> float:
        return float(sum(sum(self.self_list(n, under)) for n in names))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def _ratio(num, den) -> float:
    return num / den if den else 0.0


FFT = ("fft.fft2", "fft.ifft2")
RECORD = ("sim.conserved", "sim.lambda_proxy", "sim.Stepper.gradient")


def _record_s(st: SpanStats) -> float:
    """conserved + lambda_proxy + the extra gradient, called by sim.run itself."""
    return float(sum(end - start for name, start, end, parent in st.spans
                     if parent >= 0 and name in RECORD and st.spans[parent][0] == "sim.run"))


def _command_s(st: SpanStats, command: str) -> float:
    return float(sum(st.inclusive("cli." + tracing.COMMAND_FUNCTIONS[command])))


def _figure(name):
    return lambda st, it: float(it["figures"].get(name, 0.0))


PER_LAYER = (
    # lab / radial / linops: set-up of every command that builds the lab
    ("lab.get_lab_s", "s", "lower", lambda st, it: st.self_total("lab.get_lab")),
    ("radial.solve_ground_state_s", "s", "lower",
     lambda st, it: st.self_total("radial.solve_ground_state")),
    ("linops.compute_rho_s", "s", "lower",
     lambda st, it: st.self_total("linops.LinearizedOps.compute_rho")),
    ("linops.solve_calls", "count", "lower",
     lambda st, it: st.calls("linops.LinearizedOps.solve")),
    ("linops.solve_s", "s", "lower", lambda st, it: st.self_total("linops.LinearizedOps.solve")),
    ("linops.identity_residuals_s", "s", "lower",
     lambda st, it: st.self_total("linops.LinearizedOps.identity_residuals")),
    # profile / fields / kmodel
    ("profile.build_expansion_s", "s", "lower",
     lambda st, it: st.self_total("profile.build_expansion")),
    ("profile.residual_calls", "count", "lower",
     lambda st, it: st.calls("profile.ProfileExpansion.residual")),
    ("profile.residual_s", "s", "lower",
     lambda st, it: st.self_total("profile.ProfileExpansion.residual")),
    ("fields.on_native_calls", "count", "lower",
     lambda st, it: st.calls("fields.AngularField.on_native")),
    ("fields.on_native_s", "s", "lower",
     lambda st, it: st.self_total("fields.AngularField.on_native")),
    ("kmodel.k_calls", "count", "lower", lambda st, it: st.calls("kmodel.InhomogeneityModel.k")),
    ("kmodel.k_s", "s", "lower", lambda st, it: st.self_total("kmodel.InhomogeneityModel.k")),
    ("kmodel.validate_s", "s", "lower",
     lambda st, it: st.self_total("kmodel.InhomogeneityModel.validate")),
    # modeqs
    ("modeqs.integrate_s", "s", "lower", lambda st, it: st.self_total("modeqs.integrate")),
    ("modeqs.rhs_calls", "count", "lower", lambda st, it: st.calls("modeqs.modulation_rhs")),
    ("modeqs.rhs_s", "s", "lower", lambda st, it: st.self_total("modeqs.modulation_rhs")),
    ("modeqs.appendix_b_s", "s", "lower",
     lambda st, it: st.self_total("modeqs.basis", "modeqs.decaying_solution",
                                  "modeqs.integrate_linear_system", "modeqs.bound_report")),
    # sim
    ("sim.steps", "count", "lower", lambda st, it: st.calls("sim.Stepper.step_values")),
    ("sim.step_s", "s", "lower",
     lambda st, it: _median(st.inclusive("sim.Stepper.step_values"))),
    ("sim.fft_calls", "count", "lower", lambda st, it: sum(st.calls(n) for n in FFT)),
    ("sim.fft_s", "s", "lower", lambda st, it: st.self_total(*FFT)),
    ("sim.step_nonfft_s", "s", "lower",
     lambda st, it: _median(st.self_list("sim.Stepper.step_values"))),
    ("sim.record_s", "s", "lower", lambda st, it: _record_s(st)),
    ("sim.gradient_calls", "count", "lower",
     lambda st, it: st.calls("sim.Stepper.gradient", under=("sim.run",))),
    ("sim.init_from_profile_s", "s", "lower",
     lambda st, it: st.self_total("sim.init_from_profile")),
    ("sim.write_snapshot_s", "s", "lower", lambda st, it: st.self_total("sim.write_snapshot")),
    ("sim.read_snapshot_s", "s", "lower", lambda st, it: st.self_total("sim.read_snapshot")),
    ("sim.snapshot_bytes", "bytes", "lower", _figure("sim.snapshot_bytes")),
    # modfit
    ("modfit.decompose_calls", "count", "lower", lambda st, it: st.calls("modfit.decompose")),
    ("modfit.decompose_s_p50", "s", "lower",
     lambda st, it: _median(st.inclusive("modfit.decompose"))),
    ("modfit.decompose_s_p90", "s", "lower",
     lambda st, it: _p90(st.inclusive("modfit.decompose"))),
    ("modfit.field_samples_per_snapshot", "count", "lower",
     lambda st, it: _ratio(st.calls("modfit.FieldSampler.__call__", under=("modfit.decompose",)),
                           st.calls("modfit.decompose"))),
    ("modfit.field_sample_s", "s", "lower",
     lambda st, it: st.self_total("modfit.FieldSampler.__call__")),
    ("modfit.lyapunov_I_s", "s", "lower", lambda st, it: st.self_total("modfit.lyapunov_I")),
    ("modfit.virial_boundary_s", "s", "lower",
     lambda st, it: st.self_total("modfit.virial_boundary")),
    ("modfit.fit_ratio", "ratio", "higher", _figure("modfit.fit_ratio")),
    # cli
    ("cli.command_s.verify", "s", "lower", lambda st, it: _command_s(st, "verify")),
    ("cli.command_s.profile", "s", "lower", lambda st, it: _command_s(st, "profile")),
    ("cli.command_s.ode", "s", "lower", lambda st, it: _command_s(st, "ode")),
    ("cli.command_s.appendix-b", "s", "lower", lambda st, it: _command_s(st, "appendix-b")),
    ("cli.command_s.simulate", "s", "lower", lambda st, it: _command_s(st, "simulate")),
    ("cli.command_s.analyze", "s", "lower", lambda st, it: _command_s(st, "analyze")),
    ("cli.write_s", "s", "lower", lambda st, it: st.self_total("cli.write_csv", "cli.write_json")),
    # untraced command times of the iteration run beside the traced one
    ("cli.simulate_s", "s", "lower", lambda st, it: it["plain_command_s"].get("simulate", 0.0)),
    ("cli.analyze_s_per_snapshot", "s", "lower",
     lambda st, it: _ratio(it["plain_command_s"].get("analyze", 0.0),
                           st.calls("modfit.decompose"))),
    ("cli.profile_s", "s", "lower", lambda st, it: it["plain_command_s"].get("profile", 0.0)),
    ("cli.failed_ratio", "ratio", "lower", lambda st, it: _ratio(it["failed"], it["attempted"])),
    # accuracy figures, recorded beside the timings (workloads.py gates some)
    ("sim.mass_drift_rel", "ratio", "lower", _figure("sim.mass_drift_rel")),
    ("sim.energy_drift_rel_kin", "ratio", "lower", _figure("sim.energy_drift_rel_kin")),
    ("sim.lambda_final", "1", "lower", _figure("sim.lambda_final")),
    ("profile.residual_slope_last", "1", "higher", _figure("profile.residual_slope_last")),
    ("cli.verify_max_residual", "ratio", "lower", _figure("cli.verify_max_residual")),
    ("modfit.C0_est_rel_err", "ratio", "lower", _figure("modfit.C0_est_rel_err")),
    ("modfit.eps_L2_max", "1", "lower", _figure("modfit.eps_L2_max")),
    ("modeqs.lambda_s_rel_err", "ratio", "lower", _figure("modeqs.lambda_s_rel_err")),
    ("modeqs.appendix_b_basis_residual_max", "1", "lower",
     _figure("modeqs.appendix_b_basis_residual_max")),
    ("modeqs.appendix_b_voc_vs_ode_max", "1", "lower",
     _figure("modeqs.appendix_b_voc_vs_ode_max")),
    # the host-speed sampler during the untraced iteration, and that
    # iteration's measured (unscaled) wall time
    ("host.kernel_s", "s", "lower", lambda st, it: it["plain_host_kernel_s"]),
    ("cli.wall_unscaled_s", "s", "lower", lambda st, it: it["plain_wall_s"]),
    # the tracer itself
    ("trace.spans", "count", "lower", lambda st, it: len(st.spans)),
    ("trace.overhead_s", "s", "lower",
     lambda st, it: it["wall_s"] * it["scale"] - it["plain_wall_s"] * it["plain_scale"]),
)


def end_to_end(iterations, peak_rss_mb: float) -> dict:
    """Medians over the untraced iterations of one run.

    Times are scaled to the reference host speed by each iteration's
    ``scale`` (host.py): reference kernel time over kernel time measured.
    """
    values = {
        "setup_s": _median([it["setup_s"] * it["scale"] for it in iterations]),
        "wall_s": _median([it["wall_s"] * it["scale"] for it in iterations]),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer(traced: dict, plain: dict) -> dict:
    """Per-layer metrics of one traced iteration and its untraced twin."""
    st = SpanStats(traced["spans"])
    it = dict(traced, plain_command_s=plain["command_s"], plain_wall_s=plain["wall_s"],
              plain_host_kernel_s=plain["host_kernel_s"], plain_scale=plain["scale"],
              attempted=traced["attempted"] + plain["attempted"],
              failed=traced["failed"] + plain["failed"])
    return {name: {"value": float(fn(st, it)), "unit": unit}
            for name, unit, _, fn in PER_LAYER}
