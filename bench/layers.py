"""Per-layer metrics of the traced run, computed from the recorded spans.

Counts of inner work are read off the span tree: a flow iteration or a
polish sweep is one `_nonlinearity` call under `minimize` or
`refine_fixed_point`, and a time step is one `_coefficients` call under
`evolve`.  Means per call cover every traced span of the run (the traced
passes and the probe battery; the set-up, which pays one-time lazy imports,
is not traced); "per pass" counts cover the traced passes only.
"""

from __future__ import annotations

import statistics

from tracing import ERROR, LAYERS, NAME, PARENT
from workloads import CLI_COMMANDS

WRITERS = {"write_json", "write_metadata", "write_profile_csv",
           "write_groundstate_json", "write_trace_csv"}


def per_layer(tracer, plain, traced, roots, kernels, failed, attempted,
              cli_bytes, cli_commands):
    spans = tracer.spans
    kids = tracer.children()
    dur = tracer.duration

    def inner(indices, child):
        """Total count of `child` spans directly under each of `indices`."""
        return sum(1 for i in indices for c in kids[i] if spans[c][NAME] == child)

    def mean_ms(name):
        idx = tracer.named(name)
        return 1e3 * sum(map(dur, idx)) / len(idx)

    in_pass = set(tracer.within(roots))
    per_pass = len(roots)

    m = dict(kernels)
    minimize = tracer.named("minimize")
    refine = tracer.named("refine_fixed_point")
    iters = inner(minimize, "_nonlinearity")
    sweeps = inner(refine, "_nonlinearity")
    fallbacks = [i for i in refine if spans[i][ERROR] == "DivergenceError"]
    splits = tracer.named("subadditivity_check")
    m.update({
        "ground_state.minimize_iters": iters / len(minimize),
        "ground_state.iter_us": 1e6 * sum(map(dur, minimize)) / iters,
        "ground_state.refine_sweeps": sweeps / len(refine),
        "ground_state.sweep_us": 1e6 * sum(map(dur, refine)) / sweeps,
        "ground_state.refine_fallbacks":
            sum(1 for i in fallbacks if i in in_pass) / per_pass,
        "ground_state.refine_useful_frac": 1 - len(fallbacks) / len(refine),
        "ground_state.solves_per_split": inner(splits, "minimize") / len(splits),
    })

    evolves = tracer.named("evolve")
    steps = inner(evolves, "_coefficients")
    orbital = tracer.named("orbital_distance")
    experiments = tracer.named("stability_experiment")
    m.update({
        "evolution.evolve_step_us": 1e6 * sum(map(dur, evolves)) / steps,
        "evolution.steps":
            inner([i for i in evolves if i in in_pass], "_coefficients") / per_pass,
        "stability.orbital_distance_calls":
            sum(1 for i in orbital if i in in_pass) / per_pass,
        "stability.orbital_share":
            sum(map(dur, orbital)) / sum(map(dur, experiments)),
        "stability.perturb_ms": mean_ms("perturb"),
    })

    writes = [i for i, s in enumerate(spans) if s[NAME] in WRITERS
              and (s[PARENT] < 0 or spans[s[PARENT]][NAME] not in WRITERS)]
    m.update({
        "cli.load_config_ms": mean_ms("load_config"),
        "cli.write_s": sum(map(dur, writes)) / cli_commands,
        "cli.bytes_written": cli_bytes / cli_commands,
    })
    for cmd in CLI_COMMANDS:
        m[f"cli.cmd_s.{cmd}"] = mean_ms(f"cmd_{cmd}") / 1e3

    selfs = [tracer.self_times(r) for r in roots]
    self_s = {layer: sum(s.get(layer, 0.0) for s in selfs) / per_pass
              for layer in LAYERS + ("bench",)}
    # Overhead: spans per traced pass times the cost of one span, over the
    # untraced pass of the same inputs.  Reconciliation: a traced pass (the
    # sum of its self times) exceeds its untraced twin by `excess`, median
    # over the pairs; the tracing accounts for it when excess is within
    # overhead of the overhead, widened by the pairs' spread (IQR), which is
    # machine noise since both passes of a pair do the same work.
    span_s = tracer.span_cost_s()
    overhead = statistics.median(
        len(tracer.within([r])) * span_s / u["raw_pass_s"]
        for r, u in zip(roots, plain))
    excesses = [t["raw_pass_s"] / u["raw_pass_s"] - 1
                for t, u in zip(traced, plain)]
    excess = statistics.median(excesses)
    if len(excesses) > 1:
        q1, _, q3 = statistics.quantiles(excesses, n=4)
        noise = q3 - q1
    else:
        noise = 0.0
    m["trace.overhead_frac"] = overhead
    m["failed_frac"] = failed / attempted

    notes = {"traced_passes": per_pass, "span_cost_us": 1e6 * span_s,
             "untraced_pass_s": [u["raw_pass_s"] for u in plain],
             "traced_pass_s": [t["raw_pass_s"] for t in traced],
             "self_s_per_pass": self_s, "self_s_sum": sum(self_s.values()),
             "trace_excess_frac": excess, "trace_pair_noise": noise,
             "reconciled": abs(excess - overhead) <= overhead + noise,
             "spans": len(spans)}
    return m, notes
