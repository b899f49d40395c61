"""Output checks run after each pipeline, outside every timed region.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math

import numpy as np

from snnkit import metrics, network, pipeline
from snnkit.encoding import DIRECT, HYBRID
from snnkit.metrics import EnergyCosts

ENERGY_RTOL = 1e-9


def outputs(report) -> tuple:
    """The results a pipeline must reproduce exactly: accuracies, energy ratio, spike activity."""
    return (
        report.accuracy_ann,
        report.accuracy_converted,
        report.accuracy_finetuned,
        report.energy.ratio,
        tuple(report.energy.spike_activity),
    )


def check_report_reload(exp, report) -> list:
    """report.json reloads through pipeline.load_report to the same report."""
    try:
        loaded = pipeline.load_report(exp.cfg.out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"report.json does not reload: {exc!r}"]
    if loaded.to_dict() != json.loads(json.dumps(report.to_dict())):
        return ["report.json does not reload to the report the pipeline returned"]
    return []


def check_same_outputs(expected: tuple, report, what: str) -> list:
    got = outputs(report)
    if got != expected:
        return [f"{what}: outputs {got} differ from {expected}"]
    return []


def check_activity(exp, report, single_spike: bool) -> list:
    """Re-run the fine-tuned model over the test set with per-neuron counters.

    Checks the at-most-one-spike invariant (single-spike workloads only), and
    that the reported energy ratio and spike activity match their closed forms
    from ``metrics.flops`` and the counters.
    """
    cfg = exp.cfg
    spec = cfg.network
    counters = network.ActivityCounters(spec).track_per_neuron()
    encode = pipeline.make_encoder(cfg, exp.dataset, rng=np.random.default_rng(cfg.seed))
    n = cfg.eval_samples or len(exp.dataset.test_labels)
    images = pipeline.encoder_inputs(cfg, exp.dataset, "test")[:n]
    labels = exp.dataset.test_labels[:n]
    network.evaluate(spec, exp.snn_params, images, labels, encode, neuron_model=cfg.neuron_model, counters=counters)
    failures = []
    if single_spike:
        worst = max(int(c.max()) for c in counters.per_neuron_spikes)
        if worst > 1:
            failures.append(f"a hidden neuron fired {worst} times in one single-spike test pass")

    costs = EnergyCosts()
    f_ann = metrics.flops(spec)
    s = counters.samples
    e_ann = sum(f_ann) * costs.e_mac_pj
    analog = f_ann[0] * costs.e_mac_pj if cfg.encoder in (HYBRID, DIRECT) else 0.0
    e_snn = analog + sum(ev / s for ev in counters.accumulate_events) * costs.e_ac_pj
    if not math.isclose(e_ann / e_snn, report.energy.ratio, rel_tol=ENERGY_RTOL):
        failures.append(f"energy ratio {report.energy.ratio} != closed form {e_ann / e_snn}")
    neurons = spec.neuron_counts()[:-1]
    activity = [c / (count * s) for c, count in zip(counters.output_spikes, neurons)]
    if not all(math.isclose(a, b, rel_tol=ENERGY_RTOL) for a, b in zip(activity, report.energy.spike_activity)):
        failures.append(f"spike activity {report.energy.spike_activity} != counted {activity}")
    return failures
