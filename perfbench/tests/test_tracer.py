"""Self-tests of the benchmark's tracer, checks and metric lists.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
They run a few small pipelines per workload, so they take a minute or two.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402

run.pin_blas_threads()

import snnkit  # noqa: E402
from checks import outputs  # noqa: E402
from snnkit import ann, network, pipeline, training  # noqa: E402
from snnkit.config import ExperimentConfig  # noqa: E402
from tracer import EXACT_COUNTS, PER_LAYER, PHASE_METHODS, TARGETS, Tracer, conv_inputs, snnkit_modules  # noqa: E402
from workloads import WORKLOADS, make_config, write_dataset  # noqa: E402

WORK = BENCH_DIR / ".work" / "tests"
SEED_A, SEED_B = 11, 12

# Spans that must be reached on some workloads only; every other wrapped
# function must be reached on every workload.
REACHED_ON = {
    "data.read_idx_images": {"desk-hybrid", "desk-direct-ms"},
    "data.read_idx_labels": {"desk-hybrid", "desk-direct-ms"},
    "data.read_cifar_binary": {"wide-cifar"},
    "encoding.encode_hybrid": {"desk-hybrid", "wide-cifar"},
    "encoding.encode_poisson_rate": set(),
    "neuron.single_spike_step": {"desk-hybrid", "wide-cifar"},
}
# Per-layer metrics that are zero on a workload by design.
ZERO_ON = {
    "neuron.single_spike_step.calls": {"desk-direct-ms"},
    "neuron.single_spike_step.self_s": {"desk-direct-ms"},
    "encoding.input_bytes": {"desk-direct-ms"},  # the direct encoder reuses the image batch
}


def original_functions() -> dict:
    return {f"{mod}.{fn}": getattr(sys.modules[f"snnkit.{mod}"], fn) for mod, fns in TARGETS.items() for fn in fns}


def wrapped_names() -> list:
    return list(original_functions()) + [f"pipeline.{m}" for m in PHASE_METHODS]


def one_pipeline(workload, seed, traced):
    work = WORK / f"{workload.name}-{seed}"
    dataset = write_dataset(workload, seed, str(work / "data"))
    config_path = work / "config.json"
    make_config(workload, dataset, str(work / "run")).to_json(config_path)
    cfg = ExperimentConfig.from_json(config_path)
    tracer = Tracer(conv_inputs(cfg.network))
    ops = run.Ops()
    if traced:
        with tracer.installed():
            result = run.run_pipeline(cfg, ops)
    else:
        result = run.run_pipeline(cfg, ops)
    assert result is not None and ops.failed == 0, ops.messages
    calls = {}
    for nid in tracer.span_name:
        calls[tracer.names[nid]] = calls.get(tracer.names[nid], 0) + 1
    return {"outputs": outputs(result[1]), "layers": tracer.layer_metrics(cfg.snn_train.epochs), "calls": calls}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    workload = WORKLOADS[request.param]
    try:
        yield {
            "workload": workload.name,
            "untraced": one_pipeline(workload, SEED_A, traced=False),
            "traced": one_pipeline(workload, SEED_A, traced=True),
            "traced_again": one_pipeline(workload, SEED_A, traced=True),
            "traced_other_seed": one_pipeline(workload, SEED_B, traced=True),
        }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_rebinding_reaches_every_from_import():
    originals = original_functions()
    imported_copies = {
        network: ("single_spike_step", "lif_step", "output_step"),
        training: ("forward", "evaluate", "surrogate_grad"),
        pipeline: ("evaluate", "energy", "encode_hybrid", "encode_direct", "encode_poisson_rate"),
        ann: ("lif_step",),
    }
    original_ids = {id(fn) for fn in originals.values()}
    with Tracer().installed():
        for mod, names in imported_copies.items():
            for name in names:
                assert id(getattr(mod, name)) not in original_ids, f"{mod.__name__}.{name} still unwrapped"
                assert hasattr(getattr(mod, name), "__wrapped__")
        for mod in snnkit_modules():
            for attr, value in vars(mod).items():
                assert id(value) not in original_ids, f"{mod.__name__}.{attr} was not rebound"
                defaults = (getattr(value, "__defaults__", None) or ()) + tuple(
                    (getattr(value, "__kwdefaults__", None) or {}).values()
                )
                assert not {id(d) for d in defaults} & original_ids, f"{mod.__name__}.{attr} holds an unwrapped default"
    for name, fn in originals.items():
        mod, attr = name.split(".")
        assert getattr(sys.modules[f"snnkit.{mod}"], attr) is fn, f"{name} was not restored"
    assert snnkit.run_experiment is pipeline.run_experiment


def test_each_wrapped_function_is_reached(runs):
    calls = runs["traced"]["calls"]
    for name in wrapped_names():
        expected = runs["workload"] in REACHED_ON.get(name, {runs["workload"]})
        assert (calls.get(name, 0) >= 1) == expected, f"{name}: {calls.get(name, 0)} calls on {runs['workload']}"


def test_every_layer_metric_is_measured(runs):
    layers = runs["traced"]["layers"]
    reported = {name for name, _ in PER_LAYER if not name.startswith("trace.")}
    assert set(layers) == reported
    for name, value in layers.items():
        if runs["workload"] in ZERO_ON.get(name, ()):
            assert value == 0, name
        else:
            assert value > 0, f"{name} reads zero on {runs['workload']}"


def test_traced_outputs_are_bit_identical(runs):
    assert runs["traced"]["outputs"] == runs["untraced"]["outputs"]
    assert runs["traced_again"]["outputs"] == runs["untraced"]["outputs"]


def test_exact_counts_repeat_across_runs_and_seeds(runs):
    keys = ("traced", "traced_again", "traced_other_seed")
    counts = [{k: runs[key]["layers"][k] for k in EXACT_COUNTS} for key in keys]
    assert counts[0] == counts[1] == counts[2]


def test_input_activity_matches_the_encoder(runs):
    conv1 = runs["traced"]["layers"]["network.input_activity.conv1"]
    if runs["workload"] == "desk-direct-ms":
        assert conv1 > 0.99
    elif runs["workload"] == "desk-hybrid":
        # dense analog frame at t=1, then one spike per pixel over t=2..5
        assert conv1 == pytest.approx(0.4, abs=0.01)
