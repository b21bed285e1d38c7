#!/usr/bin/env python3
"""pfqkit benchmark: runs one workload in this process, from a seed.

    python3 perfbench/run.py --workload toy_workflow --seed 1 --seconds 30 --trace 0

pfqkit is imported from src/ of the checkout this file sits in, and every
input comes from make_synthetic with seeds derived from --seed. Stdout has
one report line per figure and, as its last line, one JSON object with the
benchmark's metrics. The full record (machine, figures, checks, model
checksums) is written to <out>/<workload>-seed<seed>-trace<t>.json, and a
traced run writes its spans beside it. perfbench/README.md describes the
workloads and metrics.
"""

import os
import sys
import time

BLAS_THREADS = 1  # must be set before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import pfqkit
from pfqkit import data, engine, graph, models, pruning, quantization, training, workflow

from spans import Tracer, layer_metrics, unit_of

EPS = 1e-5         # pruning threshold of acceptance check 07
PRUNE_TOL = 1e-6   # max abs output deviation after pruning, acceptance check 02
FOLD_TOL = 1e-5    # max relative output error after folding, tests/test_graph.py
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
SMALL_PROBE = ((8, 8, 16, 16), 40, 1.0e-3)  # SpeedProbe: array shape, repeats, nominal seconds
TOY_INFER_BATCH = 8
TOY_INFER_PASSES = 6
WIDE_BATCH = 64
WIDE_POOL_PER_CLASS = 128  # 10 classes x 128 = 20 batches of 64, reused in turn
WIDE_LR = 0.01
FIXED_STEPS = 10   # wide_train records its loss and checksum after this many steps

clock = time.perf_counter


class SpeedProbe:
    """A fixed numpy kernel, sharing no code with pfqkit, timed right after
    each timed operation of the workload.

    On the 2-vCPU virtual machine (shared Intel Xeon host) this was written
    on, the cores switch between a fast and a slow speed, about 1.5x apart,
    several times a second, and the share of slow time drifts over minutes
    with other tenants' load. A kernel of
    the same kind as the workload slows down in step with it: many calls on
    small arrays for the toy net and for set-up, elementwise passes over a
    42 MB array for the wide net. That size is above the allocator's 32 MB
    mmap ceiling, so each pass pays page faults, as the wide net's large
    temporaries do. `factor` is the nominal over the mean sample time; a
    time multiplied by it reads as if the probe had run at its nominal
    speed throughout."""

    def __init__(self, shape, reps, nominal_s):
        self.x = np.random.default_rng(0).random(shape, dtype=np.float32)
        self.reps, self.nominal_s = reps, nominal_s
        self.seconds = []
        self.sample()  # warm-up, not counted
        self.seconds.clear()

    def sample(self):
        t = clock()
        for _ in range(self.reps):
            np.clip(self.x * np.float32(1.5) + np.float32(0.5), 0, 6).sum(axis=(0, 2, 3))
        self.seconds.append(clock() - t)

    @property
    def factor(self):
        return self.nominal_s / statistics.fmean(self.seconds)


class OpFailed(Exception):
    """An operation failed; the rest of its unit of work is skipped."""


class Run:
    """One workload run: counts operations and failures, keeps the latency
    samples, and in a traced run traces every odd unit of work."""

    def __init__(self, seed, trace, probe):
        self.seed = seed
        self.probe = probe
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failures = []
        self.latency = []              # seconds per request of the workload's operation
        self.unit = 0
        self.unit_seconds = ([], [])   # timed seconds per unit: untraced, traced
        self._unit_time = 0.0

    @property
    def traced(self):
        return self.tracer is not None and self.unit % 2 == 1

    def op(self, name, fn, *args, **kwargs):
        """One counted operation; a raised exception fails it and its unit."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            traceback.print_exc()
            self._fail(name, f"{type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc

    def verify(self, name, fn, *args):
        """One counted correctness check: fn returns (ok, detail on failure)."""
        self.attempted += 1
        try:
            ok, detail = fn(*args)
        except Exception as exc:
            traceback.print_exc()
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self._fail(name, detail)

    def _fail(self, name, detail):
        self.failures.append({"name": name, "detail": detail})
        print(f"FAILED {name}: {detail}", flush=True)

    @contextlib.contextmanager
    def measured(self):
        """Encloses the timed calls of a unit of work."""
        traced = self.traced
        if traced:
            self.tracer.install()
        t = clock()
        try:
            yield
        finally:
            self._unit_time += clock() - t
            if traced:
                self.tracer.restore()

    def infer(self, g, x):
        """One timed inference batch, then a check of its output."""
        t = clock()
        out = self.op("infer_batch", engine.run_inference, g, x)
        self.latency.append(clock() - t)
        self.probe.sample()
        self.verify("infer_output_finite", lambda: (
            out.shape[0] == len(x) and bool(np.isfinite(out).all()),
            f"output shape {out.shape} for {len(x)} images, or non-finite values"))
        return out

    def loop(self, unit, seconds, min_units):
        """Closed loop: the next unit starts when the previous one ends."""
        start = clock()
        while self.unit < min_units or clock() - start < seconds:
            self._unit_time = 0.0
            try:
                unit(self.unit)
            except OpFailed:
                pass
            self.unit_seconds[self.traced].append(self._unit_time)
            self.unit += 1


# --- correctness checks: each returns (ok, detail) --------------------------

def _max_rel_err(a, ref):
    a, ref = np.asarray(a, np.float64), np.asarray(ref, np.float64)
    return float(np.max(np.abs(a - ref)) / max(np.max(np.abs(ref)), 1e-8))


def prune_preserves_inference(net, images):
    pruned, _ = pruning.apply_pfq(net, EPS)
    dev = float(np.max(np.abs(engine.run_inference(pruned, images)
                              - engine.run_inference(net, images))))
    return dev <= PRUNE_TOL, f"max abs deviation {dev:.3e} > {PRUNE_TOL}"


def fold_matches_unfolded(net, images):
    err = _max_rel_err(engine.run_inference(graph.fold_bn_graph(net), images),
                       engine.run_inference(net, images))
    return err < FOLD_TOL, f"max relative error {err:.3e} >= {FOLD_TOL}"


def losses_finite(losses):
    bad = [x for x in losses if not math.isfinite(x)]
    return not bad, f"{len(bad)} of {len(losses)} losses are not finite"


def model_checksum(g, scratch):
    """sha256 over the manifest and blob files that save_model writes."""
    manifest, blob = graph.save_model(g, Path(scratch) / "checksum" / "model.json")
    return hashlib.sha256(manifest.read_bytes() + blob.read_bytes()).hexdigest()


# --- workloads ----------------------------------------------------------------

def _tail(samples):
    """(percentile, value): the highest whole percentile, not below the
    median, with at least ten samples above its nearest-rank value."""
    xs = sorted(samples)
    n = len(xs)
    p = max(50, 100 * (n - 10) // n)
    return p, xs[max(-(-p * n // 100), 1) - 1]


def _latency_figures(prefix, samples):
    p, value = _tail(samples)
    return {f"{prefix}.mean": (1e3 * statistics.fmean(samples), "ms"),
            f"{prefix}.p50": (1e3 * statistics.median(samples), "ms"),
            f"{prefix}.tail": (1e3 * value, "ms"),
            f"{prefix}.tail_percentile": (p, "percentile"),
            f"{prefix}.samples": (len(samples), "count")}


def _wide_net(seed):
    return models.build_ds_convnet(input_shape=(3, 32, 32), class_count=10, width=32,
                                   blocks=6, seed=seed)


class ToyWorkflow:
    """Check 07's experiment: pre-train, run_workflow, evaluate, per seed."""

    min_units = 1
    probe = SMALL_PROBE
    # end-to-end metric -> figure it reports
    metrics = {"latency_ms.mean": "infer_batch_ms.mean", "latency_ms.tail": "infer_batch_ms.tail",
               "throughput_img_per_s": "train_img_per_s", "macs": "macs_after"}

    def __init__(self, run, scratch):
        self.run, self.scratch = run, scratch
        self.inputs = {}
        self.units = []

    def _inputs(self, i):
        s = self.run.seed * 10_000 + i
        full = data.make_synthetic(4, 30, (3, 16, 16), seed=s)
        pool, test = data.split_validation(full, 6, seed=s + 1)
        train, val = data.split_validation(pool, 4, seed=s + 2)
        net = models.build_ds_convnet(input_shape=(3, 16, 16), class_count=4, width=8,
                                      blocks=6, seed=s, dead_stem_filters=2)
        return s, data.bundle_from_datasets(train, val, test), net

    def setup(self):
        self.inputs[0] = self._inputs(0)

    def unit(self, i):
        run = self.run
        s, bundle, net = self.inputs.pop(i, None) or self._inputs(i)
        cfg = workflow.WorkflowConfig(
            epochs_act=2, epochs_weight=2, act_bits=4, weight_bits=4, epsilon=EPS,
            batch_size=8, seed=s, act_schedule=training.LRSchedule(0.002, 0, 2),
            weight_schedule=training.LRSchedule(0.001, 0, 2))
        held = bundle.test_images
        with tempfile.TemporaryDirectory(dir=self.scratch) as out_dir:
            with run.measured():
                t0 = clock()
                net, pre_metrics = run.op(
                    "pretrain", training.train_epochs, net, bundle,
                    training.LRSchedule(0.05, 0, 12), training.OptimizerState(momentum=0.9),
                    epochs=12, batch_size=8, seed=s)
                t1 = clock()
                result = run.op("run_workflow", workflow.run_workflow, net, bundle, cfg,
                                out_dir=out_dir)
                t2 = clock()
                for _ in range(TOY_INFER_PASSES):
                    for lo in range(0, len(held), TOY_INFER_BATCH):
                        run.infer(result.graph, held[lo:lo + TOY_INFER_BATCH])
                t3 = clock()
            final = result.graph
            run.verify("losses_finite", losses_finite, [
                m.train_loss for m in pre_metrics + result.metrics_act + result.metrics_weight])
            run.verify("apply_pfq_preserves_inference", prune_preserves_inference, net, held)
            run.verify("fold_bn_graph_matches", fold_matches_unfolded, net, held)
            self.units.append({
                "seed": s,
                "train_images": len(bundle.train_images) * len(pre_metrics),
                "train_s": t1 - t0,
                "workflow_s": t2 - t1,
                "infer_images": TOY_INFER_PASSES * len(held),
                "infer_s": t3 - t2,
                "acc_4bit": engine.evaluate(final, held, bundle.test_labels),
                "macs_after": sum(graph.count_macs(final).values()),
                "checksum": model_checksum(final, out_dir),
            })

    def finish(self):
        u = self.units

        def total(key):
            return sum(x[key] for x in u)

        figures = {
            "train_img_per_s": (total("train_images") / total("train_s"), "img/s"),
            "workflow_s": (statistics.median(x["workflow_s"] for x in u), "s"),
            "infer_img_per_s": (total("infer_images") / total("infer_s"), "img/s"),
            "acc_4bit": (statistics.fmean(x["acc_4bit"] for x in u), "fraction"),
            "macs_after": (statistics.fmean(x["macs_after"] for x in u), "count"),
        }
        figures.update(_latency_figures("infer_batch_ms", self.run.latency))
        models = {str(x["seed"]): {k: x[k] for k in ("checksum", "acc_4bit", "macs_after")}
                  for x in u}
        return figures, models


class WideTrain:
    """Float training of the wide net with BN live, one timed step per unit."""

    min_units = FIXED_STEPS
    probe = ((64, 32, 32, 160), 1, 40e-3)
    metrics = {"latency_ms.mean": "train_step_ms.mean", "latency_ms.tail": "train_step_ms.tail",
               "throughput_img_per_s": "train_img_per_s", "macs": "macs"}

    def __init__(self, run, scratch):
        self.run, self.scratch = run, scratch
        self.images = 0
        self.seconds = 0.0
        self.checkpoint = None

    def setup(self):
        seed = self.run.seed
        pool = data.make_synthetic(10, WIDE_POOL_PER_CLASS, (3, 32, 32), seed=seed)
        self.bundle = data.bundle_from_datasets(pool)
        self.net = _wide_net(seed)
        self.opt = training.OptimizerState(momentum=0.9)
        self.batches = self._batches()

    def _batches(self):
        epoch = 0
        while True:
            rng = np.random.default_rng((self.run.seed, epoch))
            yield from data.iter_batches(self.bundle.train_images, self.bundle.train_labels,
                                         WIDE_BATCH, rng)
            epoch += 1

    def _step(self, x, labels):
        loss, _, grads, _ = engine.loss_and_grads(self.net, x, labels)
        training.sgd_step(self.net, grads, self.opt, WIDE_LR)
        return float(loss)

    def unit(self, i):
        run = self.run
        x, labels = next(self.batches)
        with run.measured():
            t = clock()
            loss = run.op("train_step", self._step, x, labels)
            dt = clock() - t
        run.latency.append(dt)
        run.probe.sample()
        self.images += len(x)
        self.seconds += dt
        run.verify("loss_finite", losses_finite, [loss])
        if i + 1 == FIXED_STEPS:
            self.checkpoint = (loss, model_checksum(self.net, self.scratch))

    def finish(self):
        loss, checksum = self.checkpoint
        figures = {
            "train_img_per_s": (self.images / self.seconds, "img/s"),
            "train_loss_final": (loss, "loss"),
            "macs": (sum(graph.count_macs(self.net).values()), "count"),
        }
        figures.update(_latency_figures("train_step_ms", self.run.latency))
        return figures, {f"step{FIXED_STEPS}": {"checksum": checksum, "train_loss": loss}}


class WideInfer:
    """The wide net folded, with 4-bit weight and activation points enabled
    and calibrated; one timed run_inference batch per unit."""

    min_units = 2
    probe = ((64, 32, 32, 160), 1, 40e-3)
    metrics = {"latency_ms.mean": "infer_batch_ms.mean", "latency_ms.tail": "infer_batch_ms.tail",
               "throughput_img_per_s": "infer_img_per_s", "macs": "macs"}

    def __init__(self, run, scratch):
        self.run, self.scratch = run, scratch
        self.first = None

    def setup(self):
        seed = self.run.seed
        net = _wide_net(seed)
        calib = data.make_synthetic(10, 13, (3, 32, 32), seed=seed).images[:2 * WIDE_BATCH]
        batches = [calib[:WIDE_BATCH], calib[WIDE_BATCH:]]
        # One training-mode forward moves BN running statistics off their initial values.
        engine.forward_graph(net, batches[0], training=True)
        self.run.verify("fold_bn_graph_matches", fold_matches_unfolded, net, batches[1])
        q = quantization.insert_quant_points(graph.fold_bn_graph(net), 4, 4,
                                             act_enabled=True, weight_enabled=True)
        for x in batches:
            engine.forward_graph(q, x, training=True, update_ranges=True)
        self.net = q
        self.stream = data.make_synthetic(10, WIDE_POOL_PER_CLASS, (3, 32, 32),
                                          seed=seed + 1).images

    def unit(self, i):
        lo = (i * WIDE_BATCH) % len(self.stream)
        with self.run.measured():
            out = self.run.infer(self.net, self.stream[lo:lo + WIDE_BATCH])
        if self.first is None:
            self.first = out

    def finish(self):
        again = engine.run_inference(self.net, self.stream[:WIDE_BATCH])
        self.run.verify("inference_repeats_exactly", lambda: (
            np.array_equal(again, self.first), "a repeated batch gave different logits"))
        lat = self.run.latency
        figures = {
            "infer_img_per_s": (WIDE_BATCH * len(lat) / sum(lat), "img/s"),
            "macs": (sum(graph.count_macs(self.net).values()), "count"),
        }
        figures.update(_latency_figures("infer_batch_ms", lat))
        return figures, {"final": {"checksum": model_checksum(self.net, self.scratch)}}


def import_seconds():
    """Wall time of a fresh interpreter that imports numpy and pfqkit, as
    this process did before its setup."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import numpy, pfqkit"
    t = clock()
    subprocess.run([sys.executable, "-c", code], check=True)
    return clock() - t


WORKLOADS = {"toy_workflow": ToyWorkflow, "wide_train": WideTrain, "wide_infer": WideInfer}


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "results",
                    help="directory for the run record (default: .perfbench/results)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if Path(pfqkit.__file__).resolve().parent != ROOT / "src" / "pfqkit":
        sys.exit(f"pfqkit was imported from {pfqkit.__file__}, not from this checkout's src/")
    args.out.mkdir(parents=True, exist_ok=True)
    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload]
    run = Run(args.seed, args.trace, SpeedProbe(*workload.probe))
    work = workload(run, scratch)
    # Set-up is mostly interpreter start and imports, so the small probe
    # scales it, sampled after each repeat.
    setup_probe = SpeedProbe(*SMALL_PROBE)
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        t = clock()
        work.setup()
        setups.append(clock() - t)
        setup_probe.sample()
    for _ in range(IMPORT_REPEATS):
        imports.append(import_seconds())
        setup_probe.sample()
    setup_s = statistics.median(imports) + statistics.median(setups)
    run.loop(work.unit, args.seconds, max(work.min_units, 2 if args.trace else 1))
    figures, models = work.finish()
    figures["setup_s"] = (setup_s, "s")
    figures["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    figures["error_rate"] = (len(run.failures) / run.attempted, "fraction")
    figures["speed_factor"] = (run.probe.factor, "x")
    figures["setup_speed_factor"] = (setup_probe.factor, "x")

    if args.trace:
        untraced, traced = run.unit_seconds
        metrics = layer_metrics(run.tracer.spans, len(traced))
        metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()}
    else:
        # Timings are scaled to the speed probe's nominal speed.
        f = figures["speed_factor"][0]
        scale = {"latency_ms.mean": f, "latency_ms.tail": f, "throughput_img_per_s": 1 / f,
                 "setup_s": figures["setup_speed_factor"][0]}
        chosen = dict(work.metrics, setup_s="setup_s", peak_rss_mb="peak_rss_mb")
        metrics = {name: {"value": figures[fig][0] * scale.get(name, 1), "unit": figures[fig][1]}
                   for name, fig in chosen.items()}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "figures": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
        "metrics": metrics, "attempted": run.attempted, "failures": run.failures,
        "units": run.unit, "models": models,
    }
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        run.tracer.write(args.out / f"{stem}.spans.jsonl")

    for key, value in record["machine"].items():
        print(f"machine.{key} = {value}")
    print(f"seed = {args.seed}")
    for name, (value, unit) in sorted(figures.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {run.attempted}, failed = {len(run.failures)}")
    for key, fields in models.items():
        for field, value in fields.items():
            print(f"model.{key}.{field} = {value}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}), flush=True)
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
