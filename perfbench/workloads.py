"""The three workloads: set-up, measured cycles, output checks.

Each workload is a closed loop with one caller, one scene at a time. The
measured part repeats whole cycles until the run's seconds have passed and
the workload's minimum number of cycles has run. A cycle is a fixed sequence
of rounds of three kinds:

    train     one `trainer.train` call from scratch on the training windows
    predict   one `MotionModel.predict` call (best of 20) per window, first windows
    evaluate  one `trainer.evaluate` call (best of 20) per window, first windows

An item (a stretch of a train call between two Adam steps, or one window's
predict or evaluate call) is timed in every untraced cycle, and its figure
is the median of its repeats, scaled by `Speed`. Interleaving the kinds
spreads every item's repeats over the whole run, so each workload measures
every end-to-end metric. train_* cycles are mostly training, and their
predict and evaluate rounds use the model the train round just made (the
same model every time); forecast_mixed forecasts with a model built, saved
and loaded back in set-up, and its train rounds train a separate model on
its first windows.

After the measured part, the held-out windows not forecast yet are forecast
once for the output checks and the ADE/FDE figures. `attempted` counts the
checked operations, a fixed set per workload, so the failed share does not
depend on the seed or on how many cycles ran.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import statistics
import time

import numpy as np

import checks
import gen
from motionq import data, trainer
from motionq.numkit import Rng
from motionq.objectives import per_agent_best_metrics

BEST_OF = 20
WINDOW_SEED = 4096      # predict on window i draws from Rng(WINDOW_SEED + i)
GRAD_SEED = 5000        # gradient check on window i: loss RNG and direction seed
SHIFT = (3.0, -2.0)
FIXED_DATA_SEED = 0   # inputs of the train_* model checks that do not follow --seed

# 16 windows of 2-16 agents, timed; the median one has 4 agents and the
# slowest 12.5% have 16, so p50 and p95 each sit inside a group. The
# held-out set repeats the mix three times so ADE/FDE average 249 agents.
MIXED_AGENTS = (4, 2, 16, 3, 4, 2, 8, 4, 3, 16, 2, 4, 6, 2, 3, 4)
MIXED_KINDS = ("turning", "crossroad", "parallel")

SPECS = {
    "train_turning_m20": {
        "train": [("turning", 4)] * 16, "heldout": [("turning", 4)] * 24,
        "m": 20, "q": 3, "epochs": 1, "batch": 4,
        "cycle": ("train", "predict", "evaluate"), "predict": 16, "evaluate": 4,
        "min_cycles": 3, "variants": 4, "gradcheck": 12, "fixed_epochs": 1,
    },
    "train_crowd_n16": {
        "train": [("crossroad", 16)] * 12, "heldout": [("crossroad", 16)] * 8,
        "m": 2, "q": 4, "epochs": 1, "batch": 4,
        "cycle": ("train", "predict", "evaluate"), "predict": 4, "evaluate": 2,
        "min_cycles": 3, "variants": 2, "gradcheck": 12, "fixed_epochs": 2,
        "known_fault": True,
    },
    "forecast_mixed": {
        "train": [], "heldout": [(MIXED_KINDS[i % 3], n) for i, n in enumerate(MIXED_AGENTS * 3)],
        "m": 20, "q": 3, "epochs": 1, "batch": 2, "train_on": 6,
        "cycle": ("predict", "train", "evaluate", "train"), "predict": 16, "evaluate": 16,
        "min_cycles": 4, "variants": 16, "gradcheck": 0,
    },
}

# a few small windows and one cycle, for the smoke test
TINY = {
    "train_turning_m20": {"train": [("turning", 4)] * 2, "heldout": [("turning", 4)] * 3,
                          "batch": 1, "predict": 2, "evaluate": 1, "variants": 1,
                          "gradcheck": 2},
    "train_crowd_n16": {"train": [("crossroad", 16)] * 2, "heldout": [("crossroad", 16)] * 2,
                        "batch": 1, "predict": 1, "evaluate": 1, "variants": 1,
                        "gradcheck": 1},
    "forecast_mixed": {"heldout": [("turning", 2), ("crossroad", 3), ("parallel", 16)],
                       "train_on": 2, "predict": 3, "evaluate": 3, "variants": 1},
}


class Ledger:
    """Checked operations: attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []        # failures that make the run incorrect
        self.known = []         # failures attributed to a known program fault

    def op(self, reason, known_fault=False):
        self.attempted += 1
        if reason:
            self.failed += 1
            (self.known if known_fault else self.errors).append(reason)


@contextlib.contextmanager
def _installed(tracer):
    """Trace the calls made inside the block, when tracing."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def _load(directory, name, scenes, tracer=None):
    path = gen.write_manifest(directory, name, scenes)
    cfg = data.WindowConfig(gen.OBS_LEN, gen.PRED_LEN, 1, 1)  # frame_step per manifest line
    with _installed(tracer):
        return data.load_manifest(path, cfg, map_size=gen.MAP_SIZE,
                                  map_channels=gen.MAP_CHANNELS)


class Speed:
    """The machine's momentary speed, from a fixed reference loop.

    The benchmark machine is shared: its speed changes by up to ~1.7x for
    tens of seconds at a time, which moves a wall-clock median by as much
    from run to run. So every measured time t is bracketed by two timings r1,
    r2 of this loop (about 3 ms) and reported as t * NOMINAL_S / mean(r1, r2):
    the time it would take with the machine at the speed where the loop runs
    in NOMINAL_S, its full speed on the machine the README describes. The
    loop is small matrix-vector work driven from Python, like the program's.
    """

    NOMINAL_S = 2.25e-3

    def __init__(self):
        draw = np.random.default_rng(0)
        self.a = draw.uniform(-0.2, 0.2, (32, 32))
        self.x = draw.uniform(-1.0, 1.0, 32)

    def probe(self):
        s = self.x
        start = time.perf_counter()
        for _ in range(1200):
            s = np.tanh(self.a @ s + self.x)
        return time.perf_counter() - start

    def scale(self, before, after):
        return self.NOMINAL_S / (0.5 * (before + after))


def directional_check(model, loss_cfg, window, seed, steps):
    """Compare the analytic derivative of the training loss along one random
    unit direction in parameter space with central differences, at each step
    in `steps` until one agrees; parameters are restored. Returns the last
    (relative error, reason or None)."""
    store = model.store
    names = store.names()
    store.zero_grads()
    model.loss_and_grad(window, loss_cfg, Rng(seed))
    draw = np.random.default_rng(seed)
    dirs = {k: draw.standard_normal(store.value(k).shape) for k in names}
    norm = math.sqrt(sum(float((d * d).sum()) for d in dirs.values()))
    analytic = sum(float((store.grad(k) * dirs[k]).sum()) for k in names) / norm
    saved = store.copy_values()
    for eps in steps:
        sides = []
        for sign in (1.0, -1.0):
            for k in names:
                store.value(k)[...] = saved[k] + (sign * eps / norm) * dirs[k]
            sides.append(model.loss(window, loss_cfg, Rng(seed))["total"])
        rel, reason = checks.directional(analytic, (sides[0] - sides[1]) / (2.0 * eps))
        if reason is None:
            break
    store.load_values(saved)
    store.zero_grads()
    return rel, reason


class Workload:
    def __init__(self, name, seed, seconds, tracer, workdir, tiny=False):
        self.name = name
        self.spec = dict(SPECS[name], **(TINY[name] if tiny else {}))
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.min_cycles = 1 if tiny else self.spec["min_cycles"]
        if tracer is not None:
            self.min_cycles = max(self.min_cycles, 2)  # one untraced, one traced
        self.ledger = Ledger()
        self.log = []           # (kind, traced, seconds, scenes) per round
        self.speed = Speed()
        # kind -> item -> [(scaled seconds, wall seconds)] of untraced calls
        self.samples = {"train": {}, "predict": {}, "evaluate": {}}
        self.curves = []        # loss curve of every train round
        self.seen = {}          # window index -> predictions of the first call
        self.repeats_equal = True
        self.reports = {}       # window index -> evaluate reports
        self.fixed = None       # (model, sources, windows) of the fixed-input checks

    # ------------------------------------------------------------ set-up

    def setup(self):
        """Write the inputs, read them back through load_manifest and, for
        forecast_mixed, build a model and round-trip it through a checkpoint."""
        spec = self.spec
        ddir = os.path.join(self.workdir, "data")
        sources = gen.make_scenes(self.seed, spec["train"] + spec["heldout"])
        self.held_src = sources[len(spec["train"]):]
        self.windows = _load(ddir, "heldout", self.held_src, self.tracer)
        self.cfg = trainer.TrainConfig(
            h=32, q=spec["q"], m=spec["m"], epochs=spec["epochs"], batch_size=spec["batch"],
            checkpoint_every=1, map_size=gen.MAP_SIZE, map_channels=gen.MAP_CHANNELS,
            obs_len=gen.OBS_LEN, pred_len=gen.PRED_LEN)
        if spec["train"]:
            self.train_windows = _load(ddir, "train", sources[:len(spec["train"])], self.tracer)
        else:
            self.train_windows = self.windows[:spec["train_on"]]
            self.built = trainer.build_model(self.cfg)
            path = os.path.join(self.workdir, "model.ckpt")
            with _installed(self.tracer):
                trainer.save_checkpoint(path, self.built.store,
                                        trainer.AdamState(self.built.store), self.cfg, 0)
                _, self.model, _, _ = trainer.load_checkpoint(path)

    # ------------------------------------------------------------ measured cycles

    def _time(self, kind, item, traced, fn, *args):
        """Run fn once between two speed probes; an untraced call's scaled
        and wall durations join item's samples."""
        before = self.speed.probe()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        if not traced:
            scale = self.speed.scale(before, self.speed.probe())
            self.samples[kind].setdefault(item, []).append((elapsed * scale, elapsed))
        return elapsed, result

    def _train_round(self, traced):
        """One trainer.train call. Its `log` hook fires after every Adam step,
        so the call splits into segments: set-up plus the first batch, each
        further batch, and the epoch's checkpoints and the final files. The
        hook probes the speed between segments, outside their times."""
        probes = [self.speed.probe()]
        bounds = [time.perf_counter()]   # start, then (end, restart) per step

        def step(row):
            bounds.append(time.perf_counter())
            probes.append(self.speed.probe())
            bounds.append(time.perf_counter())

        model, curve = trainer.train(self.cfg, self.train_windows,
                                     os.path.join(self.workdir, "train"), log=step)
        bounds.append(time.perf_counter())
        probes.append(self.speed.probe())
        walls = [bounds[j + 1] - bounds[j] for j in range(0, len(bounds), 2)]
        if not traced:
            for j, wall in enumerate(walls):
                scale = self.speed.scale(probes[j], probes[j + 1])
                self.samples["train"].setdefault(j, []).append((wall * scale, wall))
        self.curves.append(curve)
        if self.spec["train"]:
            self.model = model
        return sum(walls), self.spec["epochs"] * len(self.train_windows)

    def _predict(self, i):
        return self.model.predict(self.windows[i], BEST_OF, Rng(WINDOW_SEED + i)).positions

    def _note(self, i, preds):
        """Keep the first predictions of window i; later ones must be equal."""
        if i in self.seen:
            self.repeats_equal &= checks.bitwise_equal("repeat", self.seen[i], preds) is None
        else:
            self.seen[i] = preds

    def _predict_round(self, traced):
        total = 0.0
        for i in range(self.spec["predict"]):
            elapsed, preds = self._time("predict", i, traced, self._predict, i)
            total += elapsed
            self._note(i, preds)
        return total, self.spec["predict"]

    def _evaluate_round(self, traced):
        """One trainer.evaluate call per window, so each window has its own time."""
        total = 0.0
        for i in range(self.spec["evaluate"]):
            elapsed, report = self._time("evaluate", i, traced, trainer.evaluate, self.model,
                                         self.windows[i:i + 1], BEST_OF, self.cfg.eval_seed)
            total += elapsed
            self.reports.setdefault(i, []).append(report)
        return total, self.spec["evaluate"]

    def measure(self):
        rounds = {"train": self._train_round, "predict": self._predict_round,
                  "evaluate": self._evaluate_round}
        start = time.perf_counter()
        cycles = 0
        while cycles < self.min_cycles or time.perf_counter() - start < self.seconds:
            traced = self.tracer is not None and cycles % 2 == 1
            for kind in self.spec["cycle"]:
                if traced:
                    with self.tracer.traced(f"round.{kind}"):
                        elapsed, scenes = rounds[kind](traced)
                else:
                    elapsed, scenes = rounds[kind](traced)
                self.log.append((kind, traced, elapsed, scenes))
            cycles += 1

    def typical(self, kind, wall=False):
        """Each item's median untraced time (scaled, or wall clock): a train
        segment, or a predict or evaluate window."""
        return [statistics.median(t[1] if wall else t[0] for t in times)
                for times in self.samples[kind].values()]

    def traced_scenes(self, kind):
        return sum(s for k, t, _, s in self.log if k == kind and t)

    def overhead(self, kind):
        """Median traced minus median untraced round, ms per scene and percent."""
        plain, traced = (statistics.median(1e3 * e / s for k, t, e, s in self.log
                                           if k == kind and t == flag)
                         for flag in (False, True))
        return traced - plain, 100.0 * (traced - plain) / plain

    def primary(self):
        return "train" if self.spec["train"] else "predict"

    # ------------------------------------------------------------ checks

    def check(self):
        led = self.ledger
        spec = self.spec

        # loss rows, and training that repeats bitwise on the same inputs
        reason = checks.loss_rows(self.curves[0], spec["epochs"], len(self.train_windows),
                                  spec["batch"])
        if reason is None and any(c != self.curves[0] for c in self.curves):
            reason = "training rounds on the same inputs gave different loss curves"
        led.op(reason)

        # every window: shape, finiteness, own best-of-m metrics vs the program's
        self.own_ade, self.own_fde = [], []
        for i in range(len(self.windows)):
            if i not in self.seen:
                self.seen[i] = self._predict(i)
        predictions = [self.seen[i] for i in range(len(self.windows))]
        for window, preds in zip(self.windows, predictions):
            reason = checks.prediction(preds, BEST_OF, window.n_agents, gen.PRED_LEN)
            if reason is None:
                truth = window.future()
                own = checks.own_best_of_m(truth, preds)
                prog = per_agent_best_metrics(truth, preds)
                reason = checks.metrics_agree(own, (prog["ade"], prog["fde"]))
                self.own_ade.extend(own[0])
                self.own_fde.extend(own[1])
            led.op(reason)
        led.op(None if self.repeats_equal
               else "repeated predict calls with the same seed differ")

        # translation and agent-order properties on the first windows. The
        # train_* models are checked on the fixed inputs of the gradient
        # check: near the signed-normaliser pole rounding is amplified by an
        # amount that depends on the inputs (see README).
        known = bool(spec.get("known_fault"))
        if spec["train"]:
            model, sources, windows = self._fixed_model()
            self._properties(model, sources, [
                model.predict(windows[i], BEST_OF, Rng(WINDOW_SEED + i)).positions
                for i in range(spec["variants"])], known)
        else:
            self._properties(self.model, self.held_src, predictions[:spec["variants"]], False)

        # evaluate's agent count against the generator's
        reported = sum(self.reports[i][0].n_agents for i in range(spec["evaluate"]))
        expected = sum(s.n_agents for s in self.held_src[:spec["evaluate"]])
        reason = checks.count("evaluate n_agents", reported, expected)
        if reason is None and any(r != runs[0] for runs in self.reports.values() for r in runs):
            reason = "repeated evaluate calls with the same seed differ"
        led.op(reason)

        # checkpoint round trip
        if spec["train"]:
            reference = self.model
            with _installed(self.tracer):
                _, loaded, _, _ = trainer.load_checkpoint(
                    os.path.join(self.workdir, "train", "final.ckpt"))
        else:
            reference, loaded = self.built, self.model
        reason = checks.bitwise_equal("checkpoint parameters", reference.store.copy_values(),
                                      loaded.store.copy_values())
        if reason is None:
            a = reference.predict(self.windows[0], BEST_OF, Rng(WINDOW_SEED)).positions
            b = loaded.predict(self.windows[0], BEST_OF, Rng(WINDOW_SEED)).positions
            reason = checks.bitwise_equal("predict after checkpoint load", a, b)
        led.op(reason)

        # directional gradient check at the final parameters of the model
        # trained on fixed inputs: on inputs from --seed it would fail near
        # the pole on some seeds only. Where the loss curves sharply the
        # central-difference error at eps 1e-6 alone can pass 1e-5 (it
        # shrinks as eps^2), so the turning check also tries 1e-7; the crowd
        # check of the known fault keeps eps 1e-6 only.
        if spec["gradcheck"]:
            model, _, windows = self._fixed_model()
            loss_cfg = self.cfg.loss_config()
            steps = checks.GRAD_STEPS[:1] if known else checks.GRAD_STEPS
            for i, window in enumerate(windows[:spec["gradcheck"]]):
                _, reason = directional_check(model, loss_cfg, window, GRAD_SEED + i, steps)
                led.op(reason, known_fault=known)

    def _properties(self, model, sources, predictions, known):
        """Shifted and agent-reversed copies of the first scenes in `sources`
        predict the shifted and reversed `predictions`."""
        count = len(predictions)
        ddir = os.path.join(self.workdir, "data")
        shifted = _load(ddir, "shifted", [gen.shifted(s, SHIFT) for s in sources[:count]])
        flipped = _load(ddir, "reversed", [gen.reversed_agents(s) for s in sources[:count]])
        for i in range(count):
            moved = model.predict(shifted[i], BEST_OF, Rng(WINDOW_SEED + i)).positions
            self.ledger.op(checks.shift(predictions[i], moved, SHIFT), known_fault=known)
            backwards = model.predict(flipped[i], BEST_OF, Rng(WINDOW_SEED + i)).positions
            self.ledger.op(checks.reverse(predictions[i], backwards), known_fault=known)

    def _fixed_model(self):
        """A model trained with the workload's configuration (and
        `fixed_epochs`) on inputs that do not depend on --seed, with the
        sources and windows of its check scenes, so that the checks on it
        have the same outcome every run. Trained once per run."""
        if self.fixed is None:
            spec = self.spec
            n_train = len(spec["train"])
            checked = max(spec["gradcheck"], spec["variants"])
            scenes = gen.make_scenes(FIXED_DATA_SEED,
                                     spec["train"] + spec["train"][:checked])
            ddir = os.path.join(self.workdir, "fixed")
            train_windows = _load(ddir, "train", scenes[:n_train])
            check_windows = _load(ddir, "check", scenes[n_train:])
            cfg = dataclasses.replace(self.cfg, epochs=spec["fixed_epochs"])
            model, _ = trainer.train(cfg, train_windows, os.path.join(ddir, "out"))
            self.fixed = (model, scenes[n_train:], check_windows)
        return self.fixed

    # ------------------------------------------------------------ metrics

    def end_to_end(self, setup_s, peak_rss_mb, wall=False):
        """The end-to-end metrics; times scaled to the reference speed, or
        with wall=True as measured."""
        window_ms = [1e3 * t for t in self.typical("predict", wall)]
        train_scenes = self.spec["epochs"] * len(self.train_windows)
        return {
            "setup_s": (setup_s, "s"),
            "train_scenes_per_s": (train_scenes / sum(self.typical("train", wall)), "scenes/s"),
            "ade": (float(np.mean(self.own_ade)), "world"),
            "fde": (float(np.mean(self.own_fde)), "world"),
            "forecast_ms_p50": (float(np.percentile(window_ms, 50)), "ms"),
            "forecast_ms_p95": (float(np.percentile(window_ms, 95)), "ms"),
            "eval_scenes_per_s": (self.spec["evaluate"] / sum(self.typical("evaluate", wall)),
                                  "windows/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
