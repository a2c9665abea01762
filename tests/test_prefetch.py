"""The image view worker: its views equal the in-process ones, whole runs
are byte-identical with and without it, and it leaves no process or
buffer behind however `fit` ends. Also the package's one-thread BLAS
default."""

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import rebuilt

from tbpslab import experiments, prefetch, train
from tbpslab.augment import AugmentConfig
from tbpslab.config import materialize, resolve
from tbpslab.data import ToySpec, build_vocab, generate_toy
from tbpslab.losses import LossConfig
from tbpslab.model import ModelConfig, init_model
from tbpslab.numerics import Rng, pixels
from tbpslab.prefetch import ViewWorker, WorkerDied
from tbpslab.train import NonFiniteLoss, TrainConfig, assemble_batch, fit

SRC = str(Path(__file__).resolve().parents[1] / "src")
READS_IMAGE_VIEWS = LossConfig(weights={"n_itc": 1.0, "ss_i": 0.3})
FULL_AUG = AugmentConfig(image_mode="pool", text_mode="stack")
MICRO = [
    "data.n_identities=10", "data.images_per_identity=2", "data.captions_per_image=2",
    "model.hidden_dim=12", "model.embed_dim=6", "train.epochs=2", "train.batch_size=8",
]

pytestmark = pytest.mark.skipif(not prefetch.available(), reason="no worker on this platform")


def corpus(n_ids=6):
    return generate_toy(ToySpec(n_identities=n_ids, images_per_identity=2), Rng(31)).train


def tiny_model(split):
    cfg = ModelConfig(embed_dim=6, hidden_dim=12, image_layers=2, text_layers=2)
    return init_model(dataclasses.replace(cfg, vocab=build_vocab(split)), Rng(11))


def fit_reading_views(split, epochs=2, on_step=None):
    """A small run whose loss reads augmented image views, so it starts a worker."""
    return fit(tiny_model(split), split, READS_IMAGE_VIEWS, FULL_AUG,
               TrainConfig(epochs=epochs, batch_size=4), Rng(1), on_step=on_step)


@pytest.fixture
def workers(monkeypatch):
    """Every ViewWorker `fit` starts, with its process and buffer kept for
    inspection after `close` lets go of them."""
    started = []

    class Recorded(ViewWorker):
        def __init__(self, *args):
            super().__init__(*args)
            self.proc, self.buf = self._proc, self._buf
            started.append(self)

    monkeypatch.setattr(train, "ViewWorker", Recorded)
    return started


def assert_released(workers):
    assert workers, "no worker was started"
    for w in workers:
        assert w.proc.exitcode is not None  # exited and joined
        assert w.buf.closed
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("mode", ["pool", "stack", "trivial"])
def test_views_equal_assemble_batch(mode):
    split = corpus()
    cfg = AugmentConfig(image_mode=mode)
    batches = []  # three epochs of 6, 6, 4: every slot reused, a short batch fills a prefix
    for epoch in range(3):
        order = Rng(5).named(f"shuffle-{epoch}").permutation(len(split))
        for i in range(0, len(split), 6):
            batches.append((order[i : i + 6], Rng(7).named(f"aug-{epoch}-{i}")))
    with ViewWorker(split, cfg, batches) as worker:
        for step, (chosen, rng) in enumerate(batches):
            want = assemble_batch(split, chosen, cfg, rng).images_aug
            got = worker.take()
            assert got.dtype == want.dtype and np.array_equal(got, want), step


@pytest.mark.parametrize(
    "preset, overrides",
    [
        ("tbps-clip", []),
        ("tbps-clip", ["augment.image_mode=stack"]),
        ("tbps-clip", ["augment.image_mode=trivial"]),
        ("simplified", ["loss.weights.mvs_i=0.3"]),
        ("nitc", ["loss.weights.ss_it=0.2"]),  # text views stay in process
    ],
)
def test_runs_with_and_without_worker_are_byte_identical(preset, overrides, monkeypatch, workers,
                                                          tmp_path):
    exp = materialize(resolve(preset=preset, overrides=MICRO + overrides))
    experiments.run_training(exp, out_dir=tmp_path / "worker")
    assert len(workers) == 1
    monkeypatch.setattr(prefetch, "available", lambda: False)
    experiments.run_training(exp, out_dir=tmp_path / "inline")
    assert len(workers) == 1
    for name in ("init.ckpt", "final.ckpt", "history.csv", "report.json"):
        worker, inline = (tmp_path / how / name for how in ("worker", "inline"))
        assert worker.read_bytes() == inline.read_bytes(), name


@pytest.mark.parametrize(
    "loss, aug",
    [
        (LossConfig(weights={"n_itc": 1.0}), FULL_AUG),  # no term reads an image view
        (READS_IMAGE_VIEWS, AugmentConfig(image_mode="none")),  # the view is the image
    ],
)
def test_no_worker_when_no_view_is_built(loss, aug, workers):
    split = corpus()
    fit(tiny_model(split), split, loss, aug, TrainConfig(epochs=1, batch_size=4), Rng(1))
    assert workers == []


def test_released_after_a_normal_end(workers):
    fit_reading_views(corpus())
    assert_released(workers)


def test_released_after_non_finite_loss(workers, monkeypatch):
    real = train.train_step
    steps = []

    def failing(*args):
        steps.append(1)
        if len(steps) == 2:
            raise NonFiniteLoss("loss became nan")
        return real(*args)

    monkeypatch.setattr(train, "train_step", failing)
    with pytest.raises(NonFiniteLoss):
        fit_reading_views(corpus())
    assert_released(workers)


def test_released_after_on_step_raises(workers):
    def on_step(row):
        if row["step"] == 1:
            raise KeyError("stop here")

    with pytest.raises(KeyError, match="stop here"):
        fit_reading_views(corpus(), on_step=on_step)
    assert_released(workers)


def test_killed_worker_is_a_clear_error_not_a_hang(workers):
    def on_step(row):
        if row["step"] == 0:
            os.kill(workers[0].proc.pid, signal.SIGKILL)

    def hung(*_):
        raise TimeoutError("fit still waits for a dead worker")

    start = time.monotonic()
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(WorkerDied, match=r"worker \(pid \d+\) was killed by SIGKILL"):
            fit_reading_views(corpus(), epochs=3, on_step=on_step)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert_released(workers)


def test_error_inside_the_worker_is_raised_with_its_type_and_message(workers, monkeypatch):
    split = corpus()
    bad = pixels(split.images[split.image_of[3]])  # a uint8 image holds no NaN
    bad[0, 0, 0] = np.nan
    split = rebuilt(ToySpec(n_identities=6, images_per_identity=2), split, {3: bad})

    def run():
        rows = []
        with pytest.raises(ValueError, match="image contains NaN or Inf") as err:
            fit_reading_views(split, on_step=rows.append)
        return rows, err.value

    rows, error = run()
    assert type(error) is ValueError
    assert isinstance(error.__cause__, prefetch.RemoteTraceback)
    assert "augment_image" in str(error.__cause__)
    assert_released(workers)
    monkeypatch.setattr(prefetch, "available", lambda: False)
    assert run()[0] == rows  # in process, the same step fails


def test_unguarded_script_on_stdin_trains():
    script = textwrap.dedent(
        """
        import sys
        import dataclasses
        from tbpslab import prefetch
        from tbpslab.augment import AugmentConfig
        from tbpslab.data import ToySpec, build_vocab, generate_toy
        from tbpslab.losses import LossConfig
        from tbpslab.model import ModelConfig, init_model
        from tbpslab.numerics import Rng
        from tbpslab.train import TrainConfig, fit

        if "inline" in sys.argv:
            prefetch.available = lambda: False
        split = generate_toy(ToySpec(n_identities=6, images_per_identity=2), Rng(31)).train
        cfg = ModelConfig(embed_dim=6, hidden_dim=12, image_layers=2, text_layers=2)
        model = init_model(dataclasses.replace(cfg, vocab=build_vocab(split)), Rng(11))
        loss = LossConfig(weights={"n_itc": 1.0, "ss_i": 0.3})
        aug = AugmentConfig(image_mode="pool", text_mode="stack")
        fit(model, split, loss, aug, TrainConfig(epochs=2, batch_size=4), Rng(1))
        print(model.params["img.out.W"].tobytes().hex())
        """
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    outputs = []
    for how in ("worker", "inline"):
        done = subprocess.run([sys.executable, "-", how], input=script, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0].split()) == 1


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "given, want", [({}, ["1", "1", "1"]), ({"OMP_NUM_THREADS": "3"}, ["1", "3", "1"])]
)
def test_blas_threads_default_to_one_and_keep_a_set_value(given, want):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(given, PYTHONPATH=SRC)
    code = f"import os, tbpslab, numpy; print(*(os.environ[k] for k in {BLAS_VARS!r}))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == want


@pytest.mark.parametrize(
    "code, given, warns",
    [
        ("import numpy, tbpslab", {}, True),
        ("import tbpslab, numpy", {}, False),
        ("import numpy, tbpslab", {"OPENBLAS_NUM_THREADS": "1"}, False),
    ],
    ids=["numpy-first", "tbpslab-first", "thread-count-set"],
)
def test_warns_when_numpy_was_imported_first(code, given, warns):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(given, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert ("RuntimeWarning" in done.stderr) == warns, done.stderr
    assert ("documented" in done.stderr) == warns
