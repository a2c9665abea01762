"""Augmented image views built ahead of the training step, in a worker process.

While step k trains, one worker process builds the augmented image views
of steps k+1 .. k+LOOKAHEAD. It derives each sample's stream as
`train.assemble_batch` does (`image_streams`), picks the captions' images
from the split's image table by row the same way and calls the same
`augment.augment_image`, so its views are byte-identical to the ones built
in process. The views are float64: augmentation moves pixels off the
k/255 grid.

The worker is forked from the trainer: it inherits the training split's
tables and an anonymous shared buffer of LOOKAHEAD slots, and needs nothing
from the caller's `__main__`, so it works from unguarded scripts and scripts
read from stdin. Per step the trainer sends (slot, indices, rng) and the
worker answers with the slot number once the views are written to that
slot. The trainer copies the views out before it hands the slot to a
later step. `close` stops the worker, joins it and frees the buffer; if
the worker dies or an error is raised inside it, `take` raises instead of
waiting.
"""

from __future__ import annotations

import mmap
import signal
import sys
import traceback

import numpy as np

from .augment import augment_image
from .numerics import Rng

LOOKAHEAD = 2  # steps built ahead of the one training, one buffer slot each
STOP_TIMEOUT_S = 10.0  # a worker that has not exited by then is killed


class WorkerDied(RuntimeError):
    """The image view worker exited before it answered."""


class RemoteTraceback(Exception):
    """The traceback of an error raised in the worker, as the cause of the
    error `take` re-raises."""

    def __str__(self):
        return "\n" + self.args[0]


def image_streams(rng: Rng, n: int) -> list:
    """The streams of a batch's n augmented image views: sample i reads
    `rng.child(i).named("image")`."""
    return [rng.child(i).named("image") for i in range(n)]


def available() -> bool:
    """Whether a worker can be started here. It is forked, and forking a
    process that has loaded numpy's BLAS is safe on Linux only (macOS's
    Accelerate is not fork-safe). A spawned worker would re-import the
    caller's `__main__`, which fails for a script read from stdin and
    re-runs an unguarded one."""
    return sys.platform.startswith("linux")


class ViewWorker:
    """Builds the augmented image views of a run's batches in a worker.

    `batches` lists, per step, the caption rows of `split` that the step
    trains on and the batch rng. Each `take` returns the next step's
    (n, H, W, 3) views. Use it as a context manager, or call `close`.
    """

    def __init__(self, split, aug_cfg, batches):
        # imported here: runs that build no image view do not pay for it
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._batches = batches
        self._next = 0
        capacity = max(len(chosen) for chosen, _ in batches)
        self._slot_shape = (capacity, *split.images.shape[1:])
        # anonymous and shared: the forked worker writes what the trainer reads
        self._buf = mmap.mmap(-1, LOOKAHEAD * 8 * int(np.prod(self._slot_shape)))
        self._conn, theirs = ctx.Pipe()
        self._proc = ctx.Process(
            target=_serve,
            args=(theirs, self._conn, split, aug_cfg, self._buf, self._slot_shape),
            name="tbpslab-views",
            daemon=True,
        )
        try:
            self._proc.start()
            theirs.close()  # the worker holds its own end now
            for step in range(min(LOOKAHEAD, len(batches))):
                self._submit(step)
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def take(self) -> np.ndarray:
        """The augmented views of the next step not yet taken."""
        step = self._next
        slot, error, remote_tb = self._receive()
        if error is not None:
            raise error from RemoteTraceback(remote_tb)
        n = len(self._batches[step][0])
        views = np.ndarray(
            (LOOKAHEAD, *self._slot_shape), dtype=np.float64, buffer=self._buf
        )[slot, :n].copy()
        self._next += 1
        if step + LOOKAHEAD < len(self._batches):
            self._submit(step + LOOKAHEAD)
        return views

    def close(self):
        """Stop and join the worker and free the buffer; safe to call twice.

        Closing the connection is the stop signal: the worker exits when
        its next read finds the end of the stream."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._proc is not None:
            if self._proc.pid is not None:  # it was started
                _join(self._proc)
            self._proc = None
        if self._buf is not None:
            self._buf.close()
            self._buf = None

    # -- trainer side of the protocol -------------------------------------

    def _submit(self, step: int):
        chosen, rng = self._batches[step]
        try:
            self._conn.send((step % LOOKAHEAD, chosen, rng))
        except OSError:
            raise self._died() from None

    def _receive(self):
        """The worker's next reply; its death, after any reply, is reported at once."""
        from multiprocessing.connection import wait  # imported here, as in `__init__`
        try:
            wait([self._conn, self._proc.sentinel])
            if not self._conn.poll():
                raise self._died()
            return self._conn.recv()
        except (EOFError, OSError):
            raise self._died() from None

    def _died(self) -> WorkerDied:
        code = _join(self._proc)
        how = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited with code {code}"
        return WorkerDied(f"the image augmentation worker (pid {self._proc.pid}) {how}")


def _join(proc) -> int:
    """The worker's exit code, once it has exited; killed after STOP_TIMEOUT_S."""
    proc.join(STOP_TIMEOUT_S)
    if proc.exitcode is None:
        proc.kill()
        proc.join()
    return proc.exitcode


def _serve(conn, trainer_end, split, aug_cfg, buf, slot_shape):
    """The worker: build each requested step's views into its slot."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the trainer stops it
    trainer_end.close()  # the fork's copy; kept open, the stop signal would never arrive
    slots = np.ndarray((LOOKAHEAD, *slot_shape), dtype=np.float64, buffer=buf)
    try:
        while True:
            slot, chosen, rng = conn.recv()
            try:
                slots[slot, : len(chosen)] = augment_image(
                    split.images[split.image_of[chosen]], aug_cfg, image_streams(rng, len(chosen))
                )
                reply = (slot, None, None)
            except Exception as exc:  # raised again in the trainer
                reply = (slot, exc, traceback.format_exc())
            conn.send(reply)
    except (EOFError, OSError):  # the trainer closed the connection, or is gone
        pass
