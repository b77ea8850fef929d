"""Model selection: k-fold cross-validation over one point or a grid.

Folds are contiguous slices of a seeded shuffle with sizes differing by at
most one. Per-run trainer seeds derive from (base seed, run index) so
results do not depend on execution order.

``cross_validate`` is the one entry point. Its (point, fold) jobs, and
with one point the final fit as the last job, run on one schedule, one
process per CPU: the caller and up to CPUs - 1 forked children each run a
share, and the children pickle their few-float results back over a pipe.
The fit, the heaviest job, is the caller's, so the model never crosses a
pipe; with several points the winner is fit after the schedule. Each job
trains on the same rows with the same seed on one CPU as on many, so the
result is the same. Spans and counters recorded inside a child stay in
the child. Keep each BLAS call made there within OpenBLAS's one-thread
size, M*N*K <= 2^18: a woken BLAS thread spins, and on two CPUs an
unblocked MLP gradient took the MLP's ``train`` 0.45 -> 0.73 s.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import signal
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Callable

import numpy as np

from ..errors import FoldWorkerDied, TooFewRows
from .base import LabeledDataset, ModelArtifact, ModelKind, predict_batch
from .linear import train_linear_svc, train_lr
from .mlp import train_mlp
from .naive_bayes import train_nb
from .tree import train_dt, train_rf

TRAINERS = {
    ModelKind.NB: train_nb,
    ModelKind.LR: train_lr,
    ModelKind.SVC: train_linear_svc,
    ModelKind.DT: train_dt,
    ModelKind.RF: train_rf,
    ModelKind.MLP: train_mlp,
}

DEFAULT_GRIDS: dict[ModelKind, dict[str, list]] = {
    ModelKind.LR: {"l2": [0.0, 0.01, 0.1]},
    ModelKind.SVC: {"c": [0.1, 1.0, 10.0]},
    ModelKind.DT: {"max_depth": [8, 16, 24]},
    ModelKind.RF: {"num_trees": [50, 100]},
    ModelKind.MLP: {"hidden_layers": [[32], [64]]},
    ModelKind.NB: {"alpha": [0.5, 1.0]},
}


@dataclass
class FoldResult:
    fold: int
    n_validate: int
    accuracy: float
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0


@dataclass
class CVReport:
    kind: ModelKind
    params: dict
    folds: list[FoldResult] = field(default_factory=list)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([f.accuracy for f in self.folds]))

    @property
    def std_accuracy(self) -> float:
        return float(np.std([f.accuracy for f in self.folds]))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "params": self.params,
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "folds": [{"fold": f.fold, "n_validate": f.n_validate,
                       "accuracy": f.accuracy, "precision": f.precision,
                       "recall": f.recall, "f1": f.f1} for f in self.folds],
        }


def derive_seed(base_seed: int, run_index: int) -> int:
    return int(np.random.SeedSequence((base_seed, run_index)).generate_state(1)[0])


def fold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """k contiguous folds of a seeded shuffle, sizes differing by <= 1."""
    if k < 2:
        raise TooFewRows(f"need k >= 2 folds, got {k}")
    if k > n:
        raise TooFewRows(f"cannot split {n} rows into {k} folds")
    return np.array_split(np.random.default_rng(seed).permutation(n), k)


def cross_validate(kind: ModelKind | str, params: dict, data: LabeledDataset,
                   k: int = 10, seed: int = 0, grid: dict[str, list] | None = None
                   ) -> tuple[dict, list[CVReport], ModelArtifact]:
    """The chosen params, one report per point, and the model trained on
    all of ``data`` with ``seed`` and those params.

    Without ``grid`` the one point is ``params``, and ``k`` = 0 only fits.
    Else each point of the grid's product (names sorted, values in listed
    order) is cross-validated as ``{**point, **params}``, and the highest
    mean accuracy wins, ties going to the earliest point. All points share
    the folds of ``seed``'s shuffle. Fold i of point r trains with
    ``derive_seed(s, i)``, where s is ``derive_seed(seed, r)``, or ``seed``
    without a grid."""
    from ..evaluation import confusion, metrics

    kind = ModelKind(kind)
    trainer = TRAINERS[kind]
    if grid is None:
        points, seeds = [dict(params)], [seed]
    elif not grid:
        raise ValueError("grid must be non-empty")
    else:
        names = sorted(grid)
        points = [{**dict(zip(names, combo)), **params}
                  for combo in itertools.product(*(grid[n] for n in names))]
        seeds = [derive_seed(seed, r) for r in range(len(points))]
    folds = fold_indices(len(data), k, seed) if k or grid is not None else []

    def run_job(j: int):
        if j == len(points) * len(folds):  # one point's final fit
            return trainer(data, seed=seed, **points[0])
        r, i = divmod(j, len(folds))
        fold = folds[i]
        # ascending, the order the trainers' arithmetic was fixed in
        train_rows = np.flatnonzero(~np.isin(np.arange(len(data)), fold))
        model = trainer(data.subset(train_rows), seed=derive_seed(seeds[r], i), **points[r])
        validation = data.subset(fold)
        scored = metrics(confusion(predict_batch(model, validation.batch)[0],
                                   validation.labels))
        return FoldResult(fold=i, n_validate=len(fold), accuracy=scored.accuracy,
                          precision=scored.precision, recall=scored.recall, f1=scored.f1)

    weights = [len(data) - len(fold) for fold in folds] * len(points)
    results = _run_jobs(run_job, weights + [len(data)] * (len(points) == 1),
                        lambda j: f"point {j // len(folds)}, fold {j % len(folds)}")
    reports = [CVReport(kind, point, results[r * len(folds):(r + 1) * len(folds)])
               for r, point in enumerate(points)] if folds else []
    if len(points) == 1:
        return points[0], reports, results[-1]
    best = max(range(len(points)), key=lambda r: reports[r].mean_accuracy)
    return points[best], reports, trainer(data, seed=seed, **points[best])


def _shares(weights: list[int], processes: int) -> list[list[int]]:
    """Graham's LPT rule (1969): job j, heaviest first and ties in index
    order, goes to the least loaded process, the lowest-numbered among
    equals. Each share lists its jobs in ascending order."""
    shares: list[list[int]] = [[] for _ in range(processes)]
    for j in sorted(range(len(weights)), key=lambda j: -weights[j]):
        min(shares, key=lambda share: sum(weights[i] for i in share)).append(j)
    return [sorted(share) for share in shares]


def _run_jobs(run_job: Callable[[int], Any], weights: list[int],
              name: Callable[[int], str]) -> list:
    """``[run_job(j) for j in range(len(weights))]``, on one process per CPU.

    ``weights`` holds each job's cost. ``_shares`` gives the caller share 0,
    which holds the heaviest job, and a forked child each other share. Every
    process runs its share in job order and stops at its first failing job,
    so the lowest failing job's exception is raised, the one a serial run
    raises first. A child that ends without a result is ``FoldWorkerDied``
    for its lowest job, worded by ``name(j)``. No child outlives the call."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    caller, *others = _shares(weights, min(cpus, len(weights)))
    outcome: dict[int, Any] = {}
    workers: list[tuple[int, BinaryIO, list[int]]] = []
    try:
        for share in others:
            workers.append(_fork_worker(run_job, share))
        outcome.update(_run_in_order(run_job, caller))
        while workers:
            pid, reader, jobs = workers[0]
            data = reader.read()
            reader.close()
            status = os.waitpid(pid, 0)[1]
            workers.pop(0)
            try:
                done, remote_tb = pickle.loads(data)
            except Exception:  # noqa: BLE001 - the child ended before its result was whole
                outcome[jobs[0]] = FoldWorkerDied(f"{name(jobs[0])}: its worker ended "
                                                  f"without a result (wait status {status})")
                continue
            for got in done.values():
                if isinstance(got, Exception):
                    got.__cause__ = Exception(f"in the job's worker:\n{remote_tb}")
            outcome.update(done)
    finally:
        for pid, reader, _ in workers:  # interrupted: stop and reap the rest
            reader.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    for j in range(len(weights)):  # a job missing from ``outcome`` follows a failed one
        if isinstance(outcome[j], Exception):
            raise outcome[j]
    return [outcome[j] for j in range(len(weights))]


def _run_in_order(run_job: Callable[[int], Any], jobs: list[int]) -> dict[int, Any]:
    """Each job's result, up to and including the first that raises."""
    done: dict[int, Any] = {}
    for j in jobs:
        try:
            done[j] = run_job(j)
        except Exception as exc:  # noqa: BLE001 - reported in job order by the caller
            done[j] = exc
            break
    return done


def _fork_worker(run_job: Callable[[int], Any],
                 jobs: list[int]) -> tuple[int, BinaryIO, list[int]]:
    """A child that runs ``jobs`` and pickles its results and the text
    of its traceback, if one job raised, into a pipe."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns when a process with threads forks; a
            # warning made an error there would lose the child's pid
            warnings.simplefilter("default", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:  # silent: no output, no atexit handler, never back into the caller
            os.close(read_fd)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            # a redirected sys.stdout or sys.stderr writes past fds 1 and 2
            sys.stdout = sys.stderr = os.fdopen(devnull, "w")
            done = _run_in_order(run_job, jobs)
            failed = [got for got in done.values() if isinstance(got, Exception)]
            remote_tb = "".join(traceback.format_exception(failed[0])) if failed else ""
            with os.fdopen(write_fd, "wb") as out:
                out.write(pickle.dumps((done, remote_tb)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb"), jobs
