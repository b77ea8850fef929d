import atexit
import os
import pickle
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideation_stream.classifiers import DEFAULT_GRIDS, ModelKind, cross_validate, selection
from ideation_stream.classifiers.selection import derive_seed, fold_indices
from ideation_stream.errors import DegenerateLabels, FoldWorkerDied, TooFewRows

from conftest import random_sparse_dataset


class TestFolds:
    def test_ten_of_ten_singletons(self):
        folds = fold_indices(10, 10, seed=0)
        assert [len(f) for f in folds] == [1] * 10

    def test_partition_properties_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            k = int(rng.integers(2, min(n, 12) + 1))
            seed = int(rng.integers(0, 2**31))
            folds = fold_indices(n, k, seed=seed)
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)  # the larger folds come first
            joined = np.concatenate(folds)
            # contiguous runs of the seeded shuffle, which every stored CV result depends on
            assert joined.tolist() == np.random.default_rng(seed).permutation(n).tolist()

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            fold_indices(5, 6, seed=0)
        with pytest.raises(TooFewRows):
            fold_indices(5, 1, seed=0)


class TestCrossValidate:
    def test_report_shape_and_determinism(self):
        rng = np.random.default_rng(1)
        data = random_sparse_dataset(rng, n=30, dim=5)
        params, [a], _ = cross_validate(ModelKind.NB, {"alpha": 1.0}, data, k=5, seed=3)
        _, [b], _ = cross_validate(ModelKind.NB, {"alpha": 1.0}, data, k=5, seed=3)
        assert params == a.params == {"alpha": 1.0}
        assert len(a.folds) == 5
        assert sum(f.n_validate for f in a.folds) == 30
        assert [f.accuracy for f in a.folds] == [f.accuracy for f in b.folds]
        assert 0.0 <= a.mean_accuracy <= 1.0 and a.std_accuracy >= 0.0

    def test_default_k_is_ten(self):
        rng = np.random.default_rng(2)
        data = random_sparse_dataset(rng, n=40, dim=4)
        _, [report], _ = cross_validate(ModelKind.NB, {}, data)
        assert len(report.folds) == 10


class TestGridSearch:
    def test_singleton_grid_wins(self):
        rng = np.random.default_rng(4)
        data = random_sparse_dataset(rng, n=20, dim=4)
        best, reports, _ = cross_validate(ModelKind.NB, {}, data, k=4, grid={"alpha": [0.7]})
        assert best == {"alpha": 0.7}
        assert len(reports) == 1

    def test_two_by_three_runs_six(self):
        rng = np.random.default_rng(5)
        data = random_sparse_dataset(rng, n=24, dim=4)
        grid = {"l2": [0.0, 0.1], "max_iter": [5, 10, 20]}
        best, reports, _ = cross_validate(ModelKind.LR, {}, data, k=3, grid=grid)
        assert len(reports) == 6
        seen = [(r.params["l2"], r.params["max_iter"]) for r in reports]
        assert seen == [(0.0, 5), (0.0, 10), (0.0, 20), (0.1, 5), (0.1, 10), (0.1, 20)]
        assert best in [r.params for r in reports]

    def test_dominant_config_beats_crippled_one(self):
        from conftest import make_data, make_vec

        # separable by the sign of feature 0, but the class-mean
        # difference points along feature 1 — so a single gradient step
        # (max_iter=1) lands on a non-separating direction
        pts = [((0.2, 10), 1), ((1.8, -6), 1), ((0.3, 9), 1), ((1.7, -5), 1),
               ((-0.2, 6), 0), ((-1.8, -10), 0), ((-0.3, 5), 0), ((-1.7, -9), 0)]
        data = make_data([make_vec(2, [(0, x0), (1, x1)]) for (x0, x1), _ in pts],
                         [y for _, y in pts])
        best, reports, _ = cross_validate(ModelKind.LR, {}, data, k=4, seed=1,
                                          grid={"max_iter": [200, 1]})
        assert best == {"max_iter": 200}
        accs = {r.params["max_iter"]: r.mean_accuracy for r in reports}
        assert accs[200] > accs[1]

    def test_fixed_params_join_every_point(self):
        data = random_sparse_dataset(np.random.default_rng(21), n=24, dim=4)
        best, reports, model = cross_validate(ModelKind.LR, {"max_iter": 2}, data, k=3,
                                              grid={"l2": [0.0, 0.1]})
        assert [r.params for r in reports] == [{"l2": 0.0, "max_iter": 2},
                                               {"l2": 0.1, "max_iter": 2}]
        assert best in [r.params for r in reports]
        # the returned model is the one the winning point describes
        alone = selection.TRAINERS[ModelKind.LR](data, seed=0, **best)
        assert pickle.dumps(model) == pickle.dumps(alone)

    def test_empty_grid_rejected(self, separable_toy):
        with pytest.raises(ValueError):
            cross_validate(ModelKind.LR, {}, separable_toy, k=2, grid={})

    def test_tie_goes_to_first_point(self):
        rng = np.random.default_rng(6)
        data = random_sparse_dataset(rng, n=16, dim=3)
        # identical alpha values -> identical accuracy -> first listed wins
        best, reports, _ = cross_validate(ModelKind.NB, {}, data, k=4,
                                          grid={"alpha": [1.0, 1.0]})
        assert reports[0].mean_accuracy == reports[1].mean_accuracy
        assert best == reports[0].params


def _fold_of(seed, k=5):
    """Which fold a trainer call belongs to, from the seed it was given;
    None for the final fit, which gets the base seed 3."""
    return {derive_seed(3, i): i for i in range(k)}.get(seed)


def _job_of(seed, points=2, k=3):
    """The (point, fold) of a grid trainer call with base seed 3, from its
    seed; None for the winner's fit."""
    return {derive_seed(derive_seed(3, r), i): (r, i)
            for r in range(points) for i in range(k)}.get(seed)


@pytest.fixture
def cpus(monkeypatch):
    """Pretend the process may run on ``n`` CPUs."""
    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return pin


@pytest.fixture
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("no_child_left")
class TestForkedFolds:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_one_cpu_and_three_give_the_same_report(self, kind, cpus):
        data = random_sparse_dataset(np.random.default_rng(7), n=40, dim=6)
        cpus(1)
        _, serial, model = cross_validate(kind, {}, data, k=5, seed=3)
        cpus(3)  # the caller fits and runs fold 4, one child 0 and 2, one child 1 and 3
        _, forked, forked_model = cross_validate(kind, {}, data, k=5, seed=3)
        assert forked == serial
        assert pickle.dumps(forked_model) == pickle.dumps(model)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_a_grid_selects_the_same_on_one_cpu_and_three(self, kind, cpus):
        data = random_sparse_dataset(np.random.default_rng(18), n=30, dim=6)
        grid = {name: values[:2] for name, values in DEFAULT_GRIDS[kind].items()}
        seen = []
        for n in (1, 3):  # 3 CPUs: the caller and two children run two of the 6 jobs each
            cpus(n)
            best, reports, model = cross_validate(kind, {}, data, k=3, seed=3, grid=grid)
            seen.append((best, reports, pickle.dumps(model)))
        assert seen[0] == seen[1]
        assert [len(r.folds) for r in seen[0][1]] == [3, 3]
        best, reports, model = seen[0]
        assert best == max(reports, key=lambda r: r.mean_accuracy).params
        assert model == pickle.dumps(selection.TRAINERS[kind](data, seed=3, **best))

    @pytest.mark.parametrize("failing, first", [
        (((1, 0), (0, 2)), (0, 2)), (((1, 2), (1, 1)), (1, 1)), (((0, 0), (1, 0)), (0, 0))])
    def test_the_lowest_failing_point_and_fold_raises(self, monkeypatch, cpus,
                                                      failing, first):
        errors = {failing[0]: DegenerateLabels, failing[1]: TooFewRows}
        real = selection.TRAINERS[ModelKind.NB]

        def trainer(data, seed, **params):
            job = _job_of(seed)
            if job in errors:
                raise errors[job]("point %d, fold %d" % job)
            return real(data, seed=seed, **params)

        monkeypatch.setitem(selection.TRAINERS, ModelKind.NB, trainer)
        data = random_sparse_dataset(np.random.default_rng(19), n=30, dim=4)
        cpus(3)
        with pytest.raises(errors[first], match="^point %d, fold %d$" % first):
            cross_validate(ModelKind.NB, {}, data, k=3, seed=3,
                           grid={"alpha": [0.5, 1.0]})

    def test_a_killed_child_names_its_point_and_fold(self, monkeypatch, cpus):
        caller = os.getpid()
        real = selection.TRAINERS[ModelKind.NB]

        def trainer(data, seed, **params):
            if _job_of(seed) == (1, 0) and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(data, seed=seed, **params)

        monkeypatch.setitem(selection.TRAINERS, ModelKind.NB, trainer)
        data = random_sparse_dataset(np.random.default_rng(20), n=30, dim=4)
        cpus(4)  # 6 equal jobs: the caller runs jobs 0 and 4, children 1 and 5, 2, and 3
        with pytest.raises(FoldWorkerDied, match=r"^point 1, fold 0: .*wait status 9\)"):
            cross_validate(ModelKind.NB, {}, data, k=3, seed=3, grid={"alpha": [0.5, 1.0]})

    @pytest.mark.parametrize("failing, first", [((1, 2), 1), ((2, 4), 2), ((0, 3), 0)])
    def test_lowest_failing_fold_raises_with_its_type(self, monkeypatch, cpus,
                                                      failing, first):
        errors = {failing[0]: DegenerateLabels, failing[1]: TooFewRows}
        real = selection.TRAINERS[ModelKind.NB]

        def trainer(data, seed, **params):
            fold = _fold_of(seed)
            if fold in errors:
                raise errors[fold](f"fold {fold}")
            return real(data, seed=seed, **params)

        monkeypatch.setitem(selection.TRAINERS, ModelKind.NB, trainer)
        data = random_sparse_dataset(np.random.default_rng(8), n=30, dim=4)
        cpus(3)
        with pytest.raises(errors[first], match=f"^fold {first}$"):
            cross_validate(ModelKind.NB, {}, data, k=5, seed=3)

    def test_a_killed_child_raises_the_typed_error(self, monkeypatch, cpus):
        caller = os.getpid()
        real = selection.TRAINERS[ModelKind.NB]

        def trainer(data, seed, **params):
            if _fold_of(seed) == 2 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(data, seed=seed, **params)

        monkeypatch.setitem(selection.TRAINERS, ModelKind.NB, trainer)
        data = random_sparse_dataset(np.random.default_rng(9), n=30, dim=4)
        cpus(3)
        # the caller fits and runs fold 4, one child 0 and 2, one child 1 and 3:
        # the killed child's fold 0 is lost with its fold 2
        with pytest.raises(FoldWorkerDied, match=r"^point 0, fold 0: .*wait status 9\)"):
            cross_validate(ModelKind.NB, {}, data, k=5, seed=3)

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("grid", [True, False])
    def test_one_process_per_cpu(self, monkeypatch, cpus, n, grid):
        real_fork, forked = os.fork, []

        def fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        data = random_sparse_dataset(np.random.default_rng(14), n=30, dim=4)
        cpus(n)
        cross_validate(ModelKind.NB, {}, data, k=3, seed=3,
                       grid={"alpha": [0.5, 1.0]} if grid else None)
        # 2 points x 3 folds are 6 jobs; one point's 3 folds and its fit are 4
        assert len(forked) == min(n, 6 if grid else 4) - 1

    @pytest.mark.parametrize("n, order", [(1, [0, 1, 2, 3, 4, None]), (3, [4, None])])
    def test_the_caller_runs_its_share_in_job_order(self, monkeypatch, cpus, n, order):
        caller, calls = os.getpid(), []
        real = selection.TRAINERS[ModelKind.NB]

        def trainer(data, seed, **params):
            if os.getpid() == caller:
                calls.append(_fold_of(seed))
            return real(data, seed=seed, **params)

        monkeypatch.setitem(selection.TRAINERS, ModelKind.NB, trainer)
        data = random_sparse_dataset(np.random.default_rng(17), n=30, dim=4)
        cpus(n)
        cross_validate(ModelKind.NB, {}, data, k=5, seed=3)
        assert calls == order

    def test_the_shares_balance_training_rows(self):
        # 3 folds of 320 rows on 2 CPUs: the fit (320) and a fold against two folds;
        # the heaviest job goes first, ties in index order
        assert selection._shares([213, 213, 214, 320], 2) == [[1, 3], [0, 2]]
        assert selection._shares([24] * 5, 3) == [[0, 3], [1, 4], [2]]
        assert selection._shares([5, 5, 6], 1) == [[0, 1, 2]]

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_the_fit_is_the_trainer_on_all_rows(self, cpus, n, kind):
        data = random_sparse_dataset(np.random.default_rng(15), n=40, dim=6)
        cpus(n)
        _, [report], model = cross_validate(kind, {}, data, k=5, seed=3)
        params, reports, unvalidated = cross_validate(kind, {}, data, k=0, seed=3)
        alone = selection.TRAINERS[kind](data, seed=3)
        assert (params, reports, len(report.folds)) == ({}, [], 5)  # k = 0 only fits
        assert pickle.dumps(model) == pickle.dumps(unvalidated) == pickle.dumps(alone)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("failing, raised", [
        ((1, None), DegenerateLabels), ((4, None), DegenerateLabels), ((None,), TooFewRows)])
    def test_a_failing_fold_outranks_a_failing_fit(self, monkeypatch, cpus, n,
                                                   failing, raised):
        real = selection.TRAINERS[ModelKind.NB]

        def trainer(data, seed, **params):
            fold = _fold_of(seed)
            if fold in failing:
                raise (TooFewRows if fold is None else DegenerateLabels)(f"fold {fold}")
            return real(data, seed=seed, **params)

        monkeypatch.setitem(selection.TRAINERS, ModelKind.NB, trainer)
        data = random_sparse_dataset(np.random.default_rng(16), n=30, dim=4)
        cpus(n)
        with pytest.raises(raised, match=f"^fold {failing[0]}$"):
            cross_validate(ModelKind.NB, {}, data, k=5, seed=3)

    def test_an_interrupted_caller_kills_its_children(self, monkeypatch, cpus):
        caller = os.getpid()

        def trainer(data, seed, **params):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setitem(selection.TRAINERS, ModelKind.NB, trainer)
        data = random_sparse_dataset(np.random.default_rng(10), n=30, dim=4)
        cpus(3)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cross_validate(ModelKind.NB, {}, data, k=5, seed=3)
        assert time.monotonic() - started < 30

    def test_children_write_nothing(self, monkeypatch, cpus, capfd):
        caller = os.getpid()
        real = selection.TRAINERS[ModelKind.NB]

        def trainer(data, seed, **params):
            if os.getpid() != caller:
                print("from a child")
                os.write(2, b"from a child\n")
                atexit.register(os.write, 1, b"atexit in a child\n")
            return real(data, seed=seed, **params)

        monkeypatch.setitem(selection.TRAINERS, ModelKind.NB, trainer)
        data = random_sparse_dataset(np.random.default_rng(11), n=30, dim=4)
        cpus(3)
        cross_validate(ModelKind.NB, {}, data, k=5, seed=3)
        assert capfd.readouterr() == ("", "")

    def test_a_non_main_thread_gets_the_same_report(self, cpus):
        data = random_sparse_dataset(np.random.default_rng(12), n=40, dim=6)
        cpus(3)
        here = cross_validate(ModelKind.LR, {}, data, k=5, seed=3)[1]
        there = []
        thread = threading.Thread(
            target=lambda: there.append(cross_validate(ModelKind.LR, {}, data, k=5, seed=3)[1]))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and there == [here]

    def test_a_fork_warning_made_an_error_loses_no_child(self, monkeypatch, cpus):
        # Python >= 3.12 warns in the parent after forking with threads alive;
        # the suite turns warnings into errors
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                warnings.warn("forking with threads alive", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        data = random_sparse_dataset(np.random.default_rng(13), n=30, dim=4)
        cpus(1)
        serial = cross_validate(ModelKind.NB, {}, data, k=5, seed=3)[1]
        cpus(3)
        with warnings.catch_warnings(record=True):
            assert cross_validate(ModelKind.NB, {}, data, k=5, seed=3)[1] == serial


@settings(max_examples=20, deadline=None)
@given(cpus=st.integers(1, 4), weights=st.lists(st.integers(1, 9), min_size=1, max_size=8),
       data=st.data())
def test_the_runner_is_a_serial_map(cpus, weights, data):
    failing = data.draw(st.sets(st.integers(0, len(weights) - 1), max_size=3))
    caller, ran_here = os.getpid(), []

    def run_job(j):
        ran_here.append(j)  # only the caller's own jobs reach the caller's list
        if j in failing:
            raise LookupError(j)
        return j * j, os.getpid()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        if failing:
            with pytest.raises(LookupError) as raised:
                selection._run_jobs(run_job, weights, str)
            assert raised.value.args == (min(failing),)
        else:
            results = selection._run_jobs(run_job, weights, str)
            assert [square for square, _ in results] == [j * j for j in range(len(weights))]
            assert {j for j, (_, pid) in enumerate(results) if pid == caller} == set(ran_here)
    # the first heaviest job is the caller's, and the caller runs its share in job order
    heaviest = weights.index(max(weights))
    assert heaviest in ran_here or ran_here[-1] in failing
    assert ran_here == sorted(ran_here)
    with pytest.raises(ChildProcessError):  # no child is left
        os.waitpid(-1, os.WNOHANG)
