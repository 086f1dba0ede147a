import copy
import json
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from talcil import (
    DomainError,
    SolverError,
    SpecError,
    TrainingError,
    ablate,
    make_gaussian_tasks,
    spearman,
    train_incremental,
)
from talcil.cli import main
from talcil.config import DatasetBlock, ExperimentSpec, LossBlock, ScheduleBlock
from talcil.sim import Classifier, class_ages, train_cells

CE = LossBlock(kind="CE")
TAL = LossBlock(kind="TAL")
LOSSES = {"ce": CE, "tal": TAL}
QUICK = ScheduleBlock(lr=0.1, epochs=20, batch_size=32)


def spec_of(loss=CE, schedule=QUICK, **dataset):
    """A run on the default spec's problem, or on one with ``dataset``
    changed; the schedule block carries the replay count."""
    return ExperimentSpec(dataset=DatasetBlock(**dataset), schedule=schedule, loss=loss)


def one_seed(spec, seed):
    """``spec`` run on the one seed ``seed``."""
    return replace(spec, seeds=(seed,))


def train_one(spec, seed):
    """The report of ``spec``'s own loss on the one seed ``seed``."""
    [report] = train_incremental(one_seed(spec, seed))
    return report


def write_spec(tmp_path, text):
    path = tmp_path / "spec.yaml"
    path.write_text(text)
    return path


def small_setup(seed=0, **dataset):
    """The dataset and task schedule of one seed of ``spec_of(**dataset)``."""
    return make_gaussian_tasks(spec_of(**dataset), seed)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


def test_dataset_is_bit_identical_for_same_seed():
    a, _ = small_setup(seed=5)
    b, _ = small_setup(seed=5)
    assert np.array_equal(a.class_means, b.class_means)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.test, b.test)
    c, _ = small_setup(seed=6)
    assert not np.array_equal(a.train, c.train)


def test_dataset_shapes_and_separation():
    ds, schedule = small_setup(seed=1, classes=10, tasks=5, per_class=30)
    assert ds.train.shape == (10, 30, 16)
    assert ds.test.shape == (10, 100, 16)
    dists = np.linalg.norm(
        ds.class_means[:, None, :] - ds.class_means[None, :, :], axis=2
    )
    np.fill_diagonal(dists, np.inf)
    assert dists.min() >= 2.5
    assert schedule.tasks == 5
    assert schedule.new_classes(0) == range(0, 2)


def test_dataset_parameter_validation():
    # the dataset block rejects a problem that cannot be built ...
    with pytest.raises(DomainError):
        DatasetBlock(classes=10, tasks=3)  # 10 % 3 != 0
    with pytest.raises(DomainError):
        DatasetBlock(sep=-1.0)
    # ... and a seed whose means cannot be placed is a solver failure:
    # 20 points on a radius-5 circle cannot be pairwise 5 apart
    with pytest.raises(SolverError):
        small_setup(classes=20, dim=2, tasks=2, per_class=10, sep=5.0)


def test_widely_separated_classes_are_jointly_learnable():
    spec = spec_of(schedule=replace(QUICK, replay_per_class=0), tasks=1, sep=6.0)
    report = train_one(spec, 0)
    assert report.a_last > 0.95


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


def test_classifier_head_grows_with_zero_columns():
    clf = Classifier(dim=4)
    clf.add_classes(2)
    x = np.ones((3, 4))
    assert clf.logits(x).shape == (3, 2)
    assert np.all(clf.logits(x) == 0.0)
    clf.w += 1.0
    clf.add_classes(1)
    z = clf.logits(x)
    assert z.shape == (3, 3)
    assert np.all(z[:, 2] == 0.0)  # new column starts silent
    assert np.all(z[:, :2] == 4.0)


@pytest.mark.parametrize("hidden", [0, 8])
def test_cleared_cell_computes_zeros_and_the_others_keep_their_bits(hidden):
    rng = np.random.default_rng(0)
    head = Classifier.stack([Classifier(dim=5, hidden=hidden, seed=s) for s in range(3)])
    head.add_classes(4)
    head.w = rng.standard_normal(head.w.shape)
    head.b = rng.standard_normal(head.b.shape)
    cleared = copy.deepcopy(head)
    cleared.clear(1)
    x = rng.standard_normal((7, 5))
    grads = rng.standard_normal((3, 7, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h_cleared, h = cleared.features(x), head.features(x)
        z = cleared.logits(h_cleared)
        assert np.all(z[1] == 0.0)
        assert np.array_equal(z[[0, 2]], head.logits(h)[[0, 2]])
        head.train_batch(x, h, grads, 0.1)
        grads[1] = 0.0  # a failed cell gets a zero gradient row
        cleared.train_batch(x, h_cleared, grads, 0.1)
    for name in ("w1", "b1", "w", "b"):
        if getattr(head, name) is None:
            continue
        assert np.all(getattr(cleared, name)[1] == 0.0)
        assert bits(getattr(cleared, name)[[0, 2]]) == bits(getattr(head, name)[[0, 2]])
    assert np.all(cleared.predict(x)[1] == 0)


def test_hidden_layer_classifier_trains():
    spec = spec_of(
        schedule=replace(QUICK, hidden=32, replay_per_class=0),
        classes=4, dim=8, tasks=1, per_class=60, test_per_class=50, sep=4.0,
    )
    report = train_one(spec, 0)
    assert report.a_last > 0.9


def test_hidden_layer_incremental_run_grows_head_only():
    spec = spec_of(
        TAL,
        ScheduleBlock(replay_per_class=5, hidden=16, lr=0.1, epochs=15, batch_size=16),
        classes=4, dim=8, tasks=2, per_class=40, test_per_class=30, sep=3.0,
    )
    report = train_one(spec, 0)
    assert report.overall_accuracy[-1] > 0.5  # well above the 0.25 chance level


# ---------------------------------------------------------------------------
# incremental training
# ---------------------------------------------------------------------------


def test_single_task_adjusted_and_plain_losses_agree_closely():
    acc = {}
    for kind in ("ce", "tal"):
        spec = spec_of(LOSSES[kind], replace(QUICK, replay_per_class=0), tasks=1)
        acc[kind] = train_one(spec, 0).a_last
    assert abs(acc["tal"] - acc["ce"]) < 0.02


def test_accuracy_matrix_is_lower_triangular():
    report = train_one(spec_of(per_class=40), 0)
    acc = report.accuracy_matrix
    for t in range(5):
        for u in range(5):
            if u <= t:
                assert np.isfinite(acc[t, u])
            else:
                assert np.isnan(acc[t, u])
    # overall accuracy over seen classes equals the row mean on balanced tests
    for t in range(5):
        assert report.overall_accuracy[t] == pytest.approx(
            np.nanmean(acc[t, : t + 1]), abs=1e-12
        )
    assert report.a_last == report.overall_accuracy[-1]
    assert report.a_mean == pytest.approx(report.overall_accuracy.mean())


def test_ce_run_shows_age_skew_and_positive_q_recall_association():
    corr_q_recall = []
    early_skew = 0
    for report in train_incremental(replace(spec_of(), seeds=(0, 1, 2))):
        final = report.per_task[4]
        recall = final.recall
        precision = final.precision
        q = report.q_snapshots[4][1]
        corr_q_recall.append(spearman(q, recall))
        if recall[:2].mean() < np.nanmean(precision[:2]):
            early_skew += 1
    assert np.mean(corr_q_recall) > 0.2
    assert early_skew >= 2


def test_adjusted_loss_beats_plain_on_paired_seeds():
    reports = train_cells(replace(spec_of(), seeds=(0, 1)), [CE, TAL])
    wins = sum(tal.a_last > ce.a_last for ce, tal in reports)
    assert wins == 2


def test_reports_are_reproducible():
    a = train_one(spec_of(TAL, per_class=40), 3)
    b = train_one(spec_of(TAL, per_class=40), 3)
    assert np.array_equal(a.accuracy_matrix, b.accuracy_matrix, equal_nan=True)
    assert all(
        np.array_equal(getattr(m1, f.name), getattr(m2, f.name), equal_nan=True)
        for m1, m2 in zip(a.per_task, b.per_task, strict=True)
        for f in fields(m1)
    )
    assert a.a_mean == b.a_mean and a.a_last == b.a_last
    assert all(
        s1 == s2 and np.array_equal(q1, q2)
        for (s1, q1), (s2, q2) in zip(a.q_snapshots, b.q_snapshots)
    )


def test_tracker_tracks_classifier_growth():
    report = train_one(spec_of(TAL, per_class=30), 0)
    # after task t there are 2*(t+1) classes, all with a tracker entry
    for t, (_, q) in enumerate(report.q_snapshots):
        assert q.shape == (2 * (t + 1),)


def test_divergent_run_raises_training_error_with_step():
    spec = spec_of(
        schedule=ScheduleBlock(replay_per_class=2, lr=1e308, epochs=3),
        classes=4, dim=8, tasks=2, per_class=20, test_per_class=10,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingError) as err:
            train_one(spec, 0)
    assert err.value.step is not None


DIVERGING = spec_of(
    schedule=ScheduleBlock(replay_per_class=2, epochs=3, batch_size=32),
    classes=4, dim=8, tasks=2, per_class=20, test_per_class=10,
)


@pytest.mark.parametrize(
    "lr, cells, message",
    [
        (1e307, (CE, TAL), "loss diverged at step 6"),
        (1e307, (TAL, CE), "loss diverged at step 6"),
        (1e308, (CE, TAL), "training diverged at step 1"),
        (1e308, (TAL, CE), "loss diverged at step 2"),
    ],
    ids=["1e307-ce-tal", "1e307-tal-ce", "1e308-ce-tal", "1e308-tal-ce"],
)
def test_divergence_is_reported_by_the_first_failed_cell(lr, cells, message):
    # Non-finite logits are "training diverged"; finite logits whose loss
    # overflows are "loss diverged".  Both carry the failed cell's step.
    spec = replace(DIVERGING, schedule=replace(DIVERGING.schedule, lr=lr))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingError) as err:
            train_cells(one_seed(spec, 0), list(cells))
    assert str(err.value) == message
    assert err.value.step == int(message.rsplit(" ", 1)[1])


@pytest.mark.parametrize(
    "loss, name", [(TAL, "training_step"), (CE, "ce_forward")], ids=["tal", "ce"]
)
def test_a_library_error_in_a_finite_step_is_not_divergence(monkeypatch, loss, name):
    def boom(*args, **kwargs):
        raise DomainError("boom")

    monkeypatch.setattr(f"talcil.sim.{name}", boom)
    with pytest.raises(DomainError, match="boom"):
        train_cells(one_seed(DIVERGING, 0), [loss])


def test_report_losses_cover_every_step():
    spec = spec_of(
        schedule=ScheduleBlock(replay_per_class=4, lr=0.1, epochs=2, batch_size=16),
        classes=4, dim=8, tasks=2, per_class=24, test_per_class=10,
    )
    events = train_one(spec, 0).events
    assert sorted(events) == ["epoch", "loss", "step", "task"]
    # task 0: 48 samples -> 3 batches/epoch; task 1: 48+8 -> 4 batches/epoch
    assert events["loss"].dtype == np.float64 and events["loss"].shape == (2 * 3 + 2 * 4,)
    assert np.all(np.isfinite(events["loss"]))
    assert events["step"].tolist() == list(range(14))
    assert events["task"].tolist() == [0] * 6 + [1] * 8
    assert events["epoch"].tolist() == [0, 0, 0, 1, 1, 1] + [0] * 4 + [1] * 4
    # every column spells its cells as Python int and float reprs
    row = {key: column.tolist()[13] for key, column in events.items()}
    assert [type(row[key]) for key in sorted(row)] == [int, float, int, int]


def test_forgetting_curve_directions():
    # the first task's accuracy decays over subsequent tasks under plain CE,
    # and the adjusted loss ends it higher (mean over 5 paired seeds)
    from talcil import forgetting_curve

    finals = {"ce": [], "tal": []}
    initial_drop = 0
    for reports in train_cells(replace(spec_of(), seeds=tuple(range(5))), [CE, TAL]):
        for kind, report in zip(("ce", "tal"), reports):
            task0 = forgetting_curve(report.accuracy_matrix)[0]
            finals[kind].append(task0[-1])
            if kind == "ce" and task0[-1] < task0[0]:
                initial_drop += 1
    assert initial_drop >= 4
    assert np.mean(finals["tal"]) > np.mean(finals["ce"])


def test_class_ages_order():
    _, schedule = small_setup()
    ages = class_ages(schedule)
    assert ages.dtype == np.float64
    assert ages[0] == 4 and ages[1] == 4
    assert ages[8] == 0 and ages[9] == 0
    assert np.all(np.diff(ages[::2]) < 0)


# ---------------------------------------------------------------------------
# lockstep cells
# ---------------------------------------------------------------------------


def bits(value):
    """A report field in a form that compares equal only when the bits do."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    return repr(value)  # floats: shortest round-trip, so -0.0 and NaN count too


def report_bits(report):
    """Every field in ``bits`` form, the per-step events table included."""
    return {f.name: bits(getattr(report, f.name)) for f in fields(report)}


LOCKSTEP_CELLS = [
    CE,
    LossBlock(lam=0.99, r=1.0),
    LossBlock(lam=0.995, r=0.5, exploratory=True),
    LossBlock(lam=0.999, r=5.0),
]


@pytest.mark.parametrize("hidden", [0, 8])
def test_lockstep_cells_equal_one_cell_runs_bit_for_bit(hidden):
    spec = spec_of(
        schedule=ScheduleBlock(replay_per_class=5, hidden=hidden, lr=0.1, epochs=4, batch_size=16),
        classes=6, dim=8, tasks=3, per_class=40, test_per_class=20,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        alone = [train_one(replace(spec, loss=loss), 2) for loss in LOCKSTEP_CELLS]
        [lock] = train_cells(one_seed(spec, 2), LOCKSTEP_CELLS)
    assert [report_bits(r) for r in lock] == [report_bits(r) for r in alone]


@pytest.mark.parametrize("hidden", [0, 8])
def test_seed_lockstep_equals_one_seed_runs_bit_for_bit(hidden):
    spec = spec_of(
        schedule=ScheduleBlock(replay_per_class=5, hidden=hidden, lr=0.1, epochs=4, batch_size=16),
        classes=6, dim=8, tasks=3, per_class=40, test_per_class=20,
    )
    seeds = (3, 0)  # out of order on purpose: reports follow the spec, not the seed value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        lock = train_cells(replace(spec, seeds=seeds), LOCKSTEP_CELLS)
        for seed, reports in zip(seeds, lock, strict=True):
            [alone] = train_cells(one_seed(spec, seed), LOCKSTEP_CELLS)
            assert [r.seed for r in reports] == [seed] * len(LOCKSTEP_CELLS)
            assert [report_bits(r) for r in reports] == [report_bits(r) for r in alone]


@pytest.mark.parametrize("hidden", [0, 8])
def test_a_cell_view_predicts_its_slice_of_the_stack_bit_for_bit(hidden):
    rng = np.random.default_rng(0)
    head = Classifier.stack(
        [Classifier.stack([Classifier(dim=16, hidden=hidden, seed=s)] * 3) for s in range(2)]
    )
    head.add_classes(10)
    for name in ("w1", "b1", "w", "b"):
        if getattr(head, name) is not None:
            setattr(head, name, rng.standard_normal(getattr(head, name).shape))
    x = rng.standard_normal((2, 1, 1000, 16))
    logits, preds = head.logits(head.features(x)), head.predict(x)
    for i in range(2):
        for j in range(3):
            cell = head.cell((i, j))
            for name in ("w1", "b1", "w", "b"):
                if getattr(head, name) is not None:
                    assert np.shares_memory(getattr(cell, name), getattr(head, name))
            assert bits(cell.logits(cell.features(x[i, 0]))) == bits(logits[i, j])
            assert bits(cell.predict(x[i, 0])) == bits(preds[i, j])


def test_evaluation_memory_does_not_grow_with_cells_times_test_samples():
    spec = one_seed(spec_of(
        schedule=ScheduleBlock(replay_per_class=0, epochs=1, batch_size=32),
        classes=4, dim=8, tasks=1, per_class=8, test_per_class=2000,
    ), 0)
    grid = [CE] + [LossBlock(lam=lam, r=r) for lam in (0.99, 0.995, 0.999, 0.9995)
                   for r in (1.0, 1.5, 2.0, 3.0, 5.0)]
    train_cells(spec, grid[:1])  # first-use imports and caches are no part of either peak
    peaks = []
    for losses in (grid[:1], grid):
        tracemalloc.start()
        try:
            train_cells(spec, losses)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # every cell's float64 test logits at once would add (cells - 1) * N_test * C doubles
    stacked = (len(grid) - 1) * 4 * 2000 * 4 * 8
    assert peaks[1] - peaks[0] < stacked / 10


DIVERGENT_SPEC = """\
dataset: {classes: 4, dim: 8, tasks: 2, per_class: 20, test_per_class: 10}
schedule: {replay_per_class: 2, hidden: 4, epochs: 6, lr: 1.0e+24}
loss: {kind: TAL, lambda: 0.99, r: 1.0}
seeds: [1, 0]
"""


def test_lockstep_raises_the_first_failed_cell_in_grid_order(tmp_path, capsys):
    # With a huge learning rate the logits overflow within a few steps.
    # Seed 0's cross-entropy cell overflows first, one step before its TAL
    # cell; seed 1's cells fail later, its TAL cell first.
    spec = spec_of(
        schedule=ScheduleBlock(replay_per_class=2, hidden=4, epochs=6, lr=1e24),
        classes=4, dim=8, tasks=2, per_class=20, test_per_class=10,
    )
    seeds = (1, 0)
    cells = [LossBlock(lam=0.99, r=1.0), CE]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        steps = []  # (seed, cell) in spec order: (1, TAL), (1, CE), (0, TAL), (0, CE)
        for seed in seeds:
            for loss in cells:
                with pytest.raises(TrainingError) as err:
                    train_one(replace(spec, loss=loss), seed)
                steps.append(err.value.step)
        with pytest.raises(TrainingError) as one_seed_err:
            train_cells(one_seed(spec, 0), cells)
        with pytest.raises(TrainingError) as err:
            train_cells(replace(spec, seeds=seeds), cells)
        # every cell trains on until its own failure: put each cell first in
        # grid order once, and the error raised is its own one-cell error
        rotated = []
        for i in range(len(seeds)):
            for c in range(len(cells)):
                with pytest.raises(TrainingError) as first_err:
                    train_cells(replace(spec, seeds=seeds[i:] + seeds[:i]), cells[c:] + cells[:c])
                rotated.append(first_err.value.step)
        code = main(["train", "--spec", str(write_spec(tmp_path, DIVERGENT_SPEC)),
                     "--output-dir", str(tmp_path / "out")])
    assert steps[3] < steps[2]  # seed 0's second cell fails first in time ...
    assert one_seed_err.value.step == steps[2]  # ... but its first cell's error is raised
    assert steps[3] < steps[0]  # and seed 0 fails before seed 1 ...
    assert err.value.step == steps[0]  # ... but seed 1 comes first in the spec
    assert str(err.value) == f"training diverged at step {steps[0]}"
    assert rotated == steps
    # a failed run exits 5 with the same error and writes nothing
    assert code == 5 and not (tmp_path / "out").exists()
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "TrainingError" and record["step"] == steps[0]


@pytest.mark.parametrize(
    "change",
    [
        dict(seed=1),
        dict(lr=0.2),
        dict(epochs=2),
        dict(batch_size=16),
        dict(hidden=4),
        dict(dim=6),
    ],
    ids=lambda change: next(iter(change)),
)
def test_lockstep_cells_must_share_the_batch_stream_and_head_shape(change):
    # The seed, the schedule and the head shape belong to the run, not to a
    # cell: changing one of them changes it for every cell alike.
    base = dict(seed=0, dim=8, lr=0.1, epochs=3, batch_size=32, hidden=0)
    cells = [CE, TAL]

    def run(seed, dim, **schedule):
        spec = spec_of(
            schedule=ScheduleBlock(replay_per_class=2, **schedule),
            classes=4, dim=dim, tasks=2, per_class=20, test_per_class=10,
        )
        [lock] = train_cells(one_seed(spec, seed), cells)
        alone = [train_one(replace(spec, loss=loss), seed) for loss in cells]
        assert [report_bits(r) for r in lock] == [report_bits(r) for r in alone]
        return lock, [bits({k: v for k, v in r.events.items() if k != "loss"}) for r in lock]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        before, before_stream = run(**base)
        after, after_stream = run(**{**base, **change})
    # both cells walk one batch stream, before and after the change
    assert before_stream[0] == before_stream[1]
    assert after_stream[0] == after_stream[1]
    # and the change reaches each of them
    for old, new in zip(before, after):
        assert report_bits(old) != report_bits(new)


def test_lockstep_needs_a_cell():
    spec = spec_of(classes=4, dim=8, tasks=2, per_class=20, test_per_class=10)
    spec = replace(spec, seeds=(0, 1))
    with pytest.raises(DomainError):
        train_cells(spec, [])


# ---------------------------------------------------------------------------
# ablation grid
# ---------------------------------------------------------------------------


def test_ablation_enumerates_every_cell_with_one_baseline():
    spec = ExperimentSpec(
        dataset=DatasetBlock(per_class=30), schedule=ScheduleBlock(epochs=4), seeds=(0, 1)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = ablate(spec, lambdas=(0.99, 0.995), rs=(0.5, 1.0))
    ce_rows = [r for r in rows if r["loss"] == "ce"]
    tal_rows = [r for r in rows if r["loss"] == "tal"]
    assert len(ce_rows) == 2  # one per seed: a single baseline cell
    assert len(tal_rows) == 2 * 2 * 2
    cells = {(r["lam"], r["r"]) for r in tal_rows}
    assert cells == {(0.99, 0.5), (0.99, 1.0), (0.995, 0.5), (0.995, 1.0)}


@pytest.mark.parametrize(
    "fields",
    [
        {"seeds": (0, 0)},  # ablate would train seed 0 twice
        {"seeds": ()},  # ablate would return no rows
        {"dataset": DatasetBlock(classes=4, tasks=4)},  # one class per task for TAL
    ],
    ids=["repeated-seed", "no-seed", "one-class-per-task"],
)
def test_a_spec_built_in_code_checks_itself(fields):
    with pytest.raises(SpecError):
        ExperimentSpec(**fields)


def test_steep_weighting_underperforms_linear_at_desk_scale():
    spec = ExperimentSpec(schedule=QUICK, seeds=(0, 1, 2))
    rows = ablate(spec, lambdas=(0.99,), rs=(1.0, 5.0))
    mean_last = {
        r: np.mean([row["a_last"] for row in rows if row["loss"] == "tal" and row["r"] == r])
        for r in (1.0, 5.0)
    }
    assert mean_last[5.0] < mean_last[1.0]
