import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from talcil import DomainError, asymmetry_index, confusion_and_prf, forgetting_curve, spearman
from oracle import confusion_counts
from talcil.metrics import confusion_matrix, seed_summary


def rank_by_pair_counting(values):
    """O(n^2) average-rank oracle: 1 + (#smaller) + (#equal among others)/2."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    ranks = np.empty(n)
    for i in range(n):
        smaller = sum(1 for j in range(n) if values[j] < values[i])
        equal = sum(1 for j in range(n) if j != i and values[j] == values[i])
        ranks[i] = 1.0 + smaller + equal / 2.0
    return ranks


def spearman_oracle(x, y):
    rx = rank_by_pair_counting(x)
    ry = rank_by_pair_counting(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx**2).sum() * (ry**2).sum())
    if denom == 0:
        return float("nan")
    return float((rx * ry).sum() / denom)


# ---------------------------------------------------------------------------
# confusion / precision / recall
# ---------------------------------------------------------------------------


def test_perfect_predictions():
    y = np.array([0, 1, 2, 0, 1, 2])
    m = confusion_and_prf(y, y, 3)
    assert np.all(m.precision == 1.0) and np.all(m.recall == 1.0)
    assert m.support.tolist() == [2, 2, 2]
    assert np.all(m.precision_defined)


def test_single_class_predictor_degenerate_case():
    labels = np.array([0, 0, 1, 1, 2, 2])
    preds = np.zeros(6, dtype=int)
    m = confusion_and_prf(preds, labels, 3)
    assert m.precision[0] == pytest.approx(2.0 / 6.0)  # its prior
    assert m.recall[0] == 1.0
    assert m.recall[1] == 0.0 and m.recall[2] == 0.0
    # nobody predicted classes 1, 2: undefined, not zero
    assert not m.precision_defined[1] and not m.precision_defined[2]
    assert np.isnan(m.precision[1]) and np.isnan(m.precision[2])


def test_random_instance_matches_hand_counted_matrix():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, size=60)
    preds = rng.integers(0, 3, size=60)
    counts = confusion_matrix(preds, labels, 3)
    by_hand = np.zeros((3, 3), dtype=int)
    for p, t in zip(preds, labels):
        by_hand[t, p] += 1
    assert np.array_equal(counts, by_hand)
    m = confusion_and_prf(preds, labels, 3)
    for k in range(3):
        tp = by_hand[k, k]
        assert m.precision[k] == pytest.approx(tp / by_hand[:, k].sum())
        assert m.recall[k] == pytest.approx(tp / by_hand[k, :].sum())


@pytest.mark.parametrize("seed", range(4))
def test_confusion_matrix_matches_the_add_at_oracle(seed):
    rng = np.random.default_rng(seed)
    class_count = int(rng.integers(1, 12))
    n = int(rng.integers(1, 500))
    labels, preds = rng.integers(0, class_count, size=(2, n))
    counts = confusion_matrix(preds, labels, class_count)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, confusion_counts(preds, labels, class_count))


def test_confusion_matrix_keeps_rows_and_columns_of_absent_classes():
    # classes 0, 3 and 5 are never true; 1, 3 and 5 are never predicted
    labels = np.array([1, 2, 4, 4, 2, 1, 6])
    preds = np.array([0, 2, 4, 2, 6, 0, 6])
    counts = confusion_matrix(preds, labels, 7)
    assert counts.shape == (7, 7)
    assert np.array_equal(counts, confusion_counts(preds, labels, 7))
    assert not counts[[0, 3, 5]].any() and not counts[:, [1, 3, 5]].any()


def test_empty_inputs_rejected():
    with pytest.raises(DomainError):
        confusion_and_prf([], [], 3)
    with pytest.raises(DomainError):
        confusion_and_prf([0, 1], [0], 2)
    with pytest.raises(DomainError):
        confusion_and_prf([0, 5], [0, 1], 3)
    # a float label is refused, not truncated, and a 2-d one is not flattened
    for preds, labels in (
        ([0.7, 1.9], [0, 1]),
        ([0, 1], [0.0, 1.0]),
        (["0", "1"], [0, 1]),
        ([[0, 1], [1, 0]], [[0, 1], [1, 0]]),
    ):
        with pytest.raises(DomainError):
            confusion_and_prf(preds, labels, 2)


@pytest.mark.parametrize("class_count", [2.5, 3.0, True, "4", np.float64(3)])
def test_class_count_must_be_an_integer(class_count, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the class count was checked")

    class Unread:  # labels that fail the test if they are read at all
        __array__ = no_allocation

    monkeypatch.setattr(np, "zeros", no_allocation)
    with pytest.raises(DomainError, match="class count"):
        confusion_and_prf(Unread(), Unread(), class_count)


@pytest.mark.parametrize("class_count", [np.int64(3), np.int32(3), np.uint8(3)])
def test_numpy_integer_class_counts_are_accepted(class_count):
    counts = confusion_matrix([0, 2, 1], [0, 1, 1], class_count)
    assert counts.shape == (3, 3) and counts.sum() == 3
    assert confusion_and_prf([0, 2, 1], [0, 1, 1], class_count).support.tolist() == [1, 2, 0]


def test_micro_recall_on_balanced_split_equals_accuracy():
    rng = np.random.default_rng(1)
    labels = np.repeat(np.arange(4), 25)
    preds = np.where(rng.random(100) < 0.7, labels, rng.integers(0, 4, size=100))
    m = confusion_and_prf(preds, labels, 4)
    accuracy = float(np.mean(preds == labels))
    assert m.recall.mean() == pytest.approx(accuracy, abs=1e-12)


# ---------------------------------------------------------------------------
# rank correlation
# ---------------------------------------------------------------------------


@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=-5, max_value=5),
        ),
        min_size=3,
        max_size=30,
    )
)
def test_spearman_matches_pair_counting_oracle(data):
    x = [a for a, _ in data]
    y = [b for _, b in data]
    got = spearman(x, y)
    want = spearman_oracle(x, y)
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert got == pytest.approx(want, abs=1e-12)


def test_spearman_edge_cases():
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman([1, 2, 3], [30, 20, 10]) == -1.0
    assert np.isnan(spearman([1, 1, 1], [1, 2, 3]))
    with pytest.raises(DomainError):
        spearman([1, 2], [3, 4])
    with pytest.raises(DomainError):
        spearman([1.0, np.nan, 3.0], [1, 2, 3])


# ---------------------------------------------------------------------------
# asymmetry diagnostics
# ---------------------------------------------------------------------------


def _metrics(precision, recall, defined=None):
    precision = np.asarray(precision, dtype=float)
    recall = np.asarray(recall, dtype=float)
    if defined is None:
        defined = ~np.isnan(precision)
    from talcil.metrics import PerClassMetrics

    return PerClassMetrics(
        precision=precision,
        recall=recall,
        support=np.full(len(recall), 10),
        precision_defined=np.asarray(defined),
        recall_defined=np.full(len(recall), True),
    )


def test_symmetric_classifier_has_zero_index_and_degenerate_correlation():
    m = _metrics([0.8, 0.7, 0.9, 0.6], [0.8, 0.7, 0.9, 0.6])
    result = asymmetry_index(m, [3, 2, 1, 0])
    assert np.all(result.index == 0.0)
    assert np.isnan(result.age_correlation) or result.age_correlation == 0.0


def test_old_classes_skewed_to_precision_gives_positive_correlation():
    # oldest class: precision >> recall; newest: recall >> precision
    m = _metrics([0.95, 0.85, 0.7, 0.55], [0.4, 0.6, 0.75, 0.9])
    result = asymmetry_index(m, [3, 2, 1, 0])
    assert result.age_correlation == 1.0


def test_undefined_precision_excluded_not_zeroed():
    m = _metrics([np.nan, 0.9, 0.7, 0.5], [0.2, 0.8, 0.7, 0.9])
    result = asymmetry_index(m, [3, 2, 1, 0])
    assert np.isnan(result.index[0])
    assert not result.included[0]
    assert result.included[1:].all()
    # with the undefined class dropped the correlation uses 3 points
    assert result.age_correlation == pytest.approx(
        spearman([0.1, 0.0, -0.4], [2, 1, 0])
    )


def test_too_few_defined_classes_errors():
    m = _metrics([np.nan, np.nan, 0.7, 0.5], [0.2, 0.8, 0.7, 0.9])
    with pytest.raises(DomainError):
        asymmetry_index(m, [3, 2, 1, 0])


# ---------------------------------------------------------------------------
# forgetting curves
# ---------------------------------------------------------------------------


def test_single_task_gives_length_one_curve():
    curves = forgetting_curve(np.array([[0.9]]))
    assert len(curves) == 1
    assert curves[0].tolist() == [0.9]


def test_known_matrix_reshapes_correctly():
    acc = np.array(
        [
            [0.9, np.nan, np.nan],
            [0.7, 0.95, np.nan],
            [0.5, 0.8, 0.97],
        ]
    )
    curves = forgetting_curve(acc)
    assert curves[0].tolist() == [0.9, 0.7, 0.5]
    assert curves[1].tolist() == [0.95, 0.8]
    assert curves[2].tolist() == [0.97]
    with pytest.raises(DomainError):
        forgetting_curve(np.zeros((2, 3)))


def test_seed_summary_groups_cells_in_key_order():
    # an unsorted grid (--lambdas 0.999,0.99) still summarizes in key order,
    # the CE cell's None lambda counting as 0
    rows = [
        {"loss": "tal", "lam": 0.999, "seed": 0, "a_mean": 0.5, "a_last": 0.25},
        {"loss": "tal", "lam": 0.99, "seed": 0, "a_mean": 0.75, "a_last": 0.5},
        {"loss": "ce", "lam": None, "seed": 0, "a_mean": 0.25, "a_last": 0.125},
        {"loss": "tal", "lam": 0.999, "seed": 1, "a_mean": 0.25, "a_last": 0.75},
    ]
    summary = seed_summary(rows, by=("loss", "lam"))
    assert [(cell["loss"], cell["lam"]) for cell in summary] == [
        ("ce", None), ("tal", 0.99), ("tal", 0.999)
    ]
    assert summary[2] == {
        "loss": "tal", "lam": 0.999,
        "a_mean_mean": 0.375, "a_mean_std": 0.125, "a_last_mean": 0.5, "a_last_std": 0.25,
    }
    [whole] = seed_summary(rows)
    a_means = [row["a_mean"] for row in rows]
    assert whole["a_mean_mean"] == float(np.mean(a_means))
    assert whole["a_mean_std"] == float(np.std(a_means))
