import importlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import talcil
from talcil import (
    Classifier,
    DomainError,
    MemoryKernel,
    Minibatch,
    QState,
    SolverError,
    SpecError,
    SupervisionTrace,
    TalConfig,
    TaskSchedule,
    check_domain,
    sample_dominance_pair,
    solve_calibration,
    update_batched,
    update_tal,
)
from talcil.bench import run_loss_benchmark
from talcil.config import spec_from_mapping
from talcil.kernel import negative_weight
from talcil.metrics import confusion_matrix
from oracle import convolve_q, update_plain

LAMBDAS = [0.5, 0.9, 0.99, 0.995, 0.999]

polarity_lists = st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=400)


# ---------------------------------------------------------------------------
# MemoryKernel
# ---------------------------------------------------------------------------


def test_q_max_is_derived_from_lam():
    k = MemoryKernel(lam=0.9)
    assert k.q_max == pytest.approx(9.0, rel=1e-15)
    assert MemoryKernel(lam=0.5).q_max == 1.0


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
def test_lam_outside_open_interval_rejected(bad):
    with pytest.raises(DomainError):
        MemoryKernel(lam=bad)


@pytest.mark.parametrize("lam", [0.0, 1.0, 1.7, math.nan])
def test_every_lam_entry_point_reports_one_message(lam):
    # the kernel (simulate-stream --lam), the domain rule (a spec's loss
    # block) and a config built from lam report a lam outside (0, 1) alike
    message = f"memory parameter lam must lie in (0, 1), got {lam}"
    for call in (
        lambda: MemoryKernel(lam=lam),
        lambda: check_domain(lam, 1.0, False),
        lambda: TalConfig.for_classes(lam, 1.0, 4),
    ):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message
    if math.isfinite(lam):  # a spec rejects a non-finite number by its type first
        with pytest.raises(SpecError) as err:
            spec_from_mapping({"loss": {"lambda": lam}})
        assert str(err.value) == f"bad value in loss: {message}"


def test_kernel_weights_strictly_decreasing_and_positive():
    w = MemoryKernel(lam=0.7).weights(50)
    assert np.all(w > 0)
    assert np.all(np.diff(w) < 0)
    assert w[0] == 0.7  # newest step carries lam itself


# ---------------------------------------------------------------------------
# convolution oracle
# ---------------------------------------------------------------------------


def test_convolution_single_positive_step():
    k = MemoryKernel(lam=0.5)
    assert convolve_q(k.weights(1), [1.0]) == 0.5


@pytest.mark.parametrize("n", [1, 3, 10, 64])
def test_convolution_all_positive_closed_form(n):
    # under all-positive supervision the value is q_max * (1 - lam**n)
    k = MemoryKernel(lam=0.5)
    got = convolve_q(k.weights(n), np.ones(n))
    assert got == pytest.approx(1.0 - 0.5**n, abs=1e-14)


def test_convolution_alternating_matches_direct_summation():
    lam = 0.9
    values = np.array([1.0, -1.0] * 5)
    expected = sum(lam ** (10 - 1 - n + 1) * values[n] for n in range(10))
    k = MemoryKernel(lam=lam)
    got = convolve_q(k.weights(10), values)
    assert got == pytest.approx(expected, abs=1e-15)


def test_convolution_rejects_empty_sequence():
    with pytest.raises(DomainError):
        convolve_q(MemoryKernel(lam=0.5).weights(0), [])


def test_convolve_q_accepts_any_decreasing_kernel():
    f = 1.0 / (np.arange(10) + 2.0)
    a = np.array([1.0, -1.0, 1.0])
    assert convolve_q(f, a) == pytest.approx(f[2] - f[1] + f[0])


# ---------------------------------------------------------------------------
# plain recursion (oracle-comparison path)
# ---------------------------------------------------------------------------


def test_plain_one_step_values():
    k = MemoryKernel(lam=0.5)
    st = update_plain(QState.zeros(2), k, [1.0, -1.0])
    # raw recursion reports the negative value as-is
    assert st.q.tolist() == [0.5, -0.5]

    st2 = update_plain(QState(q=np.array([0.9])), MemoryKernel(lam=0.9), [1.0])
    assert st2.q[0] == pytest.approx(1.71, abs=1e-15)


def test_plain_rejects_length_mismatch():
    with pytest.raises(DomainError):
        update_plain(QState.zeros(3), MemoryKernel(lam=0.5), [1.0, -1.0])


def test_plain_all_positive_monotone_approach():
    k = MemoryKernel(lam=0.9)
    st = QState.zeros(1)
    values = []
    for _ in range(1000):
        st = update_plain(st, k, [1.0])
        values.append(st.q[0])
    # strictly increasing until float64 saturation (~step 326 for lam=0.9),
    # never decreasing, never attaining q_max
    assert all(b > a for a, b in zip(values[:300], values[1:301]))
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(k.q_max * (1 - 0.9**1000), rel=1e-12)
    assert values[-1] < k.q_max


@given(values=polarity_lists, lam=st.sampled_from(LAMBDAS))
def test_plain_recursion_equals_convolution(values, lam):
    k = MemoryKernel(lam=lam)
    st = QState.zeros(1)
    for v in values:
        st = update_plain(st, k, [v])
    conv = convolve_q(k.weights(len(values)), values)
    assert st.q[0] == pytest.approx(conv, abs=1e-10 * max(1.0, k.q_max))


# ---------------------------------------------------------------------------
# attenuated update
# ---------------------------------------------------------------------------


def test_tal_all_negative_stays_exactly_zero():
    for lam in (0.5, 0.9, 0.995):
        for r in (1.0, 2.0, 5.0):
            st = QState.zeros(1)
            for _ in range(200):
                st = update_tal(st, MemoryKernel(lam=lam), r, [-1.0])
                assert st.q[0] == 0.0


def test_tal_all_positive_closed_form():
    k = MemoryKernel(lam=0.99)
    st = QState.zeros(1)
    for n in range(1, 500):
        st = update_tal(st, k, 1.0, [1.0])
        assert st.q[0] == pytest.approx(k.q_max * (1 - 0.99**n), abs=1e-12 * k.q_max)


def test_tal_saturates_one_ulp_below_q_max():
    # lam=0.5 reaches the float ceiling after ~55 positives: the value must
    # pin at the largest representable below q_max, never q_max itself
    k = MemoryKernel(lam=0.5)
    st = QState.zeros(1)
    for _ in range(200):
        st = update_tal(st, k, 1.0, [1.0])
        assert st.q[0] < k.q_max
    assert st.q[0] == np.nextafter(k.q_max, 0.0)


def test_tal_rejects_uncalibrated_parameters():
    with pytest.raises(DomainError):
        update_tal(QState.zeros(1), MemoryKernel(lam=0.9), 0.5, [1.0])
    with pytest.raises(DomainError):
        update_tal(QState.zeros(1), MemoryKernel(lam=0.4), 1.0, [1.0])


@pytest.mark.parametrize(
    "polarities", [["1", "-1"], [True, True], np.array([1, -1], dtype=object), [1 + 0j, -1 + 0j]],
    ids=["strings", "bools", "objects", "complex"],
)
def test_tal_refuses_polarities_that_are_not_integers_or_floats(polarities):
    with pytest.raises(DomainError, match="integers or floats"):
        update_tal(QState.zeros(2), MemoryKernel(lam=0.9), 1.0, polarities)


@pytest.mark.parametrize("polarities", [[1.0, 0.0], [0.5, -1.0], [1, 0], [np.nan, 1.0]])
def test_tal_refuses_polarities_that_are_not_plus_or_minus_one(polarities):
    with pytest.raises(DomainError, match="exactly"):
        update_tal(QState.zeros(2), MemoryKernel(lam=0.9), 1.0, polarities)


def test_tal_reads_integer_polarities_as_their_floats():
    k = MemoryKernel(lam=0.9)
    for polarities in ([1, -1], np.array([1, -1], dtype=np.int8)):
        stepped = update_tal(QState.zeros(2), k, 1.0, polarities)
        assert stepped.q.tolist() == update_tal(QState.zeros(2), k, 1.0, [1.0, -1.0]).q.tolist()


def test_tal_rejects_state_outside_range():
    with pytest.raises(DomainError):
        update_tal(QState(q=np.array([-0.1])), MemoryKernel(lam=0.9), 1.0, [1.0])
    k = MemoryKernel(lam=0.9)
    with pytest.raises(DomainError):
        update_tal(QState(q=np.array([k.q_max])), k, 1.0, [1.0])


def test_range_invariant_raises_even_under_python_O():
    # a tracker beyond rounding distance of [0, q_max) is a library bug:
    # it must raise (CLI exit 1) rather than clamp, also when asserts are
    # off; and a NaN or out-of-range state handed to the loss or either
    # update is refused by the one checked read
    src = str(Path(talcil.__file__).resolve().parents[1])
    script = (
        "import numpy as np\n"
        "from talcil import QState, TalConfig, tal_forward, update_batched, update_tal\n"
        "from talcil.errors import TalcilError\n"
        "from talcil.kernel import _settle_range\n"
        "assert False, 'asserts are on'\n"
        "for q in ([-5.0], [10.5], [np.nan]):\n"
        "    try:\n"
        "        _settle_range(np.array(q), 10.0, True)\n"
        "    except TalcilError as exc:\n"
        "        print(type(exc).__name__)\n"
        "config = TalConfig.for_classes(0.9, 1.0, 2)\n"
        "k = config.kernel\n"
        "calls = (\n"
        "    lambda st: tal_forward(config, np.zeros((1, 2)), [0], st),\n"
        "    lambda st: update_tal(st, k, 1.0, [1.0, -1.0]),\n"
        "    lambda st: update_batched(st, k, 1.0, [0]),\n"
        ")\n"
        "for q in ([0.5, np.nan], [0.5, k.q_max]):\n"
        "    for call in calls:\n"
        "        try:\n"
        "            call(QState(q=q))\n"
        "        except TalcilError as exc:\n"
        "            print(type(exc).__name__)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["TalcilError"] * 3 + ["DomainError"] * 6


def test_tal_exploratory_r_clamps_and_warns():
    # r < 1 can push the value negative; the permissive path clamps at 0
    k = MemoryKernel(lam=0.99)
    st = QState(q=np.array([1e-4 * k.q_max]))
    with pytest.warns(RuntimeWarning):
        st = update_tal(st, k, 0.2, [-1.0], strict=False)
    assert st.q[0] == 0.0


@given(
    lam=st.sampled_from([0.5, 0.9, 0.995]),
    r=st.sampled_from([1.0, 2.0, 5.0]),
    bias=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25)
def test_tal_range_invariant_under_random_streams(lam, r, bias, seed):
    rng = np.random.default_rng(seed)
    k = MemoryKernel(lam=lam)
    st = QState.zeros(3)
    for _ in range(300):
        a = np.where(rng.random(3) < bias, 1.0, -1.0)
        st = update_tal(st, k, r, a)
        w = negative_weight(st.q, k.q_max, r)
        assert np.all(st.q >= 0.0) and np.all(st.q < k.q_max)
        assert np.all(w >= 0.0) and np.all(w < 1.0)


# ---------------------------------------------------------------------------
# batched update
# ---------------------------------------------------------------------------


@given(
    q_fracs=st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=2, max_size=6),
    lam=st.sampled_from([0.5, 0.9, 0.995]),
    r=st.sampled_from([1.0, 2.0, 5.0]),
    hot=st.integers(min_value=0, max_value=5),
)
def test_batched_single_sample_equals_single_step(q_fracs, lam, r, hot):
    k = MemoryKernel(lam=lam)
    q = np.array(q_fracs) * k.q_max
    hot = hot % len(q_fracs)
    state = QState(q=q)
    polarity = np.where(np.arange(len(q_fracs)) == hot, 1.0, -1.0)
    via_single = update_tal(state, k, r, polarity)
    via_batch = update_batched(state, k, r, [hot])
    assert np.array_equal(via_single.q, via_batch.q)


def test_batched_balanced_fixed_point():
    for c, r in [(5, 1.0), (10, 2.0), (3, 3.0)]:
        res = solve_calibration(c, r)
        k = MemoryKernel(lam=0.9)
        q0 = QState(q=np.full(c, res.x_star * k.q_max))
        q1 = update_batched(q0, k, r, np.repeat(np.arange(c), 4))
        assert np.abs(q1.q - q0.q).max() < 1e-9


def test_batched_per_class_priors_reach_their_own_fixed_points():
    # non-uniform batch composition: each class settles at the root of
    # (1 - p_k) x^r + x - p_k for its own prior p_k
    from talcil.calibration import _solve_x_star

    counts = np.array([1, 3, 6, 10])  # priors 0.05, 0.15, 0.3, 0.5
    n = counts.sum()
    labels = np.repeat(np.arange(4), counts)
    k = MemoryKernel(lam=0.95)
    st = QState.zeros(4)
    for _ in range(3000):
        st = update_batched(st, k, 2.0, labels)
    for i, c in enumerate(counts):
        x_expected, _ = _solve_x_star(c / n, 2.0)
        assert st.q[i] / k.q_max == pytest.approx(x_expected, abs=1e-10)


def test_batched_rejects_empty_batch_and_bad_counts():
    # the counts are the histogram of the labels, so a bad count is a bad label
    st = QState.zeros(2)
    k = MemoryKernel(lam=0.9)
    with pytest.raises(DomainError):
        update_batched(st, k, 1.0, [])
    with pytest.raises(DomainError):
        update_batched(st, k, 1.0, [[0, 1]])
    with pytest.raises(DomainError):
        update_batched(st, k, 1.0, [0.0, 1.0])
    for labels in ([2, 0], [-1, 1]):
        with pytest.raises(DomainError):
            update_batched(st, k, 1.0, labels)


_LABEL_READERS = [
    Minibatch,
    lambda labels, c: SupervisionTrace(labels=labels, class_count=c),
    lambda labels, c: confusion_matrix(labels, labels, c),
]


@pytest.mark.parametrize(
    "labels, class_count, message",
    [
        ([0, 1], True, "class count must be an integer >= 1, got True"),
        pytest.param([0, 1], 2.0, "class count must be an integer >= 1, got 2.0",
                     id="float-count"),
        pytest.param([0, 1], np.float64(2),
                     f"class count must be an integer >= 1, got {np.float64(2)!r}",
                     id="numpy-float-count"),
        ([0, 2], 2, "labels must lie in [0, 2)"),
        ([-1, 0], 2, "labels must lie in [0, 2)"),
        (np.array([2**64 - 1], np.uint64), 2, "labels must lie in [0, 2)"),
    ],
)
def test_every_label_reader_refuses_alike(labels, class_count, message):
    # one check reads the labels of a minibatch, a trace and a confusion matrix
    for read in _LABEL_READERS:
        with pytest.raises(DomainError) as refused:
            read(labels, class_count)
        assert str(refused.value) == message


_COUNT_READERS = {  # name: (what, low, high, read), one per count or index the library takes
    "QState.zeros": ("class count", 1, None, QState.zeros),
    "QState.append_classes": ("new class count", 0, None, QState.zeros(2).append_classes),
    "Classifier.add_classes": ("new class count", 0, None, lambda n: Classifier(2).add_classes(n)),
    "solve_calibration": ("class count", 2, None, lambda n: solve_calibration(n, 1.0)),
    "Minibatch": ("class count", 1, None, lambda n: Minibatch([0], n)),
    "SupervisionTrace": ("class count", 1, None, lambda n: SupervisionTrace([0], n)),
    "confusion_matrix": ("class count", 1, None, lambda n: confusion_matrix([0], [0], n)),
    "split-batch-size": ("batch size", 1, None, lambda n: Minibatch.split([0, 1], 2, n)),
    "split-runs": ("runs", 1, None, lambda n: Minibatch.split([0, 1], 2, 2, n)),
    "schedule-classes": ("class count", 1, None, lambda n: TaskSchedule(n, 1, 3, 1)),
    "schedule-tasks": ("task count", 1, None, lambda n: TaskSchedule(4, n, 3, 1)),
    "schedule-samples": ("samples per class", 1, None, lambda n: TaskSchedule(4, 2, n, 1)),
    "schedule-replay": ("replay per old class", 0, None, lambda n: TaskSchedule(4, 2, 3, n)),
    "new_classes": ("task index", 0, 2, TaskSchedule(4, 2, 3, 1).new_classes),
    "trace-class-id": ("class id", 0, 2, SupervisionTrace([0, 1, 0], 2).polarities),
    "bench-repeats": ("timed repeats", 1, None,
                      lambda n: run_loss_benchmark((1, 2), (2,), repeats=n)),
    "bench-batch-size": ("batch size", 1, None,
                         lambda n: run_loss_benchmark((n, 2), (2,), repeats=1)),
    "pair-length": ("length", 1, 2**32 + 1,
                    lambda n: sample_dominance_pair(np.random.default_rng(0), n, 1)),
    "pair-positives": ("positives", 1, 3,
                       lambda n: sample_dominance_pair(np.random.default_rng(0), 2, n)),
}


@pytest.mark.parametrize("name", _COUNT_READERS)
def test_every_count_reader_refuses_alike(name):
    # one check (kernel._count) reads every count and index, with one
    # message; a class count of 0 or -3 is no label range [0, 0) or [0, -3)
    what, low, high, read = _COUNT_READERS[name]
    span = f">= {low}" if high is None else f"in [{low}, {high})"
    for value in (True, 2.5, np.float64(2), low - 1, low - 4, *([high] if high else [])):
        with pytest.raises(DomainError) as refused:
            read(value)
        assert str(refused.value) == f"{what} must be an integer {span}, got {value!r}"
    read(np.int64(low))  # a numpy integer is a count


# ---------------------------------------------------------------------------
# QState bookkeeping
# ---------------------------------------------------------------------------


def test_qstate_starts_at_zero_and_grows_with_zeros():
    st = QState.zeros(3)
    assert st.q.tolist() == [0.0, 0.0, 0.0]
    st = update_tal(st, MemoryKernel(lam=0.9), 1.0, [1.0, -1.0, -1.0])
    grown = st.append_classes(2)
    assert grown.class_count == 5
    assert grown.q[3] == 0.0 and grown.q[4] == 0.0
    with pytest.raises(DomainError):
        st.append_classes(-1)
    with pytest.raises(DomainError):
        QState.zeros(0)


@pytest.mark.parametrize("count", [True, 2.5, 2.0, np.float64(2)])
def test_qstate_counts_must_be_integers(count):
    with pytest.raises(DomainError, match="class count must be an integer >= 1"):
        QState.zeros(count)
    with pytest.raises(DomainError, match="new class count must be an integer >= 0"):
        QState.zeros(2).append_classes(count)


def test_batched_exploratory_small_r_clamps_and_warns():
    k = MemoryKernel(lam=0.99)
    st = QState(q=np.array([1e-4 * k.q_max, 0.5]))
    with pytest.warns(RuntimeWarning):
        st = update_batched(st, k, 0.2, [1] * 8, strict=False)
    assert st.q[0] == 0.0
    assert st.q[1] >= 0.0


def test_updates_leave_input_state_untouched():
    st = QState(q=np.array([0.25, 0.5]))
    before = st.q.copy()
    update_tal(st, MemoryKernel(lam=0.9), 1.0, [1.0, -1.0])
    update_plain(st, MemoryKernel(lam=0.9), [1.0, -1.0])
    update_batched(st, MemoryKernel(lam=0.9), 1.0, [0, 1])
    assert np.array_equal(st.q, before)


# ---------------------------------------------------------------------------
# QState is a read-only snapshot that remembers its checks
# ---------------------------------------------------------------------------


def test_mutating_the_callers_array_leaves_the_state_unchanged():
    a = np.array([0.25, 0.5])
    st = QState(q=a)
    a[0] = 1e9
    assert st.q.tolist() == [0.25, 0.5]
    assert not np.shares_memory(st.q, a)


def test_a_states_q_cannot_be_written():
    k = MemoryKernel(lam=0.9)
    built = QState(q=np.array([0.25, 0.5]))
    stepped = update_tal(built, k, 1.0, [1.0, -1.0])
    batched = update_batched(built, k, 1.0, [0, 1], strict=False)
    for st in (built, stepped, batched, QState.zeros(2)):
        with pytest.raises(ValueError):
            st.q[0] = -5.0
        with pytest.raises(AttributeError):  # FrozenInstanceError
            st.q = np.zeros(2)
    with pytest.raises(ValueError):
        built.weight(k.q_max, 1.0)[0] = 0.0


@pytest.mark.parametrize("r", [0.2, 0.5, 1.0, 2.0, 5.0])
def test_remembered_weight_equals_a_fresh_negative_weight(r):
    k = MemoryKernel(lam=0.99)
    st = QState(q=np.random.default_rng(0).uniform(0.0, k.q_max, size=7))
    fresh = negative_weight(st.q, k.q_max, r)
    first = st.weight(k.q_max, r)
    assert st.weight(k.q_max, r) is first  # the second ask is the memo
    assert first.tobytes() == fresh.tobytes()
    # another (q_max, r) replaces the memo and is computed afresh
    other = st.weight(k.q_max, r + 1.0)
    assert other.tobytes() == negative_weight(st.q, k.q_max, r + 1.0).tobytes()
    assert st.weight(k.q_max, r).tobytes() == fresh.tobytes()


def test_a_failed_range_check_is_never_remembered():
    q_max = MemoryKernel(lam=0.9).q_max
    for bad in ([0.5, np.nan], [0.5, q_max], [-1e-300, 0.5], [np.inf, 0.5]):
        st = QState(q=np.array(bad))
        for _ in range(3):
            with pytest.raises(DomainError, match=r"tracker state outside \[0, q_max\)"):
                st.weight(q_max, 1.0, checked=True)
        st.weight(q_max, 1.0)  # an unchecked read does not look at the range
    good = QState(q=np.array([0.0, 0.5]))
    for _ in range(2):
        assert good.weight(q_max, 1.0, checked=True).tobytes() == (good.q / q_max).tobytes()
    for smaller in (0.25, np.nan):  # a smaller q_max is checked, not assumed
        with pytest.raises(DomainError):
            good.weight(smaller, 1.0, checked=True)
    empty = QState(q=np.zeros(0))
    for any_q_max in (q_max, -1.0):  # vacuously, as before
        assert empty.weight(any_q_max, 1.0, checked=True).shape == (0,)


def test_strict_updates_build_states_known_to_lie_in_range():
    k = MemoryKernel(lam=0.5)
    st = QState.zeros(2)
    for _ in range(60):  # onto the q_max boundary and snapped back
        st = update_batched(st, k, 1.0, [0, 0, 0, 0])
        st.weight(k.q_max, 1.0, checked=True)
        assert np.logical_and.reduce((st.q >= 0.0) & (st.q < k.q_max))


def test_a_permissive_update_does_not_vouch_for_its_range():
    # only a strict update checks the range of what it builds
    k = MemoryKernel(lam=0.9)
    start = QState(q=[0.0, 100.0])
    for st in (
        update_batched(start, k, 1.0, [0, 1], strict=False),
        update_tal(start, k, 1.0, [1.0, -1.0], strict=False),
    ):
        assert st.q[1] > k.q_max
        with pytest.raises(DomainError):
            st.weight(k.q_max, 1.0, checked=True)
        with pytest.raises(DomainError):
            update_batched(st, k, 1.0, [0, 1])


def test_states_compare_and_hash_by_identity():
    # an ndarray field has no truth value, so field-wise equality could
    # only raise; a state is a snapshot object, equal to itself alone
    a, b = QState(q=[1.0, 2.0]), QState(q=[1.0, 2.0])
    assert a == a and a != b and not (a == b)
    assert {a: "a", b: "b"}[a] == "a"
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("n_new", [0, 2])
def test_append_classes_returns_an_owned_state(n_new):
    st = update_tal(QState.zeros(2), MemoryKernel(lam=0.9), 1.0, [1.0, -1.0])
    grown = st.append_classes(n_new)
    assert not np.shares_memory(grown.q, st.q)
    assert grown.q.flags.owndata and not grown.q.flags.writeable
    assert grown.q.tolist() == st.q.tolist() + [0.0] * n_new


# ---------------------------------------------------------------------------
# the calibrated domain and the public API
# ---------------------------------------------------------------------------


def _accepts(lam, r, exploratory):
    try:
        check_domain(lam, r, exploratory)
    except DomainError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(
    lam=st.sampled_from([math.nan, math.inf, -math.inf, 0.3, 0.5, 0.9, 0.995])
    | st.floats(-0.5, 1.5),
    r=st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 0.2, 1.0, 2.0, 5.0])
    | st.floats(-2.0, 50.0),
    exploratory=st.booleans(),
)
def test_every_entry_point_applies_the_one_domain_rule(lam, r, exploratory):
    strict = not exploratory
    calls = [
        lambda: TalConfig.for_classes(lam, r, 3, exploratory=exploratory),
        lambda: update_tal(QState.zeros(2), MemoryKernel(lam=lam), r, [1.0, -1.0], strict=strict),
        lambda: update_batched(QState.zeros(2), MemoryKernel(lam=lam), r, [0, 1], strict=strict),
    ]
    spec = {"loss": {"lambda": lam, "r": r, "exploratory": exploratory}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if _accepts(lam, r, exploratory):
            for call in calls:
                try:
                    call()
                except SolverError:  # an exploratory r the solver cannot calibrate
                    pass
            try:
                spec_from_mapping(spec)
            except SpecError as exc:
                assert isinstance(exc.__cause__, SolverError)
        else:
            for call in calls:
                with pytest.raises(DomainError):
                    call()
            with pytest.raises(SpecError):
                spec_from_mapping(spec)
        # the calibration has no kernel, so only r and the mode decide
        if _accepts(None, r, exploratory):
            try:
                solve_calibration(3, r, strict=strict)
            except SolverError:
                pass
        else:
            with pytest.raises(DomainError):
                solve_calibration(3, r, strict=strict)


def test_public_names_resolve_and_leave_the_oracles_out():
    for name in talcil.__all__:
        assert getattr(talcil, name) is not None
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("talcil.oracle")
    assert not set(oracle.__all__) & set(talcil.__all__)
    assert talcil.Minibatch is talcil.kernel.Minibatch is talcil.loss.Minibatch
