import contextlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talcil import (
    DomainError,
    MemoryKernel,
    SupervisionTrace,
    TaskSchedule,
    generate_stream,
    sample_dominance_pair,
    verify_theorem1,
)
from oracle import convolve_q, phi_from_counts
from talcil import streams
from talcil.cli import main
from talcil.errors import TalcilError
from talcil.output import write_csv
from talcil.streams import TheoremVerdict, _bounded, _memory_kernel_terms


# ---------------------------------------------------------------------------
# schedules and traces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "class_count, tasks, samples_per_class, replay_per_old_class",
    [(4, 0, 5, 0), (0, 1, 5, 0), (10, 3, 5, 0), (4, 2, 0, 0), (4, 2, 5, -1),
     (4.0, 2, 3, 0), (4, 2, 2.5, 0), (4, 2, 3, True), (4, np.float64(2), 3, 0), ("4", 2, 3, 0)],
    ids=["no task", "no class", "uneven tasks", "no samples", "negative replay",
         "float class count", "fractional samples", "bool replay", "numpy float tasks",
         "string class count"],
)
def test_schedule_refuses_what_it_cannot_lay_out(
    class_count, tasks, samples_per_class, replay_per_old_class
):
    with pytest.raises(DomainError):
        TaskSchedule(class_count, tasks, samples_per_class, replay_per_old_class)


def test_schedule_takes_numpy_integer_counts():
    schedule = TaskSchedule(np.int64(4), np.int32(2), np.uint8(3), np.int64(0))
    assert schedule == TaskSchedule(4, 2, 3, 0)
    assert len(generate_stream(schedule, seed=0)) == 12


@pytest.mark.parametrize(
    "labels",
    [[], [[0, 1], [1, 0]], [0, 2, 1], [0, -1, 1], [0.7, 1.9, 0.2], ["0", "1", "0"]],
    ids=["empty", "2-d", "past the last class", "negative", "float", "string"],
)
def test_trace_refuses_labels_it_cannot_read_as_classes(labels):
    with pytest.raises(DomainError):
        SupervisionTrace(labels=labels, class_count=2)


@pytest.mark.parametrize("class_count", [2.5, 2.0, True, "2"])
def test_trace_refuses_a_class_count_that_is_not_an_integer(class_count):
    with pytest.raises(DomainError):
        SupervisionTrace(labels=[0, 1], class_count=class_count)


def test_trace_compares_and_hashes_by_identity():
    trace, twin = (SupervisionTrace(labels=[0, 1, 0], class_count=2) for _ in range(2))
    assert trace == trace and trace != twin
    assert hash(trace) == hash(trace)
    assert len({trace, twin}) == 2


def test_trace_labels_are_read_only_once_checked():
    source = np.array([0, 1, 0])
    trace = SupervisionTrace(labels=source, class_count=2)
    with pytest.raises(ValueError):
        trace.labels[0] = 5
    source[0] = 5  # the trace holds its own copy
    assert trace.labels.tolist() == [0, 1, 0]


def test_trace_keeps_integer_and_bool_labels_as_int64():
    for labels in ([1, 0, 1], np.array([1, 0, 1], dtype=np.uint8), [True, False, True]):
        trace = SupervisionTrace(labels=labels, class_count=2)
        assert trace.labels.dtype == np.int64 and trace.labels.tolist() == [1, 0, 1]


def test_schedule_tasks_introduce_equal_width_blocks_in_id_order():
    schedule = TaskSchedule(6, 3, 7, 2)
    assert [schedule.new_classes(t) for t in range(3)] == [range(0, 2), range(2, 4), range(4, 6)]


def test_two_single_class_tasks_saturate_in_order():
    schedule = TaskSchedule(2, 2, 10, 0)
    trace = generate_stream(schedule, seed=0)
    s0 = trace.cumulative_positives(0)
    s1 = trace.cumulative_positives(1)
    assert s0[9] == 10 and s0[-1] == 10
    assert s1[9] == 0 and s1[-1] == 10
    assert np.all(s0 >= s1)


def test_s_curve_table_lays_out_every_class_curve_class_major():
    schedule = TaskSchedule(6, 3, 7, 2)
    trace = generate_stream(schedule, seed=4)
    header, (steps, classes, s_curves) = trace.s_curve_table()
    n = len(trace)
    assert header == ("step", "class", "cumulative_positives")
    assert steps.tolist() == list(range(n)) * 6
    assert classes.tolist() == [k for k in range(6) for _ in range(n)]
    # the smallest dtype that holds the 54 steps and 6 classes
    assert steps.dtype == classes.dtype == s_curves.dtype == np.uint8
    assert s_curves.tolist() == np.concatenate(
        [trace.cumulative_positives(k) for k in range(6)]
    ).tolist()


def test_index_columns_widen_past_65535_steps_and_spell_as_int64(tmp_path):
    trace = generate_stream(TaskSchedule(2, 1, 33_000, 0), seed=0)  # 66,000 steps
    header, columns = trace.s_curve_table()
    assert {col.dtype for col in columns} == {np.dtype(np.uint32)}
    steps, classes, s_curves = columns
    assert steps[-1] == 65_999 and classes[-1] == 1 and s_curves[-1] == 33_000
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate-stream", "--classes", "2", "--tasks", "1", "--per-class", "33000",
                     "--output-dir", str(tmp_path / "stream")]) == 0
    wide = tmp_path / "int64"
    write_csv(wide / "s_curves.csv", header, (
        np.tile(np.arange(66_000), 2),
        np.repeat(np.arange(2), 66_000),
        np.concatenate([trace.cumulative_positives(k) for k in range(2)]),
    ))
    write_csv(wide / "trace.csv", ("step", "label"), (np.arange(66_000), trace.labels))
    q_values = np.loadtxt(tmp_path / "stream" / "q_trajectory.csv", delimiter=",",
                          skiprows=1, usecols=2)  # repr cells read back to the same doubles
    write_csv(wide / "q_trajectory.csv", ("step", "class_id", "q_value"),
              (np.repeat(np.arange(66_000), 2), np.tile(np.arange(2), 66_000), q_values))
    for name in ("trace.csv", "s_curves.csv", "q_trajectory.csv"):
        assert (tmp_path / "stream" / name).read_bytes() == (wide / name).read_bytes()


def test_simulate_stream_peak_memory_stays_near_its_q_trajectory(tmp_path):
    # the benchmark's stream: 5,400 steps of 10 classes
    argv = ["simulate-stream", "--classes", "10", "--tasks", "5", "--per-class", "500",
            "--replay", "20", "--lam", "0.995"]
    with contextlib.redirect_stdout(io.StringIO()):
        main([*argv, "--output-dir", str(tmp_path / "warm")])  # first-use imports and caches
        tracemalloc.start()
        try:
            assert main([*argv, "--output-dir", str(tmp_path / "traced")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the float64 Q trajectory (432 KB) is held whole; int64 index columns,
    # a step-major S-curve copy and 4,096-row chunks take the peak past 6x it
    assert peak < 4 * 5_400 * 10 * 8


def test_earlier_class_dominates_later_class_cumulative_curve():
    schedule = TaskSchedule(4, 2, 25, 0)
    trace = generate_stream(schedule, seed=42)
    for early in (0, 1):
        for late in (2, 3):
            s_early = trace.cumulative_positives(early)
            s_late = trace.cumulative_positives(late)
            assert np.all(s_early >= s_late)


def test_replay_keeps_old_class_curves_rising():
    schedule = TaskSchedule(4, 2, 10, 2)
    trace = generate_stream(schedule, seed=3)
    # no class is old yet in the first task, so it replays nothing
    boundary = schedule.samples_per_class * len(schedule.new_classes(0))
    s0 = trace.cumulative_positives(0)
    assert s0[boundary - 1] == 10
    assert s0[-1] == 12  # replay added positives in the second task
    assert trace.cumulative_positives(2)[-1] == 10


def test_stream_respects_schedule_counts_exactly():
    schedule = TaskSchedule(6, 3, 17, 4)
    trace = generate_stream(schedule, seed=9)
    # class introduced in task t gets 17 + 4 * (tasks after t) positives
    for t in range(schedule.tasks):
        for k in schedule.new_classes(t):
            expected = 17 + 4 * (schedule.tasks - 1 - t)
            assert trace.cumulative_positives(k)[-1] == expected
    # single-label stream: exactly one positive per step
    polarity_sum = sum(
        (trace.polarities(k) + 1) / 2 for k in range(trace.class_count)
    )
    assert np.all(polarity_sum == 1.0)


def test_stream_generation_is_deterministic():
    schedule = TaskSchedule(4, 2, 20, 3)
    a = generate_stream(schedule, seed=7)
    b = generate_stream(schedule, seed=7)
    assert np.array_equal(a.labels, b.labels)
    c = generate_stream(schedule, seed=8)
    assert not np.array_equal(a.labels, c.labels)


def test_trace_class_id_validation():
    schedule = TaskSchedule(2, 1, 5, 0)
    trace = generate_stream(schedule, seed=0)
    for per_class in (trace.polarities, trace.cumulative_positives):
        for class_id in (2, -1, 99, 1.5, True, np.float64(1.0), "1"):
            with pytest.raises(DomainError):
                per_class(class_id)
        assert np.array_equal(per_class(np.int64(1)), per_class(1))


def test_schedule_task_index_validation():
    schedule = TaskSchedule(4, 2, 3, 0)
    for t in (2, 5, -1, 1.5, True, np.float64(0.0)):
        with pytest.raises(DomainError):
            schedule.new_classes(t)
    assert schedule.new_classes(np.int32(1)) == schedule.new_classes(1) == range(2, 4)


# ---------------------------------------------------------------------------
# summation-by-parts path
# ---------------------------------------------------------------------------


def test_phi_identity_on_small_cases():
    k = MemoryKernel(lam=0.8)
    for values in ([1.0], [-1.0], [1.0, -1.0, -1.0, 1.0], [-1.0] * 6 + [1.0] * 3):
        values = np.array(values)
        f = k.weights(len(values))
        s = np.cumsum(values > 0).astype(float)
        phi = phi_from_counts(f, s)
        direct = convolve_q(f, values)
        assert direct == pytest.approx(2.0 * phi - f.sum(), abs=1e-12)


# ---------------------------------------------------------------------------
# monotonicity verification
# ---------------------------------------------------------------------------


def test_front_vs_back_loaded_pair_is_strict():
    a = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    b = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    verdict = verify_theorem1(MemoryKernel(lam=0.9), (a, b))
    assert verdict.dominance_held and verdict.strict_dominance
    assert verdict.conclusion_held
    assert verdict.q_a < verdict.q_b


def test_identical_sequences_give_equal_values():
    a = np.array([1.0, -1.0, -1.0, 1.0, -1.0])
    verdict = verify_theorem1(MemoryKernel(lam=0.5), (a, a.copy()))
    assert verdict.q_a == verdict.q_b
    assert verdict.dominance_held and not verdict.strict_dominance


def test_unequal_positive_totals_rejected():
    a = np.array([1.0, 1.0, -1.0])
    b = np.array([1.0, -1.0, -1.0])
    with pytest.raises(DomainError):
        verify_theorem1(MemoryKernel(lam=0.9), (a, b))


def test_trace_based_verification():
    schedule = TaskSchedule(2, 2, 30, 0)
    trace = generate_stream(schedule, seed=0)
    verdict = verify_theorem1(MemoryKernel(lam=0.9), (trace.polarities(0), trace.polarities(1)))
    assert verdict.dominance_held and verdict.conclusion_held
    assert verdict.q_a < verdict.q_b


@pytest.mark.parametrize(
    "pair",
    [(["1", "-1"], ["-1", "1"]), (np.array([True, True]), np.array([True, True])),
     ([1.0, 1.0], [True, True])],
    ids=["strings", "bools", "one bool sequence"],
)
def test_pair_sequences_must_be_integer_or_float(pair):
    with pytest.raises(DomainError):
        verify_theorem1(MemoryKernel(lam=0.9), pair)


@pytest.mark.parametrize("bad", [0.0, 0.5, 2.0, np.nan])
def test_pair_sequences_must_be_plus_or_minus_one(bad):
    good = np.array([1.0, -1.0, 1.0])
    for pair in ((np.array([1.0, bad, 1.0]), good), (good, np.array([1.0, -1.0, bad]))):
        with pytest.raises(DomainError, match="exactly"):
            verify_theorem1(MemoryKernel(lam=0.9), pair)


def test_disagreeing_evaluation_paths_are_a_library_bug(monkeypatch):
    a, b = np.array([1.0, -1.0, -1.0]), np.array([-1.0, 1.0, -1.0])
    monkeypatch.setattr(streams, "_convolve", lambda f, seq: 1.0 + float(np.dot(f, seq[::-1])))
    with pytest.raises(TalcilError, match="paths disagree") as raised:
        verify_theorem1(MemoryKernel(lam=0.9), (a, b))
    assert type(raised.value) is TalcilError


def test_integer_pair_sequences_read_as_their_floats():
    a, b = [1, 1, -1, -1], [-1, 1, -1, 1]
    verdict = verify_theorem1(MemoryKernel(lam=0.9), (np.array(a, dtype=np.int8), b))
    assert verdict == verify_theorem1(MemoryKernel(lam=0.9), (np.array(a, float), np.array(b, float)))


def test_pair_sequences_must_be_one_dimensional():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(DomainError):
        verify_theorem1(MemoryKernel(lam=0.9), (a, a.copy()))


def _reference_verdict(f, a_seq, b_seq):
    """The verdict with every kernel term rebuilt where a formula uses it."""
    n = a_seq.shape[0]
    s_a = np.cumsum(a_seq > 0).astype(np.float64)
    s_b = np.cumsum(b_seq > 0).astype(np.float64)

    def phi(s):
        if n == 1:
            return float(f[0] * s[-1])
        deltas = f[n - 2 :: -1] - f[n - 1 : 0 : -1]
        return float(f[0] * s[-1] - np.dot(deltas, s[: n - 1]))

    q_a = float(np.dot(f[:n], a_seq[::-1]))
    q_b = float(np.dot(f[:n], b_seq[::-1]))
    scale = max(1.0, float(np.sum(f[:n])))
    if n > 1:
        deltas = f[n - 2 :: -1] - f[n - 1 : 0 : -1]
        gap_by_parts = 2.0 * float(np.dot(deltas, (s_a - s_b)[: n - 1]))
    else:
        gap_by_parts = 0.0
    dominance = bool(np.all(s_a >= s_b))
    return TheoremVerdict(
        q_a=q_a,
        q_b=q_b,
        phi_a=phi(s_a),
        phi_b=phi(s_b),
        gap_by_parts=gap_by_parts,
        dominance_held=dominance,
        strict_dominance=dominance and bool(np.any(s_a > s_b)),
        conclusion_held=bool(q_a <= q_b + 1e-12 * scale),
    )


@pytest.mark.parametrize("n", [1, 2, 600])
def test_verdict_fields_match_the_reference_formulas_bit_for_bit(n):
    rng = np.random.default_rng(n)
    pairs = [sample_dominance_pair(rng, n, max(1, n // 5)) for _ in range(5)]
    if n == 1:
        pairs.append((np.array([-1.0]), np.array([-1.0])))
    for lam in (0.5, 0.9, 0.99):
        kernel = MemoryKernel(lam=lam)
        for a, b in pairs:
            assert verify_theorem1(kernel, (a, b)) == _reference_verdict(kernel.weights(n), a, b)
    f, deltas, _ = _memory_kernel_terms(0.9, n)  # memoised by the calls above
    assert not f.flags.writeable and not deltas.flags.writeable


# ---------------------------------------------------------------------------
# the sampler against one scalar draw per positive
# ---------------------------------------------------------------------------


def _scalar_dominance_pair(rng, length, positives):
    """One scalar ``rng.integers`` call per positive: the oracle."""
    b_pos = np.sort(rng.choice(length, size=positives, replace=False))
    a_pos = np.empty(positives, dtype=np.int64)
    prev = -1
    for i, b in enumerate(b_pos.tolist()):
        prev = int(rng.integers(prev + 1, b + 1))
        a_pos[i] = prev
    a_seq = np.full(length, -1.0)
    b_seq = np.full(length, -1.0)
    a_seq[a_pos] = 1.0
    b_seq[b_pos] = 1.0
    return a_seq, b_seq


@st.composite
def _pair_shapes(draw):
    length = draw(st.integers(min_value=1, max_value=2000))
    positives = draw(
        st.one_of(
            st.integers(min_value=1, max_value=length),
            st.sampled_from(sorted({1, max(1, length - 1), length})),
        )
    )
    return length, positives


@given(
    shape=_pair_shapes(),
    seed=st.integers(min_value=0, max_value=2**63),
    pairs=st.integers(min_value=1, max_value=4),
    draw_between=st.booleans(),
)
@settings(max_examples=80)
def test_batched_sampler_reproduces_the_scalar_loop(shape, seed, pairs, draw_between):
    length, positives = shape
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(pairs):
        got = sample_dominance_pair(batched, length, positives)
        want = _scalar_dominance_pair(scalar, length, positives)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert batched.bit_generator.state == scalar.bit_generator.state
        if draw_between:  # one 32-bit word, so half of the next 64-bit output stays buffered
            assert batched.integers(0, 3) == scalar.integers(0, 3)


@pytest.mark.parametrize("span", [1, 2, 600, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32])
def test_word_mapping_is_numpys_bounded_rule(span):
    words = []
    for seed in range(20):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)

        def next_word():
            words.append(int(ours.integers(0, 2**32, dtype=np.uint32)))
            return words[-1]

        got = [_bounded(span, next_word) for _ in range(50)]
        want = [int(numpys.integers(0, span)) for _ in range(50)]
        assert got == want
        assert ours.bit_generator.state == numpys.bit_generator.state
    if span == 1:
        assert not words  # a one-value span consumes no word
    if span in (2**31 + 1, 3 * 2**30):
        assert len(words) > 20 * 50  # the rejection branch ran


def test_sampler_rejects_lengths_beyond_32_bit_words():
    with pytest.raises(DomainError):
        sample_dominance_pair(np.random.default_rng(0), 2**32 + 1, 1)


@given(
    lam=st.sampled_from([0.9, 0.99]),
    length=st.integers(min_value=2, max_value=500),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60)
def test_random_dominance_pairs_always_satisfy_the_conclusion(lam, length, seed):
    rng = np.random.default_rng(seed)
    positives = int(rng.integers(1, length + 1))
    seq_a, seq_b = sample_dominance_pair(rng, length, positives)
    verdict = verify_theorem1(MemoryKernel(lam=lam), (seq_a, seq_b))
    assert verdict.dominance_held
    assert verdict.conclusion_held
    # order equivalence between the two evaluation paths
    assert (verdict.q_a <= verdict.q_b) == (verdict.phi_a <= verdict.phi_b)


@given(
    length=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_sampled_pairs_have_equal_counts_and_dominance(length, seed):
    rng = np.random.default_rng(seed)
    positives = int(rng.integers(1, length + 1))
    seq_a, seq_b = sample_dominance_pair(rng, length, positives)
    s_a = np.cumsum(seq_a > 0)
    s_b = np.cumsum(seq_b > 0)
    assert s_a[-1] == s_b[-1] == positives
    assert np.all(s_a >= s_b)


def test_both_paths_agree_on_long_traces():
    rng = np.random.default_rng(5)
    n = 10_000
    seq_a, seq_b = sample_dominance_pair(rng, n, 2500)
    for lam in (0.9, 0.99):
        k = MemoryKernel(lam=lam)
        verdict = verify_theorem1(k, (seq_a, seq_b))  # internal 1e-10 cross-check
        f = k.weights(n)
        s_a = np.cumsum(seq_a > 0).astype(float)
        s_b = np.cumsum(seq_b > 0).astype(float)
        mass = f.sum()
        assert verdict.q_a == pytest.approx(
            2.0 * phi_from_counts(f, s_a) - mass, abs=1e-10 * max(1.0, mass)
        )
        assert verdict.q_b == pytest.approx(
            2.0 * phi_from_counts(f, s_b) - mass, abs=1e-10 * max(1.0, mass)
        )


def test_early_only_difference_underflows_to_equality_but_never_reverses():
    # the strict gap lives entirely at the oldest step: with lam=0.9 and
    # 2000 steps its kernel weight underflows, so floats may report a tie,
    # but the ordering must never flip
    n = 2000
    a = -np.ones(n)
    b = -np.ones(n)
    a[0] = 1.0
    b[1] = 1.0
    a[n - 1] = 1.0
    b[n - 1] = 1.0
    verdict = verify_theorem1(MemoryKernel(lam=0.9), (a, b))
    assert verdict.dominance_held and verdict.strict_dominance
    assert verdict.conclusion_held
    # q_b - q_a cancels to zero here, but the by-parts gap keeps the sign
    assert verdict.q_a == verdict.q_b
    assert 0.0 < verdict.gap_by_parts < 1e-80
