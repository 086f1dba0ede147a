"""The per-step functions against a reference copy of their formulas.

The public step functions validate with one cheap reduction per check
and reuse buffers in place.  The references below are the plain,
allocate-everything form of the same arithmetic and live here, not in
the library: every loss, gradient and tracker value must match them bit
for bit.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talcil import (
    DomainError,
    MemoryKernel,
    Minibatch,
    QState,
    TalConfig,
    ce_forward,
    tal_forward,
    training_step,
    update_batched,
    update_tal,
)

# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------


def ref_weight(q, q_max, r):
    return (np.asarray(q, dtype=np.float64) / q_max) ** r


def ref_settle(q, q_max, strict):
    if strict:
        return np.minimum(np.maximum(q, 0.0), np.nextafter(q_max, 0.0))
    return np.maximum(q, 0.0) if np.any(q < 0.0) else q


def ref_softmax_loss(z_tilde, z_true, labels):
    n = z_tilde.shape[0]
    m = z_tilde.max(axis=1, keepdims=True)
    exps = np.exp(z_tilde - m)
    denom = exps.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(denom[:, 0])
    loss = float(np.mean(lse - z_true))
    grad = exps / denom
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def ref_ce(z, y):
    return ref_softmax_loss(z, z[np.arange(z.shape[0]), y], y)


def ref_tal(config, z, y, q):
    s = ref_weight(q, config.kernel.q_max, config.r)
    log_w = np.log(config.alpha * np.maximum(s, config.epsilon))
    rows = np.arange(z.shape[0])
    z_true = z[rows, y]
    z_tilde = z + log_w[np.newaxis, :]
    z_tilde[rows, y] = z_true
    return ref_softmax_loss(z_tilde, z_true, y)


def ref_batched(q, kernel, r, labels, strict):
    frac_pos = np.bincount(labels, minlength=len(q)) / len(labels)
    frac_neg = 1.0 - frac_pos
    w = ref_weight(q, kernel.q_max, r)
    return ref_settle(kernel.lam * (q + frac_pos - frac_neg * w), kernel.q_max, strict)


def ref_tal_update(q, kernel, r, polarities, strict):
    w = ref_weight(q, kernel.q_max, r)
    q_next = kernel.lam * (q + np.where(np.asarray(polarities) > 0, 1.0, -w))
    return ref_settle(q_next, kernel.q_max, strict)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

# strict runs the calibrated domain; r < 1 only runs exploratory
R_MODES = [(1.0, False), (2.0, False), (5.0, False), (0.2, True), (0.5, True)]


def instance(seed, n, c, lam, r, exploratory, zero_frac):
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # exploratory calibration warns
        config = TalConfig.for_classes(lam, r, c, exploratory=exploratory)
    q = rng.uniform(0.0, config.kernel.q_max, size=c)
    q[rng.random(c) < zero_frac] = 0.0  # classes on the eps floor
    z = 3.0 * rng.standard_normal((n, c))
    y = rng.integers(0, c, size=n)
    return config, QState(q=q), z, y


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=64),
    c=st.integers(min_value=2, max_value=24),
    lam=st.sampled_from([0.5, 0.9, 0.995, 0.9995]),
    mode=st.sampled_from(R_MODES),
    zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
)
@settings(max_examples=80, deadline=None)
def test_step_functions_match_reference_bits(seed, n, c, lam, mode, zero_frac):
    r, exploratory = mode
    config, state, z, y = instance(seed, n, c, lam, r, exploratory, zero_frac)
    strict = not exploratory
    kernel = config.kernel
    z_before = z.copy()

    loss, grad = ref_tal(config, z, y, state.q)
    out = tal_forward(config, z, y, state)
    assert same_bits(out.loss, loss) and same_bits(out.grad_logits, grad)

    q_ref = ref_batched(state.q, kernel, r, y, strict)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # exploratory clamping warns
        advanced = update_batched(state, kernel, r, y, strict=strict)
        step_out, stepped = training_step(config, state, z, y)
    assert same_bits(advanced.q, q_ref)
    assert same_bits(step_out.loss, loss) and same_bits(step_out.grad_logits, grad)
    assert same_bits(stepped.q, q_ref)

    # update_tal shares update_batched's advance, which must match the
    # reference for any +1/-1 vector, not just one-hot rows
    mixed = np.where(np.random.default_rng(seed).random(c) < 0.5, 1.0, -1.0)
    one_hot = np.where(np.arange(c) == y[0], 1.0, -1.0)
    for polarities in (one_hot, mixed, np.ones(c), -np.ones(c)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            single = update_tal(state, kernel, r, polarities, strict=strict)
        assert same_bits(single.q, ref_tal_update(state.q, kernel, r, polarities, strict))

    ce_loss, ce_grad = ref_ce(z, y)
    ce = ce_forward(z, y)
    assert same_bits(ce.loss, ce_loss) and same_bits(ce.grad_logits, ce_grad)
    assert same_bits(z, z_before)  # the caller's logits are never written


# ---------------------------------------------------------------------------
# edges the cheap checks must still get right
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strict", [True, False])
def test_empty_tracker_advances_without_reducing_an_empty_array(strict):
    k = MemoryKernel(lam=0.9)
    empty = QState(q=np.zeros(0))
    single = update_tal(empty, k, 1.0, np.zeros(0), strict=strict)
    assert single.q.shape == (0,)


def test_boundary_snap_at_lam_one_half_matches_reference():
    # lam = 0.5 rounds onto q_max after ~53 positives; both update rules
    # must snap to the largest double below q_max exactly as the reference
    k = MemoryKernel(lam=0.5)
    q_ref = np.array([0.0, 0.0])
    batched = single = QState.zeros(2)
    for _ in range(120):
        batched = update_batched(batched, k, 1.0, [0, 0, 0, 0])
        single = update_tal(single, k, 1.0, [1.0, -1.0])
        q_ref = ref_batched(q_ref, k, 1.0, [0, 0, 0, 0], True)
        assert same_bits(batched.q, q_ref) and same_bits(single.q, q_ref)
    assert batched.q[0] == np.nextafter(k.q_max, 0.0) and batched.q[1] == 0.0


def test_nan_tracker_counts_or_steepness_rejected_in_strict_mode():
    # NaN compares false against every bound, so the range checks reject
    # it; before, a NaN slipped past them and surfaced only as a failed
    # assert on the updated tracker
    config = TalConfig.for_classes(0.9, 1.0, 3)
    k = config.kernel
    nan_state = QState(q=np.array([0.5, np.nan, 0.5]))
    with pytest.raises(DomainError):
        tal_forward(config, np.zeros((2, 3)), [0, 1], nan_state)
    with pytest.raises(DomainError):
        training_step(config, nan_state, np.zeros((2, 3)), [0, 1])
    with pytest.raises(DomainError):
        update_batched(nan_state, k, 1.0, [0, 1])
    with pytest.raises(DomainError):
        update_tal(nan_state, k, 1.0, [1.0, -1.0, -1.0])
    for strict in (True, False):
        with pytest.raises(DomainError):  # counts come from labels, which are integers
            update_batched(QState.zeros(3), k, 1.0, [1.0, np.nan, 0.0], strict=strict)
        with pytest.raises(DomainError):
            update_batched(QState.zeros(3), k, np.nan, [0, 1], strict=strict)


# ---------------------------------------------------------------------------
# a state's remembered checks and weights change no bits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", R_MODES)
@pytest.mark.parametrize("lam", [0.5, 0.99, 0.9995])
def test_chained_steps_match_freshly_built_states(mode, lam):
    # a chained step reads the range verdict and w(q) that the previous
    # update and the loss left on the state; a fresh copy has neither
    r, exploratory = mode
    c, n = 7, 16
    config, state, _, _ = instance(11, n, c, lam, r, exploratory, 0.3)
    rng = np.random.default_rng(12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(40):
            z = 3.0 * rng.standard_normal((n, c))
            y = rng.integers(0, c, size=n)
            out = tal_forward(config, z, y, QState(q=state.q))
            advanced = update_batched(
                QState(q=state.q), config.kernel, r, y, strict=not exploratory
            )
            loss, grad = ref_tal(config, z, y, state.q)
            step_out, state = training_step(config, state, z, y)
            assert same_bits(step_out.loss, out.loss) and same_bits(step_out.loss, loss)
            assert same_bits(step_out.grad_logits, out.grad_logits)
            assert same_bits(step_out.grad_logits, grad)
            assert same_bits(state.q, advanced.q)


@pytest.mark.parametrize("layout", ["fortran", "transposed", "row_slice"])
def test_logits_in_any_memory_layout_give_the_same_bits(layout):
    rng = np.random.default_rng(3)
    z = 3.0 * rng.standard_normal((9, 5))
    y = rng.integers(0, 5, size=9)
    view = {
        "fortran": np.asfortranarray(z),
        "transposed": np.ascontiguousarray(z.T).T,
        "row_slice": np.repeat(z, 2, axis=0)[::2],
    }[layout]
    config = TalConfig.for_classes(0.9, 2.0, 5)
    state = QState(q=rng.uniform(0.0, config.kernel.q_max, size=5))
    for forward in (lambda m: ce_forward(m, y), lambda m: tal_forward(config, m, y, state)):
        out, ref = forward(view), forward(z)
        assert same_bits(out.loss, ref.loss) and same_bits(out.grad_logits, ref.grad_logits)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64, np.int8, np.int32, bool])
def test_labels_of_any_integer_dtype_give_the_same_bits(dtype):
    rng = np.random.default_rng(4)
    z = 3.0 * rng.standard_normal((6, 2))
    y = rng.integers(0, 2, size=6)
    config = TalConfig.for_classes(0.9, 1.0, 2)
    state = QState(q=[0.5, 2.0])
    for forward in (
        lambda labels: ce_forward(z, labels),
        lambda labels: tal_forward(config, z, labels, state),
    ):
        out, ref = forward(y.astype(dtype)), forward(y)
        assert same_bits(out.loss, ref.loss) and same_bits(out.grad_logits, ref.grad_logits)


def test_concurrent_forward_passes_on_one_snapshot_keep_their_bits():
    # forward passes may share a snapshot across threads; the remembered
    # w(q) is swapped as one (q_max, r, w) record, so a pass with one r
    # never reads another r's weights
    import sys
    import threading

    rng = np.random.default_rng(5)
    z = 3.0 * rng.standard_normal((8, 6))
    y = rng.integers(0, 6, size=8)
    configs = [TalConfig.for_classes(lam, r, 6) for lam in (0.9, 0.99) for r in (1.0, 2.0, 5.0)]
    q = rng.uniform(0.0, configs[0].kernel.q_max, size=6)
    expected = [tal_forward(config, z, y, QState(q=q)) for config in configs]
    shared = QState(q=q)
    mismatches = []

    def worker(offset):
        for i in range(300):
            j = (i + offset) % len(configs)
            out = tal_forward(configs[j], z, y, shared)
            if not same_bits(out.grad_logits, expected[j].grad_logits):
                mismatches.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


# ---------------------------------------------------------------------------
# one checked Minibatch shared by every cell changes no bits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", R_MODES)
@pytest.mark.parametrize("lam", [0.5, 0.99, 0.9995])
def test_shared_minibatch_matches_raw_labels_over_chained_steps(mode, lam):
    # a lockstep run hands one Minibatch to a CE cell and a TAL cell; each
    # must follow the chain it would follow on raw labels, bit for bit
    r, exploratory = mode
    strict = not exploratory
    rng = np.random.default_rng(int(lam * 1e4) + int(r * 10))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # exploratory calibration and clamping
        for c in range(2, 11):
            config = TalConfig.for_classes(lam, r, c, exploratory=exploratory)
            q_max = config.kernel.q_max
            start = rng.uniform(0.0, q_max, size=c)
            start[rng.random(c) < 0.3] = 0.0
            tal_raw = tal_shared = ce_raw = ce_shared = QState(q=start)
            n_total = int(rng.integers(1, 80))
            n_max = int(rng.integers(1, 33))
            for lo in range(0, n_total, n_max):  # the last batch may be short
                n = min(n_max, n_total - lo)
                z = 3.0 * rng.standard_normal((n, c))
                y = rng.integers(0, c, size=n)
                batch = Minibatch(y, c)

                raw_out, tal_raw = training_step(config, tal_raw, z, y)
                shared_out, tal_shared = training_step(config, tal_shared, z, batch)
                assert same_bits(shared_out.loss, raw_out.loss)
                assert same_bits(shared_out.grad_logits, raw_out.grad_logits)
                assert same_bits(tal_shared.q, tal_raw.q)

                ce_ref, ce_out = ce_forward(z, y), ce_forward(z, batch)
                assert same_bits(ce_out.loss, ce_ref.loss)
                assert same_bits(ce_out.grad_logits, ce_ref.grad_logits)
                ce_raw = update_batched(ce_raw, config.kernel, r, y, strict=strict)
                ce_shared = update_batched(ce_shared, config.kernel, r, batch, strict=strict)
                assert same_bits(ce_shared.q, ce_raw.q)
                assert same_bits(tal_forward(config, z, batch, tal_shared).grad_logits,
                                 tal_forward(config, z, y, tal_raw).grad_logits)


def test_minibatch_copies_its_labels_and_is_read_only():
    y = np.array([0, 2, 1, 2])
    batch = Minibatch(y, 3)
    y[0] = 2  # the caller's array stays writable and is not the batch's
    assert batch.labels.tolist() == [0, 2, 1, 2] and batch.labels.dtype == np.int64
    assert Minibatch(y.astype(np.int32), 3).labels.dtype == np.int64
    assert batch.size == 4 and batch.class_count == 3
    frac_pos, frac_neg = batch.fractions
    assert batch.fractions[0] is frac_pos  # computed once and kept
    assert same_bits(frac_pos, np.array([1.0, 1.0, 2.0]) / 4)
    assert same_bits(frac_neg, 1.0 - np.array([1.0, 1.0, 2.0]) / 4)
    assert batch.flat_true.tolist() == [0, 5, 7, 11]
    for derived in (batch.labels, batch.flat_true, frac_pos, frac_neg):
        with pytest.raises(ValueError):
            derived[0] = 1
    with pytest.raises(AttributeError):
        batch.class_count = 5


@st.composite
def split_cases(draw):
    n = draw(st.integers(1, 200))
    c = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    return np.array(labels), c, draw(st.integers(1, n + 5))


@given(split_cases())
def test_split_pieces_are_the_minibatches_of_their_labels_bit_for_bit(case):
    # the last piece is short whenever batch_size does not divide N, and
    # batch_size >= N gives a single piece
    y, c, b = case
    pieces = Minibatch.split(y, c, b)
    assert len(pieces) == -(-y.shape[0] // b)
    for i, piece in enumerate(pieces):
        ref = Minibatch(y[i * b : (i + 1) * b], c)
        assert (piece.size, piece.class_count) == (ref.size, ref.class_count)
        for got, want in (
            (piece.labels, ref.labels),
            (piece.flat_true, ref.flat_true),
            *zip(piece.fractions, ref.fractions),
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0] = 0
    y += 1  # the pieces hold the split's own copy of the labels
    assert pieces[0].labels[0] == y[0] - 1


@st.composite
def run_split_cases(draw):
    runs, width = draw(st.integers(1, 4)), draw(st.integers(1, 60))
    c = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, c - 1), min_size=runs * width, max_size=runs * width))
    return np.array(labels), c, draw(st.integers(1, width + 5)), runs


@given(run_split_cases())
def test_split_of_joined_runs_is_the_split_of_each_run_bit_for_bit(case):
    # one seed per run in a lockstep trainer: each run is cut on its own
    y, c, b, runs = case
    pieces = Minibatch.split(y, c, b, runs)
    want = [piece for run in np.split(y, runs) for piece in Minibatch.split(run, c, b)]
    assert len(pieces) == len(want)
    for got, ref in zip(pieces, want):
        assert (got.size, got.class_count) == (ref.size, ref.class_count)
        for a, b_ in ((got.labels, ref.labels), (got.flat_true, ref.flat_true),
                      *zip(got.fractions, ref.fractions)):
            assert a.dtype == b_.dtype and a.shape == b_.shape
            assert a.tobytes() == b_.tobytes()


def test_split_needs_runs_of_one_length():
    for runs in (0, -1, 3):
        with pytest.raises(DomainError):
            Minibatch.split([0, 1, 2, 0], 3, 2, runs)


def test_split_refuses_what_a_minibatch_refuses():
    for labels, error in (
        ([], DomainError),
        ([0.0, 1.0], DomainError),
        (np.array([0.5]), DomainError),
        ([[0, 1]], DomainError),
        ([0, -1], IndexError),
        ([0, 3], IndexError),
        (np.array([2**64 - 1], np.uint64), IndexError),
    ):
        with pytest.raises(error) as want:
            Minibatch(labels, 3)
        with pytest.raises(error) as got:
            Minibatch.split(labels, 3, 2)
        assert str(got.value) == str(want.value)
    with pytest.raises(DomainError):
        Minibatch.split([0, 1], 3, 0)


def test_minibatch_that_does_not_fit_is_a_domain_error():
    config = TalConfig.for_classes(0.9, 1.0, 3)
    k, state = config.kernel, QState.zeros(3)
    z = np.zeros((4, 3))
    wrong_classes = Minibatch([0, 1, 1, 0], 2)
    wrong_rows = Minibatch([0, 1, 2], 3)
    for batch in (wrong_classes, wrong_rows):
        with pytest.raises(DomainError):
            ce_forward(z, batch)
        with pytest.raises(DomainError):
            tal_forward(config, z, batch, state)
        with pytest.raises(DomainError):
            training_step(config, state, z, batch)
    with pytest.raises(DomainError):
        update_batched(state, k, 1.0, wrong_classes)
    for labels in ([0, 3], [-1, 0], [np.iinfo(np.int64).min], np.array([2**64 - 1], np.uint64)):
        with pytest.raises(IndexError):
            Minibatch(labels, 3)
        with pytest.raises(IndexError):
            ce_forward(np.zeros((len(labels), 3)), labels)
    with pytest.raises(DomainError):
        Minibatch([[0, 1]], 3)


def test_empty_batch_is_refused_before_any_arithmetic():
    config = TalConfig.for_classes(0.9, 1.0, 3)
    state = QState.zeros(3)
    calls = [
        lambda: ce_forward(np.zeros((0, 3)), []),
        lambda: ce_forward(np.zeros((0, 0)), []),
        lambda: tal_forward(config, np.zeros((0, 3)), [], state),
        lambda: training_step(config, state, np.zeros((0, 3)), np.zeros(0, dtype=np.int64)),
        lambda: Minibatch([], 3),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 RuntimeWarning on the way
        for call in calls:
            with pytest.raises(DomainError, match="at least one label"):
                call()


@pytest.mark.parametrize(
    "labels", [[0.7, 2.9], np.array([0.0, 1.0]), ["0", "1"], np.array([0, 1], dtype=object)]
)
def test_non_integer_labels_are_refused_not_truncated(labels):
    config = TalConfig.for_classes(0.9, 1.0, 3)
    state = QState.zeros(3)
    z = np.zeros((2, 3))
    for call in (
        lambda: ce_forward(z, labels),
        lambda: tal_forward(config, z, labels, state),
        lambda: training_step(config, state, z, labels),
        lambda: Minibatch(labels, 3),
    ):
        with pytest.raises(DomainError, match="integers"):
            call()


def test_bad_logits_are_reported_before_a_label_out_of_range():
    # the order of the checks is part of each exception's meaning: a
    # logits fault is a DomainError even when a label is out of range too
    config = TalConfig.for_classes(0.9, 1.0, 3)
    state = QState.zeros(3)
    y = [0, 5]
    for z in (np.full((2, 3), np.nan), np.zeros(3), np.zeros((3, 3)), np.zeros((2, 4))):
        calls = [
            lambda: tal_forward(config, z, y, state),
            lambda: training_step(config, state, z, y),
        ]
        if z.shape != (2, 4):  # four columns are no fault without a config
            calls.append(lambda: ce_forward(z, y))
        for call in calls:
            with pytest.raises(DomainError):
                call()
    with pytest.raises(IndexError):
        training_step(config, state, np.zeros((2, 3)), y)
