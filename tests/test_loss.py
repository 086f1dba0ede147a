import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talcil import (
    DomainError,
    MemoryKernel,
    QState,
    SpecError,
    TalConfig,
    ce_forward,
    solve_calibration,
    tal_forward,
    training_step,
    update_tal,
)
from talcil.config import spec_from_mapping


def finite_difference(loss_fn, logits, h=1e-5):
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            up = logits.copy()
            up[i, j] += h
            down = logits.copy()
            down[i, j] -= h
            grad[i, j] = (loss_fn(up) - loss_fn(down)) / (2 * h)
    return grad


def pinned_state(config: TalConfig) -> QState:
    """Tracker pinned at the balanced steady state, where the loss must
    collapse to plain cross-entropy."""
    res = solve_calibration(config.class_count, config.r)
    return QState(q=np.full(config.class_count, res.x_star * config.kernel.q_max))


def random_instance(rng, n_max=8, c_max=12):
    n = int(rng.integers(1, n_max + 1))
    c = int(rng.integers(2, c_max + 1))
    config = TalConfig.for_classes(0.9, float(rng.choice([1.0, 2.0, 3.5])), c)
    q = QState(q=rng.uniform(0.0, 0.95 * config.kernel.q_max, size=c))
    logits = 2.0 * rng.standard_normal((n, c))
    labels = rng.integers(0, c, size=n)
    return config, q, logits, labels


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_epsilon_and_domain_gates():
    with pytest.raises(DomainError):
        TalConfig.for_classes(0.9, 1.0, 10, epsilon=0.0)
    with pytest.raises(DomainError):
        TalConfig.for_classes(0.9, 1.0, 10, epsilon=1e-3)
    with pytest.raises(DomainError):
        TalConfig.for_classes(0.9, 0.5, 10)
    with pytest.raises(DomainError):
        TalConfig.for_classes(0.3, 1.0, 10)
    with pytest.warns(RuntimeWarning):
        config = TalConfig.for_classes(0.9, 0.5, 10, exploratory=True)
    assert config.alpha > 1.0  # exploratory calibration still solved


def test_a_spec_and_a_config_report_one_epsilon_message():
    message = "epsilon must lie in (0, 1e-6], got 1.0"
    with pytest.raises(DomainError) as err:
        TalConfig.for_classes(0.9, 1.0, 10, epsilon=1.0)
    assert str(err.value) == message
    with pytest.raises(SpecError) as err:
        spec_from_mapping({"loss": {"epsilon": 1.0}})
    assert str(err.value) == f"bad value in loss: {message}"


@pytest.mark.parametrize("c", [2, 10, 100])
@pytest.mark.parametrize("r", [0.2, 0.5, 1.0, 1.5, 2.0, 5.0])
def test_config_alpha_is_the_calibrations_alpha_bit_for_bit(r, c):
    exploratory = r < 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # exploratory calibration warns
        config = TalConfig(MemoryKernel(lam=0.9), r, c, exploratory=exploratory)
        expected = solve_calibration(c, r, strict=not exploratory).alpha
    assert config.alpha.hex() == expected.hex()


def test_config_alpha_is_not_an_argument():
    with pytest.raises(TypeError):
        TalConfig(kernel=MemoryKernel(lam=0.9), r=1.0, class_count=10, alpha=19.0)
    with pytest.raises(DomainError):  # the calibration's own class-count check
        TalConfig(kernel=MemoryKernel(lam=0.9), r=1.0, class_count=1)


def test_for_classes_solves_each_calibration_once(monkeypatch):
    import talcil.loss

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_calibration(*args, **kwargs)

    monkeypatch.setattr(talcil.loss, "solve_calibration", counted)
    with pytest.warns(RuntimeWarning) as record:
        config = TalConfig.for_classes(0.9, 0.5, 10, exploratory=True)
    assert len(calls) == 1 and len(record) == 1  # one solve, one warning
    # a directly built config solves its own alpha, once
    with pytest.warns(RuntimeWarning):
        direct = TalConfig(kernel=config.kernel, r=0.5, class_count=10, exploratory=True)
    assert len(calls) == 2 and direct == config


# ---------------------------------------------------------------------------
# cross-entropy baseline
# ---------------------------------------------------------------------------


def test_ce_uniform_logits_gives_log_c():
    for c in (2, 7, 100):
        out = ce_forward(np.zeros((3, c)), [0, c // 2, c - 1])
        assert out.loss == pytest.approx(np.log(c), abs=1e-12)


def test_ce_confident_correct_logit_drives_loss_to_zero():
    z = np.zeros((1, 5))
    z[0, 2] = 50.0
    out = ce_forward(z, [2])
    assert 0.0 <= out.loss < 1e-6


def test_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 6))
    y = rng.integers(0, 6, size=4)
    out = ce_forward(z, y)
    fd = finite_difference(lambda zz: ce_forward(zz, y).loss, z)
    assert np.abs(out.grad_logits - fd).max() < 1e-6 * max(1.0, np.abs(fd).max())


# ---------------------------------------------------------------------------
# adjusted loss
# ---------------------------------------------------------------------------


def test_pinned_steady_state_collapses_to_ce_per_sample():
    rng = np.random.default_rng(5)
    config = TalConfig.for_classes(0.99, 1.0, 8)
    q = pinned_state(config)
    for _ in range(10):
        z = 3.0 * rng.standard_normal((1, 8))
        y = rng.integers(0, 8, size=1)
        tal = tal_forward(config, z, y, q)
        ce = ce_forward(z, y)
        assert abs(tal.loss - ce.loss) < 1e-12
        assert np.abs(tal.grad_logits - ce.grad_logits).max() < 1e-12


def test_zero_strength_class_is_screened_out():
    config = TalConfig.for_classes(0.9, 1.0, 4)
    q = QState(q=np.array([0.0, 3.0, 4.0, 5.0]))
    z = np.array([[0.5, 0.1, -0.2, 0.3]])
    base = tal_forward(config, z, [3], q).loss
    bumped = z.copy()
    bumped[0, 0] += 10.0
    assert abs(tal_forward(config, bumped, [3], q).loss - base) < 1e-6


def test_hand_set_instance_matches_finite_differences():
    config = TalConfig.for_classes(0.9, 2.0, 3)
    q = QState(q=np.array([0.1, 4.0, 7.5]))
    z = np.array([[1.0, -0.5, 0.25], [0.0, 2.0, -1.0]])
    y = np.array([0, 1])
    out = tal_forward(config, z, y, q)
    fd = finite_difference(lambda zz: tal_forward(config, zz, y, q).loss, z)
    assert np.abs(out.grad_logits - fd).max() < 1e-6 * max(1.0, np.abs(fd).max())


def test_random_instances_match_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(30):
        config, q, z, y = random_instance(rng)
        out = tal_forward(config, z, y, q)
        fd = finite_difference(lambda zz: tal_forward(config, zz, y, q).loss, z)
        rel = np.abs(out.grad_logits - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert rel < 1e-6


@given(shift=st.floats(min_value=-200.0, max_value=200.0), seed=st.integers(0, 2**31))
@settings(max_examples=30)
def test_translation_invariance(shift, seed):
    rng = np.random.default_rng(seed)
    config, q, z, y = random_instance(rng)
    base = tal_forward(config, z, y, q)
    moved = tal_forward(config, z + shift, y, q)
    assert abs(base.loss - moved.loss) < 1e-10 * max(1.0, abs(base.loss))
    assert np.abs(base.grad_logits - moved.grad_logits).max() < 1e-10


@given(seed=st.integers(0, 2**31))
@settings(max_examples=30)
def test_gradient_signs_rowsums_and_nonnegativity(seed):
    rng = np.random.default_rng(seed)
    config, q, z, y = random_instance(rng)
    out = tal_forward(config, z, y, q)
    assert out.loss >= 0.0
    n = z.shape[0]
    rows = np.arange(n)
    true_grad = out.grad_logits[rows, y]
    assert np.all(true_grad <= 0.0) and np.all(true_grad > -1.0)
    others = out.grad_logits.copy()
    others[rows, y] = 0.0
    assert np.all(others >= 0.0)
    # softmax structure makes every row sum to zero exactly (up to rounding),
    # which is what shift invariance requires
    assert np.abs(out.grad_logits.sum(axis=1)).max() < 1e-12


def test_lowering_a_nontrue_class_strength_never_raises_its_gradient():
    rng = np.random.default_rng(17)
    config = TalConfig.for_classes(0.9, 2.0, 6)
    for _ in range(50):
        q_hi = rng.uniform(0.1, 0.95 * config.kernel.q_max, size=6)
        j = int(rng.integers(0, 6))
        y = np.array([(j + 1) % 6])
        q_lo = q_hi.copy()
        q_lo[j] = rng.uniform(0.0, q_hi[j])
        z = 2.0 * rng.standard_normal((1, 6))
        g_hi = tal_forward(config, z, y, QState(q=q_hi)).grad_logits[0, j]
        g_lo = tal_forward(config, z, y, QState(q=q_lo)).grad_logits[0, j]
        assert abs(g_lo) <= abs(g_hi) + 1e-15


def test_input_validation_errors():
    config = TalConfig.for_classes(0.9, 1.0, 3)
    q = QState.zeros(3)
    with pytest.raises(DomainError):
        tal_forward(config, np.array([[1.0, np.inf, 0.0]]), [0], q)
    with pytest.raises(IndexError):
        tal_forward(config, np.zeros((1, 3)), [3], q)
    with pytest.raises(DomainError):
        tal_forward(config, np.zeros((1, 4)), [0], q)
    with pytest.raises(DomainError):
        tal_forward(config, np.zeros((1, 3)), [0], QState.zeros(4))
    with pytest.raises(DomainError):
        ce_forward(np.array([[np.nan, 0.0]]), [0])


# ---------------------------------------------------------------------------
# combined training step
# ---------------------------------------------------------------------------


def test_single_sample_step_advances_like_single_update():
    config = TalConfig.for_classes(0.9, 1.0, 4)
    q = QState(q=np.array([0.3, 1.0, 2.0, 0.0]))
    z = np.random.default_rng(0).standard_normal((1, 4))
    out, advanced = training_step(config, q, z, np.array([2]))
    expected = update_tal(q, config.kernel, 1.0, [-1.0, -1.0, 1.0, -1.0])
    assert np.array_equal(advanced.q, expected.q)
    assert out.loss == tal_forward(config, z, [2], q).loss


def test_balanced_steady_state_is_a_fixed_point_with_ce_loss():
    config = TalConfig.for_classes(0.9, 1.0, 4)
    q = pinned_state(config)
    rng = np.random.default_rng(1)
    z = rng.standard_normal((8, 4))
    y = np.repeat(np.arange(4), 2)  # exactly balanced batch
    out, advanced = training_step(config, q, z, y)
    assert np.abs(advanced.q - q.q).max() < 1e-9
    assert abs(out.loss - ce_forward(z, y).loss) < 1e-9


def test_loss_uses_pre_update_snapshot():
    config = TalConfig.for_classes(0.9, 1.0, 3)
    q = QState(q=np.array([0.0, 2.0, 4.0]))
    z = np.array([[0.3, -0.1, 0.2]])
    y = np.array([1])
    out, advanced = training_step(config, q, z, y)
    assert out.loss == tal_forward(config, z, y, q).loss
    assert out.loss != tal_forward(config, z, y, advanced).loss


def test_back_loaded_class_ends_with_larger_strength():
    config = TalConfig.for_classes(0.99, 1.0, 2)
    q = QState.zeros(2)
    rng = np.random.default_rng(2)
    stream = np.array([0] * 50 + [1] * 50)
    for label in stream:
        z = rng.standard_normal((1, 2))
        _, q = training_step(config, q, z, np.array([label]))
    assert q.q[0] < q.q[1]
