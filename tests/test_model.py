import pytest
from hypothesis import given, strategies as st

from ncbroadcast.model import ConfigError, batch_id, batch_packet_range, validate_config


def test_validate_derives_q_and_b():
    cfg = validate_config(12, 4, 2, 0.5)
    assert (cfg.F, cfg.K, cfg.N) == (12, 4, 2)
    assert cfg.q == 0.5
    assert cfg.b == 2


def test_single_batch_perfect_channel():
    cfg = validate_config(5, 5, 1, 1.0)
    assert cfg.b == 0
    assert cfg.q == 0.0


@pytest.mark.parametrize(
    "F,K,N,p",
    [
        (10, 3, 2, 0.5),   # F not a multiple of K
        (12, 4, 2, 0.0),   # transfer would never finish
        (12, 4, 2, -0.1),
        (12, 4, 2, 1.5),
        (0, 1, 1, 0.5),
        (12, 0, 2, 0.5),
        (12, 4, 0, 0.5),
    ],
)
def test_validate_rejects(F, K, N, p):
    with pytest.raises(ConfigError):
        validate_config(F, K, N, p)


def test_batch_id_values():
    cfg = validate_config(6, 3, 1, 0.5)
    assert batch_id(5, cfg) == 1
    assert batch_id(0, cfg) == 0
    cfg12 = validate_config(12, 4, 1, 0.5)
    assert batch_id(12, cfg12) == 3  # finished-receiver sentinel, one past the last batch


def test_batch_id_rejects_out_of_range():
    cfg = validate_config(6, 3, 1, 0.5)
    with pytest.raises(ValueError):
        batch_id(-1, cfg)
    with pytest.raises(ValueError):
        batch_id(7, cfg)


def test_batch_packet_range_values():
    cfg = validate_config(12, 4, 1, 0.5)
    assert batch_packet_range(0, cfg) == (0, 3)
    assert batch_packet_range(2, cfg) == (8, 11)
    with pytest.raises(ValueError):
        batch_packet_range(3, cfg)


@given(data=st.data())
def test_batch_id_consistent_with_packet_range(data):
    K = data.draw(st.integers(1, 12), label="K")
    n_batches = data.draw(st.integers(1, 8), label="batches")
    cfg = validate_config(K * n_batches, K, 1, 0.5)
    x = data.draw(st.integers(0, cfg.F - 1), label="x")
    lo, hi = batch_packet_range(batch_id(x, cfg), cfg)
    assert lo <= x <= hi


@given(data=st.data())
def test_batch_id_steps_exactly_at_multiples_of_k(data):
    K = data.draw(st.integers(1, 12), label="K")
    n_batches = data.draw(st.integers(1, 8), label="batches")
    cfg = validate_config(K * n_batches, K, 1, 0.5)
    x = data.draw(st.integers(0, cfg.F - 1), label="x")
    step = batch_id(x + 1, cfg) - batch_id(x, cfg)
    assert step == (1 if (x + 1) % K == 0 else 0)
