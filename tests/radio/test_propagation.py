"""Path-loss and frame-error models."""

import math

import pytest

from repro.radio.propagation import FrameLossModel, LogDistancePathLoss, Position


def test_position_distance():
    assert Position(0, 0).distance_to(Position(3, 4)) == 5.0
    assert Position(1, 1).distance_to(Position(1, 1)) == 0.0


def test_position_moved():
    assert Position(1, 2).moved(3, -1) == Position(4, 1)


def test_path_loss_grows_with_distance():
    model = LogDistancePathLoss(exponent=3.0)
    losses = [model.path_loss_db(d) for d in (1, 10, 50, 100)]
    assert losses == sorted(losses)
    assert losses[0] == pytest.approx(40.0)          # PL(d0)
    assert losses[1] == pytest.approx(70.0)          # +10*n dB per decade


def test_rssi_from_tx_power():
    model = LogDistancePathLoss(exponent=3.0)
    assert model.rssi_dbm(15.0, 10.0) == pytest.approx(15.0 - 70.0)


def test_distance_clamp():
    model = LogDistancePathLoss()
    assert model.path_loss_db(0.0) == model.path_loss_db(0.1)


def test_invalid_exponent():
    with pytest.raises(ValueError):
        LogDistancePathLoss(exponent=0.0)


def test_loss_model_sigmoid_shape():
    model = FrameLossModel(threshold_dbm=-88.0, width_db=2.0)
    strong = model.success_probability(-60.0)
    at_threshold = model.success_probability(-88.0)
    weak = model.success_probability(-110.0)
    assert strong > 0.999
    assert at_threshold == pytest.approx(0.5)
    assert weak < 0.001


def test_loss_model_extra_loss_scales():
    clean = FrameLossModel(extra_loss=0.0)
    lossy = FrameLossModel(extra_loss=0.5)
    assert lossy.success_probability(-60.0) == pytest.approx(
        0.5 * clean.success_probability(-60.0))
    with pytest.raises(ValueError):
        FrameLossModel(extra_loss=1.0)


def test_hearable_margin():
    assert FrameLossModel(threshold_dbm=-88.0).hearing_floor_dbm == -98.0
    assert FrameLossModel(threshold_dbm=-80.5).hearing_floor_dbm == -90.5


def test_no_overflow_at_extremes():
    model = FrameLossModel()
    assert model.success_probability(500.0) == 1.0
    assert model.success_probability(-500.0) == 0.0
