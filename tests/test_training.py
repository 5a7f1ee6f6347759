import pytest

from gridrank import grid, training
from gridrank.model import ModelConfig


def test_logged_local_ndcg_applies_the_cutoff():
    data = grid.generate_synthetic(7, 5, 5, 30, 2)
    splits = training.Splits(train_end=22)
    model_config = ModelConfig.for_grid(data, hidden=4, recurrent_hidden=4, window=3, embed_dim=3)
    train_config = training.TrainConfig(epochs=1, warmup_epochs=0, batch_size=8, eval_k=3)
    state = training.train(data, splits, model_config, train_config)
    report = training.evaluate_split(state.params, data, splits, [3], train_config.radius)
    logged = state.log[-1]
    assert logged["val_lndcg@3"] == pytest.approx(report.lookup("lndcg", 3).mean, abs=1e-12)
    assert logged["val_ndcg@3"] == pytest.approx(report.lookup("ndcg", 3).mean, abs=1e-12)
