"""Shared fixtures and the acceptance summary reporter."""

import numpy as np
import pytest

from gaxkit import DatasetSpec, MiniConvNet, TrainConfig, make_blobs, train

# one trained desk-scale classifier shared by the expensive suites
MAIN_SPEC = DatasetSpec(class_count=2, train=400, val=120, test=250,
                        image_shape=(3, 32, 32), seed=11)
MAIN_MODEL_SEED = 7
MAIN_TRAIN_SEED = 3


@pytest.fixture(scope="session")
def main_dataset():
    return make_blobs(MAIN_SPEC)


@pytest.fixture(scope="session")
def trained_model(main_dataset):
    model = MiniConvNet(input_shape=MAIN_SPEC.image_shape, num_classes=2,
                        seed=MAIN_MODEL_SEED)
    result = train(model, main_dataset,
                   TrainConfig(target_val_accuracy=0.98, max_iterations=1500,
                               min_iterations=100, val_every=50,
                               seed=MAIN_TRAIN_SEED))
    assert result.val_accuracy >= 0.95, "fixture model failed to train"
    return model


# ---------------------------------------------------------------------------
# acceptance reporting: one PASS/FAIL line per criterion at the end

_acceptance_results: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    outcome = "PASS" if report.passed else (
        "SKIP" if report.skipped else "FAIL")
    _acceptance_results.append((name, outcome))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, outcome in _acceptance_results:
        terminalreporter.write_line(f"  {outcome}  {name}")
