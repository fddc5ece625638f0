"""Shared test helpers."""

import os
import threading

import numpy as np
import pytest

from deepdict.intraclass import DdlicModel
from deepdict.model_io import save_model


def _save_text_model(model, out_dir) -> None:
    """Write ``model`` as earlier versions did: text matrices (``%.17g``), ``%d`` labels.

    ``metadata.json`` is the same in both formats, so ``save_model`` writes it;
    its ``.npy`` matrices are then replaced with text files.
    """
    out_dir = str(out_dir)
    save_model(model, out_dir)
    for name in os.listdir(out_dir):
        if name.endswith(".npy"):
            os.remove(os.path.join(out_dir, name))
    matrices = {f"dictionary_{i:02d}": d for i, d in enumerate(model.dictionaries, start=1)}
    if isinstance(model, DdlicModel):
        matrices.update(
            (f"layer_repr_{i:02d}", z) for i, z in enumerate(model.layer_reprs, start=1)
        )
    else:
        matrices["train_repr"] = model.train_repr
    for stem, matrix in matrices.items():
        np.savetxt(os.path.join(out_dir, stem + ".txt"), matrix, fmt="%.17g")
    if model.labels is not None:
        np.savetxt(os.path.join(out_dir, "train_labels.txt"), model.labels, fmt="%d")


@pytest.fixture()
def save_text_model():
    """The text-format model writer of earlier versions, kept as a test oracle."""
    return _save_text_model


@pytest.fixture()
def no_thread_outlives_the_test():
    """Fail the test when more threads run after it than before it."""
    before = threading.active_count()
    yield
    after = threading.active_count()
    assert after <= before, f"{after - before} thread(s) outlived the test"
