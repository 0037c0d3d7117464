"""``row_stable_matmul``: probe-certified gemm vs the fixed-order oracle.

The float64 bit-identity promise (sharded == single-process, batched ==
solo) rests on one property: a row's product never depends on which other
rows share the call.  These tests check it on the running BLAS for every
path the kernel can take, against a slow oracle kept here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import inference
from repro.core.inference import (
    numerics_certificate,
    probe_row_stability,
    row_stable_matmul,
)
from repro.core.model import GCN, GCNConfig


def fixed_order_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` as one independent, k-ordered sum per row."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k]
    return out


products = st.fixed_dictionaries(
    {
        "rows": st.integers(1, 2000),
        "k": st.sampled_from([4, 32, 64, 128]),
        "n": st.sampled_from([1, 2, 3, 8, 64]),
        "dtype": st.sampled_from([np.float64, np.float32]),
        "seed": st.integers(0, 2**32 - 1),
        "start": st.floats(0.0, 1.0, exclude_max=True),
        "height": st.floats(0.0, 1.0),
    }
)


def _operands(p):
    rng = np.random.default_rng(p["seed"])
    a = (2.0 * rng.random((p["rows"], p["k"])) - 1.0).astype(p["dtype"])
    b = (2.0 * rng.random((p["k"], p["n"])) - 1.0).astype(p["dtype"])
    start = int(p["start"] * p["rows"])
    stop = start + max(1, int(p["height"] * (p["rows"] - start)))
    return a, b, start, stop


class TestRowStability:
    @settings(max_examples=60, deadline=None)
    @given(p=products)
    def test_row_slice_equals_rows_of_full_product(self, p):
        a, b, start, stop = _operands(p)
        full = row_stable_matmul(a, b)
        assert full.shape == (a.shape[0], b.shape[1])
        assert full.dtype == np.dtype(p["dtype"])
        np.testing.assert_array_equal(
            row_stable_matmul(a[start:stop], b), full[start:stop]
        )
        tol = 1e-12 if p["dtype"] is np.float64 else 1e-4
        np.testing.assert_allclose(full, a @ b, rtol=tol, atol=tol)

    @settings(max_examples=40, deadline=None)
    @given(p=products)
    def test_fallback_is_the_fixed_order_loop(self, p):
        """With the probe failing every shape, the kernel is the oracle."""
        a, b, start, stop = _operands(p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inference, "_certificate", {})
            mp.setattr(inference, "probe_row_stability", lambda k, n, d: False)
            full = row_stable_matmul(a, b)
            part = row_stable_matmul(a[start:stop], b)
        np.testing.assert_array_equal(full, fixed_order_oracle(a, b))
        np.testing.assert_array_equal(part, full[start:stop])


class TestProbe:
    def test_probe_rejects_a_height_dependent_gemm(self, monkeypatch):
        """A gemm whose rounding follows the operand height fails the probe,
        and the kernel then takes the fixed-order path."""
        exact = inference._padded_gemm

        def unstable(a, b):
            out = exact(a, b)
            return out * 1.0000001 if a.shape[0] > 100 else out

        monkeypatch.setattr(inference, "_padded_gemm", unstable)
        monkeypatch.setattr(inference, "_certificate", {})
        assert probe_row_stability(64, 2, np.float64) is False
        a = np.random.default_rng(0).random((300, 64))
        b = np.random.default_rng(1).random((64, 2))
        np.testing.assert_array_equal(
            row_stable_matmul(a, b), fixed_order_oracle(a, b)
        )

    def test_probe_runs_once_per_shape(self, monkeypatch):
        calls = []

        def counting(k, n, dtype):
            calls.append((k, n, dtype))
            return True

        monkeypatch.setattr(inference, "_certificate", {})
        monkeypatch.setattr(inference, "probe_row_stability", counting)
        a = np.ones((10, 8))
        for _ in range(3):
            row_stable_matmul(a, np.ones((8, 2)))
            row_stable_matmul(a.astype(np.float32), np.ones((8, 2), np.float32))
        assert calls == [(8, 2, "float64"), (8, 2, "float32")]

    def test_certificate_covers_every_dense_shape(self):
        weights = GCN(GCNConfig()).layer_weights()
        shapes = {
            m.shape for m in [*weights.encoder_weights, *weights.fc_weights]
        }
        for dtype in ("float64", "float32"):
            report = numerics_certificate(weights, dtype)
            assert {(r["k"], r["n"]) for r in report} == shapes
            for row in report:
                assert row["dtype"] == dtype
                assert row["path"] == ("gemm" if row["certified"] else "fixed_order")

