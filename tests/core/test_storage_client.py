"""Unit tests for the internal-storage key schema."""

from __future__ import annotations

import pytest

from repro.core.storage_client import InternalStorage
from repro.cos import CloudObjectStorage, COSClient
from repro.net import LatencyModel, NetworkLink


@pytest.fixture()
def storage(kernel) -> InternalStorage:
    store = CloudObjectStorage(kernel)
    store.create_bucket("internal")
    link = NetworkLink(kernel, LatencyModel(rtt=0.0, jitter=0.0), seed=0)
    return InternalStorage(COSClient(store, link), "internal", prefix="pywren.jobs")


class TestKeySchema:
    def test_key_layout(self, storage):
        assert (
            storage.shared_func_key("e1", "0123abcd")
            == "pywren.jobs/e1/funcs/0123abcd.pickle"
        )
        assert (
            storage.status_key("e1", "M000", "00002")
            == "pywren.jobs/e1/M000/00002/status.pickle"
        )
        assert (
            storage.result_key("e1", "M000", "00002")
            == "pywren.jobs/e1/M000/00002/result.pickle"
        )

    def test_prefix_normalized(self, kernel):
        store = CloudObjectStorage(kernel)
        store.create_bucket("b")
        link = NetworkLink(kernel, LatencyModel(rtt=0.0, jitter=0.0), seed=0)
        storage = InternalStorage(COSClient(store, link), "b", prefix="/x/y/")
        assert storage.shared_func_key("e", "d").startswith("x/y/e/funcs/")
        assert storage.agg_data_key("e", "c").startswith("x/y/e/c/")


class TestRoundtrips:
    def test_func_roundtrip(self, kernel, storage):
        def main():
            func_key = storage.shared_func_key("e1", "0123abcd")
            storage.put_blob(func_key, b"function-bytes")
            return kernel.drive(storage.get_blob_steps(func_key))

        assert kernel.run(main) == b"function-bytes"

    def test_agg_data_ranges(self, kernel, storage):
        def main():
            storage.put_agg_data("e1", "M000", b"aaabbbbcc")
            return (
                kernel.drive(storage.get_data_range_steps("e1", "M000", 0, 3)),
                kernel.drive(storage.get_data_range_steps("e1", "M000", 3, 7)),
                kernel.drive(storage.get_data_range_steps("e1", "M000", 7, 9)),
            )

        assert kernel.run(main) == (b"aaa", b"bbbb", b"cc")

    def test_status_roundtrip_and_missing(self, kernel, storage):
        def main():
            assert storage.get_status("e1", "M000", "00000") is None
            kernel.drive(storage.commit_status_steps("e1", "M000", "00000", {"success": True, "x": 1}))
            return storage.get_status("e1", "M000", "00000")

        assert kernel.run(main) == {"success": True, "x": 1}

    def test_result_roundtrip(self, kernel, storage):
        def main():
            kernel.drive(
                storage.put_result_steps("e1", "M000", "00000", {"value": [1, 2]})
            )
            return storage.get_result("e1", "M000", "00000")

        assert kernel.run(main) == {"value": [1, 2]}


class TestListing:
    def test_list_done_call_ids(self, kernel, storage):
        def main():
            for call_id in ["00000", "00003", "00007"]:
                kernel.drive(storage.commit_status_steps("e1", "M000", call_id, {"success": True}))
            kernel.drive(storage.commit_status_steps("e1", "M001", "00001", {"success": True}))
            return kernel.drive(storage.list_done_call_ids_steps("e1", "M000"))

        assert kernel.run(main) == {"00000", "00003", "00007"}

    def test_list_empty_callset(self, kernel, storage):
        def main():
            return kernel.drive(storage.list_done_call_ids_steps("e1", "NONE"))

        assert kernel.run(main) == set()

    def test_callsets_isolated_per_executor(self, kernel, storage):
        def main():
            kernel.drive(storage.commit_status_steps("e1", "M000", "00000", {"success": True}))
            return kernel.drive(storage.list_done_call_ids_steps("e2", "M000"))

        assert kernel.run(main) == set()
