"""Tests for the Watson Studio notebook stand-in."""

from __future__ import annotations

import pytest

import repro as pw
from repro.studio import Notebook, WatsonStudio


class TestNotebookBasics:
    def test_cells_run_in_order_with_shared_namespace(self, env):
        studio = WatsonStudio(env)
        notebook = studio.create_notebook("analysis")
        notebook.add_cell(lambda ns: ns.setdefault("x", 10), label="setup")
        notebook.add_cell(lambda ns: ns["x"] * 2, label="compute")
        cells = notebook.run()
        assert [c.label for c in cells] == ["setup", "compute"]
        assert cells[1].output == 20
        assert all(c.ok for c in cells)

    def test_cell_durations_use_virtual_time(self, env):
        studio = WatsonStudio(env)
        notebook = studio.create_notebook("timed")

        def slow_cell(ns):
            pw.sleep(120)
            return "done"

        notebook.add_cell(slow_cell)
        cells = notebook.run()
        assert cells[0].duration == pytest.approx(120.0, abs=1.0)

    def test_error_stops_execution(self, env):
        studio = WatsonStudio(env)
        notebook = studio.create_notebook("broken")
        notebook.add_cell(lambda ns: 1, label="fine")
        notebook.add_cell(lambda ns: 1 / 0, label="boom")
        notebook.add_cell(lambda ns: 2, label="never")
        cells = notebook.run()
        assert len(cells) == 2
        assert not cells[1].ok
        assert "ZeroDivisionError" in cells[1].error

    def test_report_format(self, env):
        studio = WatsonStudio(env)
        notebook = studio.create_notebook("rep", vcpus=4, memory_gb=16)
        notebook.add_cell(lambda ns: None, label="only")
        notebook.run()
        report = notebook.report()
        assert "4 vCPU, 16 GB RAM" in report
        assert "only" in report
        assert "total:" in report

    def test_duplicate_names_rejected(self, env):
        studio = WatsonStudio(env)
        studio.create_notebook("nb")
        with pytest.raises(ValueError):
            studio.create_notebook("nb")
        assert list(studio._notebooks) == ["nb"]


class TestNotebookWithPyWren:
    def test_pywren_inside_notebook(self, env):
        """§4's pitch: import IBM-PyWren in a notebook, run parallel jobs."""
        studio = WatsonStudio(env)
        notebook = studio.create_notebook("parallel")

        def pywren_cell(ns):
            executor = pw.ibm_cf_executor()
            executor.map(lambda x: x + 7, [3, 6, 9])
            ns["result"] = executor.get_result()
            return ns["result"]

        notebook.add_cell(pywren_cell)
        cells = notebook.run()
        assert cells[0].output == [10, 13, 16]

    def test_run_inside_existing_env_run(self, env):
        """A notebook can execute within client code already in env.run."""

        def main():
            studio = WatsonStudio(env)
            notebook = studio.create_notebook("inner")
            notebook.add_cell(lambda ns: pw.now())
            return notebook.run()[0].ok

        assert env.run(main)
