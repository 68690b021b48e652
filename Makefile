.PHONY: install test lint loc chaos perf perf-selftest perf-trace perf-shuffle perf-airbnb bench paper-check determinism docs-check examples all clean

install:
	pip install -e . --no-build-isolation || \
	  echo "$(CURDIR)/src" > "$$(python3 -c 'import site; print(site.getsitepackages()[0])')/repro-editable.pth"

test:
	pytest tests/

# static checks; skips gracefully when ruff is not installed locally
lint:
	@command -v ruff >/dev/null 2>&1 \
	  && ruff check src tests benchmarks \
	  || echo "ruff not installed; skipping lint (pip install ruff)"

# source line counts, counted the way ROADMAP acceptance lines are
# (`find ... | xargs cat | wc -l`): all of src/repro, then core + dag
loc:
	@printf 'src/repro             %s\n' "$$(find src/repro -name '*.py' | xargs cat | wc -l)"
	@printf 'src/repro/{core,dag}  %s\n' "$$(find src/repro/core src/repro/dag -name '*.py' | xargs cat | wc -l)"
	@printf 'src/repro/exchange    %s\n' "$$(find src/repro/exchange -name '*.py' | xargs cat | wc -l)"

# fault-injection subset, exercised under two named chaos profiles
chaos:
	PYTHONPATH=src python -m pytest tests/integration/test_chaos.py -q -k "storm"
	PYTHONPATH=src python -m pytest tests/integration/test_chaos.py -q -k "flaky"

# the one benchmark (BENCHMARK.json): four seeded workloads on both
# clocks with the per-layer split; see perf/README.md.  ~5 min; writes
# perf/results/last.json.  perf-selftest tests the tool itself (~4 s).
perf:
	python3 perf/run.py

perf-selftest:
	python3 perf/selftest.py

# what leaving the trace spine on costs: 10,000-call map, spine off then
# on; the last stdout line is a JSON record whose trace.overhead_pct the
# nightly CI job (trace-overhead) fails over 35 (expected 30-37).  ~40 s.
perf-trace:
	python3 perf/run.py --workload map_fanout --seconds 20 --trace 1

# where the shuffle data plane's host CPU goes: the last stdout line is a
# JSON record with core.shuffle.host_cpu_self_s (grouping pairs into
# buckets), core.serializer.host_cpu_self_s (pickling them before the
# first PUT, unpickling them after the last GET) and py.gc_s; the
# no-timing guards are tier-1: shuffle bytes per pair
# (tests/core/test_shuffle_properties.py::TestPartitionCost) and no value
# held across a shuffle request (tests/core/test_shuffle.py::
# TestHeapBetweenRequests).  ~40 s.
perf-shuffle:
	python3 perf/run.py --workload shuffle_wordcount --seconds 20 --trace 1

# where Table 3's host CPU goes: the last stdout line is a JSON record
# whose cos.host_cpu_self_s (mostly synthesising the 16 KB review samples
# a map reads) and analytics.host_cpu_self_s (tone-analysing them) are the
# data path; the other layers are the control plane around its 1,310
# calls (1,211 maps; 99 reducers, one DAG of 33 per chunk size).  ~40 s.
perf-airbnb:
	python3 perf/run.py --workload airbnb_mapreduce --seconds 20 --trace 1

bench:
	pytest benchmarks/ --benchmark-only

# the paper's figures as a build (CI job paper-figures, ~80 s): Fig. 2-5,
# Table 3 (> 100x at 2 MB) and the ablations assert their paper shapes
paper-check:
	PYTHONPATH=src python -m pytest benchmarks -q --benchmark-disable

# same-seed determinism against host timing and hash seeds (nightly CI job,
# ~8 min): the swarm trace test, the one-task-at-a-time tests, the
# thread-task spawn sites, the exact hand-off count, the one-judge request
# counts, the in-flight activation's tracked-object bound (a context
# variable's salted hash can cost it one HAMT node) and same-seed container
# ids, 50 fresh interpreters each; stops at the first failure and prints
# its output
DETERMINISM_TESTS = \
	tests/dag/test_swarm.py::TestTracing::test_same_seed_swarm_traces_byte_identical \
	tests/vtime/test_step_order.py::TestOneTaskAtATime \
	tests/dag/test_handoffs.py::TestThreadTaskSpawnSites \
	tests/dag/test_handoffs.py::TestHandoffBudget::test_the_count_is_exact_under_a_seed \
	tests/core/test_one_judge.py \
	tests/faas/test_activation_footprint.py::TestInFlightFootprint \
	tests/faas/test_container.py::TestContainerIdsPerPlatform

determinism:
	@for test in $(DETERMINISM_TESTS); do \
	  for run in $$(seq 1 50); do \
	    out=$$(PYTHONPATH=src python -m pytest -q -p no:cacheprovider "$$test" 2>&1) \
	      || { echo "$$out"; echo "determinism: $$test failed on run $$run"; exit 1; }; \
	  done; \
	  echo "determinism: $$test passed 50/50"; \
	done

# documentation guards: no dead relative links in README/docs, every
# public repro.* symbol documented in docs/API.md
docs-check:
	PYTHONPATH=src python scripts/check_docs.py

examples:
	@for ex in examples/*.py; do echo "=== $$ex ==="; python3 $$ex; echo; done

all: test bench

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
