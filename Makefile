.PHONY: install test lint loc chaos perf perf-selftest perf-trace perf-shuffle perf-airbnb bench paper-check determinism bench-trace bench-kernel-scale bench-dag bench-dag-swarm bench-cache bench-resume bench-exchange bench-tenant-storm bench-workloads bench-workloads-smoke docs-check examples all clean

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
# nightly CI job holds under 45 (expected 20-30).  ~40 s.
perf-trace:
	python3 perf/run.py --workload map_fanout --seconds 20 --trace 1

# where the shuffle data plane's host CPU goes: the last stdout line is a
# JSON record with core.shuffle.host_cpu_self_s (grouping pairs into
# buckets) and core.serializer.host_cpu_self_s (pickling them); the
# no-timing guard on shuffle bytes per pair is tier-1
# (tests/core/test_shuffle_properties.py::TestPartitionCost).  ~40 s.
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

# same-seed determinism against host timing (nightly CI job, ~3 min): the
# swarm trace test and the one-task-at-a-time tests, 50 fresh interpreters
# each; stops at the first failure and prints its output
DETERMINISM_TESTS = \
	tests/dag/test_swarm.py::TestTracing::test_same_seed_swarm_traces_byte_identical \
	tests/vtime/test_step_order.py::TestOneTaskAtATime

determinism:
	@for test in $(DETERMINISM_TESTS); do \
	  for run in $$(seq 1 50); do \
	    out=$$(PYTHONPATH=src python -m pytest -q -p no:cacheprovider "$$test" 2>&1) \
	      || { echo "$$out"; echo "determinism: $$test failed on run $$run"; exit 1; }; \
	  done; \
	  echo "determinism: $$test passed 50/50"; \
	done

# tracing overhead: same workload with the spine disabled vs enabled;
# writes BENCH_trace_overhead.json (acceptance: disabled adds <5%)
bench-trace:
	PYTHONPATH=src python benchmarks/bench_trace_overhead.py

# hybrid-scheduler scale runs (Fig. 3 shape at 2k/10k/50k concurrency);
# writes BENCH_kernel_scale.json (acceptance: 10k at full concurrency with
# peak OS threads < 2x the kernel pool, near-linear wall growth to 50k)
bench-kernel-scale:
	PYTHONPATH=src python benchmarks/bench_kernel_scale.py

# barriered executor vs barrier-free DAG scheduler on Fig. 4-shaped
# mergesort + shuffle wordcount; writes BENCH_dag_pipeline.json
# (acceptance: DAG wins mergesort wall-clock, same-seed traces identical)
bench-dag:
	PYTHONPATH=src python benchmarks/bench_dag_pipeline.py

# centralized vs worker-driven (swarm) DAG scheduling on the Fig. 4
# merge tree, a 100-level chain, and a wide-then-deep ML graph; writes
# BENCH_dag_swarm.json (acceptance: swarm wins the chain wall-clock with
# one client invocation total, no duplicate activations, same-seed swarm
# traces byte-identical)
bench-dag-swarm:
	PYTHONPATH=src python benchmarks/bench_dag_swarm.py

# COS-only vs memory-tier cached intermediate exchange on the Fig. 4
# mergesort + shuffle wordcount; writes BENCH_cache_exchange.json
# (acceptance: cached wins intermediate-read time, per-mode same-seed
# traces byte-identical)
bench-cache:
	PYTHONPATH=src python benchmarks/bench_cache_exchange.py

# exchange-backend matrix: shuffle volume x fan-out x backend (cos /
# cached-cos / vm); writes BENCH_exchange_matrix.json (acceptance: VM
# plane wins a large-volume cell on wall time, direct COS Pareto-wins a
# small cell, per-backend same-seed traces byte-identical)
bench-exchange:
	PYTHONPATH=src python benchmarks/bench_exchange_matrix.py

# weighted-fair dispatch vs first-come under a 200-tenant overload storm;
# writes BENCH_tenant_storm.json (acceptance: DRR Jain >= 0.9 with the
# first-come baseline clearly below, equal aggregate throughput)
bench-tenant-storm:
	PYTHONPATH=src python benchmarks/bench_tenant_storm.py

# BI/analytics workload suite: pushdown-scan sweep (selectivity x
# partitions x exchange backend) vs full-scan+client-filter, plus the
# windowed-streaming reuse sweep; writes BENCH_workloads.json
# (acceptance: pushdown wins wall and bytes at <=10% selectivity,
# overlapping windows reuse cached partials, same-seed scan and
# streaming traces byte-identical)
bench-workloads:
	PYTHONPATH=src python benchmarks/bench_workloads.py

# reduced matrix for CI; does not rewrite BENCH_workloads.json
bench-workloads-smoke:
	PYTHONPATH=src python benchmarks/bench_workloads.py --smoke

# event-journal overhead (off vs on, Fig. 3-shaped map) plus
# time-to-recover after a client crash; writes BENCH_resume_overhead.json
# (acceptance: journal enabled adds <5% executor wall-clock overhead)
bench-resume:
	PYTHONPATH=src python benchmarks/bench_resume_overhead.py

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
