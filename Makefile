# Convenience targets for the repro library.

.PHONY: install kernel-ext kernel-ext-asan test bench bench-perf experiments examples lint fuzz trace-smoke serve serve-smoke verify startup-profile clean

install:
	pip install -e . --no-build-isolation

# Build the optional accelerated kernel extension in place (best
# effort: exits non-zero without a C toolchain but never breaks the
# pure-Python backend). Once built, exploration uses it automatically.
kernel-ext:
	python -m repro.analysis.kernel._build

# Build the compiled kernel in place under AddressSanitizer and UBSan
# (gcc), run the kernel unit, property and graph-lifetime suites (the
# last frees KernelState by refcount mid-run), the naive-reference
# equivalence suite and the n-PAC codec suite (footprint-keyed deltas)
# against it with the sanitizer runtimes preloaded (the interpreter itself is not
# instrumented), then rebuild the optimized extension. Any sanitizer
# report fails the run and reaches the terminal (pytest captures at
# the sys level only, so an aborting report is never swallowed).
KERNEL_DIR := src/repro/analysis/kernel
SANITIZE := -O1 -g -fsanitize=address,undefined -fno-omit-frame-pointer
kernel-ext-asan:
	gcc $(SANITIZE) -fPIC -shared \
		-I "$$(python -c 'import sysconfig; print(sysconfig.get_path("include"))')" \
		$(KERNEL_DIR)/_ckernel.c \
		-o "$(KERNEL_DIR)/_ckernel$$(python -c 'import sysconfig; print(sysconfig.get_config_var("EXT_SUFFIX"))')"
	LD_PRELOAD="$$(gcc -print-file-name=libasan.so) $$(gcc -print-file-name=libubsan.so)" \
	ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
	sh -c 'python -c "import sys; from repro.analysis.kernel import compiled_available; sys.exit(0 if compiled_available() else 1)" && \
		python -m pytest -q --capture=sys tests/analysis/test_kernel.py tests/property/test_hypothesis_kernel.py \
			tests/integration/test_graph_lifetime.py \
			tests/integration/test_fast_core_equivalence.py tests/core/test_pac_codec.py'; \
	status=$$?; python -m repro.analysis.kernel._build; exit $$status

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Refresh the machine-readable perf baseline (BENCH_perf.json).
# REPRO_PERF_SCALE=tiny shrinks the instances (CI smoke).
bench-perf:
	pytest benchmarks/bench_perf_core.py benchmarks/bench_perf_substrates.py \
		benchmarks/bench_perf_parallel.py benchmarks/bench_perf_fuzz.py \
		benchmarks/bench_perf_obs.py benchmarks/bench_perf_lint.py \
		benchmarks/bench_perf_kernel.py benchmarks/bench_perf_lifetime.py \
		--benchmark-disable -q
	@echo "--- BENCH_perf.json ---"
	@cat BENCH_perf.json

# Regenerate EXPERIMENTS.md's source rows (benchmarks/results.log).
experiments:
	rm -f benchmarks/results.log
	pytest benchmarks/ --benchmark-only -q
	@echo "--- regenerated rows ---"
	@cat benchmarks/results.log

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null && echo OK; done

# Protocol-aware static analysis (replayability contract R001-R006
# plus the interprocedural R007/R10x family).
lint:
	python -m repro lint

# Seeded fuzz smoke: a doomed candidate must be caught, shrunk, and
# replayed; a correct one must survive (same campaigns CI runs).
fuzz:
	python -m repro fuzz --candidate "one 2-SA" --seed 1234 --budget 300
	python -m repro fuzz --candidate "2-consensus from queue" --seed 1234 --budget 300

# Observability smoke: record a trace, validate it against the JSONL
# schema, render it through `repro report`, and check that the metrics
# snapshot embedded in the report is byte-identical across --jobs.
trace-smoke:
	rm -rf /tmp/repro-trace-smoke && mkdir -p /tmp/repro-trace-smoke
	python -m repro check-algorithm2 --n 2 --trace /tmp/repro-trace-smoke/check.jsonl
	python -c "from repro.obs.schema import load_trace; \
		records = load_trace('/tmp/repro-trace-smoke/check.jsonl'); \
		print(f'trace OK: {len(records)} records')"
	python -m repro report /tmp/repro-trace-smoke/check.jsonl
	python -m repro check-algorithm2 --n 2 --jobs 1 --format json > /tmp/repro-trace-smoke/j1.json
	python -m repro check-algorithm2 --n 2 --jobs 2 --format json > /tmp/repro-trace-smoke/j2.json
	python -c "import json; \
		j1 = json.load(open('/tmp/repro-trace-smoke/j1.json')); \
		j2 = json.load(open('/tmp/repro-trace-smoke/j2.json')); \
		assert j1['metrics'] == j2['metrics'], (j1['metrics'], j2['metrics']); \
		assert j1['body'] == j2['body'] and j1['summary'] == j2['summary']; \
		print('metrics snapshots and rendered output identical across --jobs 1/2')"

# Run the verification service on the default port (docs/serve.md).
serve:
	python -m repro serve

# Serve end-to-end harness: boot an ephemeral server, byte-diff served
# reports against direct api calls, replay the workload for warm hits,
# assert single-flight coalescing under a concurrent burst, and check
# the NDJSON event stream (same harness CI's serve-smoke job runs).
serve-smoke:
	python -m repro serve-smoke

# The reproduction smoke-check: every CLI command must exit 0.
verify:
	python -m repro demo
	python -m repro check-algorithm2 --n 3
	python -m repro refute
	python -m repro separation --n 2
	python -m repro separation --n 3
	python -m repro ledger --n 2
	python -m repro ledger --n 3
	python -m repro power

# Start-up import profile (docs/performance.md, "Start-up cost"):
# warm the .pyc files with PYTHONDONTWRITEBYTECODE unset (with it set,
# every start recompiles every module), then print the 20 slowest
# `python -X importtime` entries by cumulative time for a warm
# `repro explore --cache` hit and for `import repro.api`.
STARTUP_CACHE := $(or $(TMPDIR),/tmp)/repro-startup-profile
STARTUP_EXPLORE := explore --n 3 --cache --cache-dir $(STARTUP_CACHE) --format json
IMPORTTIME_TOP := sort -t'|' -k2 -n -r | head -20

startup-profile:
	rm -rf $(STARTUP_CACHE)
	env -u PYTHONDONTWRITEBYTECODE python -m repro $(STARTUP_EXPLORE) > /dev/null
	env -u PYTHONDONTWRITEBYTECODE python -c "import repro.api"
	@echo "--- warm repro explore --cache hit: slowest imports (us, cumulative) ---"
	@env -u PYTHONDONTWRITEBYTECODE python -X importtime -m repro \
		$(STARTUP_EXPLORE) 2>&1 > /dev/null | $(IMPORTTIME_TOP)
	@echo "--- import repro.api: slowest imports (us, cumulative) ---"
	@env -u PYTHONDONTWRITEBYTECODE python -X importtime -c "import repro.api" \
		2>&1 | $(IMPORTTIME_TOP)

clean:
	rm -rf build src/repro.egg-info .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} \;
