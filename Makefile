# Developer entry points.  `make check` is the tier-1 gate: it always
# builds and runs the tests, and additionally builds the API docs and
# verifies formatting when the respective tools are installed (odoc and
# ocamlformat are dev-time tools, not build dependencies — the gate
# degrades gracefully where they are absent).

.PHONY: all build test test-faults lint-invariants doc fmt-check check bench-explore bench-scaling bench-service bench-sweep bench-obs bench-reduction bench-dist clean

all: build

build:
	dune build

test:
	dune runtest

# The seeded fault-matrix suite: qcheck properties over the RPC fabric
# (random delay/drop/duplication/reordering schedules) asserting replay
# determinism and verdict agreement — part of `make check`.
test-faults:
	dune exec test/test_timed.exe -- test faults

# Layering invariants enforced by grep, cheap enough to run on every
# check: all timestamps flow through Timed.Clock (no raw
# Unix.gettimeofday outside lib/timed), all socket handling lives
# in the one transport that owns it (no Unix.socket outside
# transport_socket.ml), and the front end and translation reject a
# model only through Aadl.Diag.Error (no other exception declared in
# lib/aadl or lib/translate).
lint-invariants:
	@bad=$$(grep -rn "Unix\.gettimeofday" lib bin bench --include='*.ml' --include='*.mli' \
	  | grep -v "^lib/timed/" | grep -v "(\*" || true); \
	if [ -n "$$bad" ]; then \
	  echo "lint-invariants: Unix.gettimeofday outside lib/timed:"; \
	  echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn "Unix\.socket\b" lib bin bench --include='*.ml' --include='*.mli' \
	  | grep -v "^lib/service/transport_socket.ml" || true); \
	if [ -n "$$bad" ]; then \
	  echo "lint-invariants: Unix.socket outside transport_socket.ml:"; \
	  echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE "^[[:space:]]*exception[[:space:]]" lib/aadl lib/translate \
	  --include='*.ml' --include='*.mli' \
	  | grep -vE "^lib/aadl/diag\.mli?:[0-9]+:exception Error of t$$" || true); \
	if [ -n "$$bad" ]; then \
	  echo "lint-invariants: exception other than Aadl.Diag.Error in lib/aadl or lib/translate:"; \
	  echo "$$bad"; exit 1; \
	fi
	@missing=$$(grep -rhoE '"(versa|service|translate|analysis|runtime)_[a-z0-9_]+"' \
	  lib bin bench --include='*.ml' | tr -d '"' | sort -u \
	  | while read -r name; do \
	      grep -q "$$name" test/cli/obs.t || echo "$$name"; \
	    done); \
	if [ -n "$$missing" ]; then \
	  echo "lint-invariants: metric names missing from the pinned catalogue in test/cli/obs.t:"; \
	  echo "$$missing"; exit 1; \
	fi
	@echo "lint-invariants: ok"

doc:
	@if command -v odoc >/dev/null 2>&1; then \
	  dune build @doc; \
	else \
	  echo "odoc not installed; skipping documentation build"; \
	fi

fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

check: build lint-invariants test test-faults bench-obs doc fmt-check

# Regenerate the exploration telemetry in BENCH_explore.json (runs with
# and without successor rows, early exit, the work-stealing jobs x model
# scaling table), merged so the reduction section survives.  Doubles as
# the scaling gate: exits non-zero when jobs4/jobs1 < 2.0 on the
# largest bench model (enforced only on hosts with >= 4 cores) or when
# results differ across jobs.
bench-explore:
	dune exec bench/main.exe -- explore

# Just the scaling table + gate, without the engine comparison; writes
# BENCH_scaling.json (CI uploads it as the speedup-table artifact).
bench-scaling:
	dune exec bench/main.exe -- scaling

# Regenerate the service-layer batch-throughput telemetry
# (BENCH_service.json): verdict cache off vs on at 1 and 4 workers.
bench-service:
	dune exec bench/main.exe -- service

# Regenerate the incremental-sensitivity telemetry (BENCH_sweep.json):
# cet sweeps with the fragment cache on vs off, verdicts asserted equal.
bench-sweep:
	dune exec bench/main.exe -- sweep

# Orbit (symmetry) reduction gate: explores the reference models and the
# generated replicated EDF families with the reduction off vs on, and
# merges the raw/reduced orbit table into BENCH_explore.json.  Exits
# non-zero when the reduced space is larger, verdicts disagree, the
# replicated families fail to reduce strictly, or the 12-thread family
# stops fitting its state budget with the reduction on.
bench-reduction:
	dune exec bench/main.exe -- reduction

# Observability overhead gate: exploring e6_unsched 6 exhaustively
# with the metrics registry enabled, and again with span tracing active
# on top, must each cost no more than 5% over a muted registry, a
# purely relative bound.  Samples are sized from a timed warm check to
# last at least 0.8 s; the gate reads the median over 15 rounds of each
# row's paired ratio to the muted row.  Writes both rows into
# BENCH_obs.json; exits non-zero past the tolerance — part of
# `make check`.
bench-obs:
	dune exec bench/main.exe -- obs

# Distributed-service throughput: a duplicate-heavy open-loop load
# against 1, 2 and 4 socket shards behind a router, merged into
# BENCH_service.json under "dist".  The shards4/shards1 speedup gate is
# enforced only on hosts with >= 4 cores; elsewhere the rows are
# recorded with the gate marked skipped.
bench-dist:
	dune exec bench/main.exe -- dist

clean:
	dune clean
