# Developer entry points.  `make check` is the tier-1 gate: it always
# builds and runs the tests, and additionally builds the API docs and
# verifies formatting when the respective tools are installed (odoc and
# ocamlformat are dev-time tools, not build dependencies — the gate
# degrades gracefully where they are absent).

.PHONY: all build test test-faults lint-invariants doc fmt-check check bench-obs bench-reduction bench-dist clean

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
# lib/aadl or lib/translate), and lib/acsr and lib/versa hold no
# process-wide table: no top-level value there builds a Hashtbl, Weak or
# Ephemeron table (or a functor instance of one), an Atomic or a Mutex,
# so terms, labels and resources are numbered, and the successor
# kernel's scratch and the visited set kept, only in tables an
# exploration owns and drops.  Those tables have one owner, the
# exploration's domain, so no line of lib/acsr (code or comment)
# mentions Mutex, Condition, Atomic or Domain: a lock or an atomic
# there would be one nothing needs.
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
	@bad=$$(awk 'FNR == 1 { value = 0; mods = "Hashtbl|Weak|Ephemeron|Atomic|Mutex" } \
	  /^module [A-Z][A-Za-z0-9_]* = (Hashtbl|Weak|Ephemeron[.][A-Za-z0-9]+)[.]Make/ { mods = mods "|" $$2 } \
	  /^[^ \t(]/ { value = ($$0 ~ /^(let|and)( rec)? [a-z_][A-Za-z0-9_]*( *:[^=]*)? *=/) && ($$0 !~ /= *(fun|function)( |$$)/) } \
	  value && $$0 ~ ("(^|[^A-Za-z0-9_.])(" mods ")[.](create|make)([^A-Za-z0-9_]|$$)") { print FILENAME ":" FNR ":" $$0 }' \
	  lib/acsr/*.ml lib/versa/*.ml); \
	if [ -n "$$bad" ]; then \
	  echo "lint-invariants: top-level table, atomic or mutex in lib/acsr or lib/versa:"; \
	  echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nwE "Mutex|Condition|Atomic|Domain" lib/acsr/*.ml lib/acsr/*.mli || true); \
	if [ -n "$$bad" ]; then \
	  echo "lint-invariants: Mutex, Condition, Atomic or Domain in lib/acsr (its tables are single-owner):"; \
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

# The gates below each write their own BENCH_<gate>.json (host, rows,
# ok flag) and exit non-zero when their property fails.  End-to-end
# timings come from perfbench (BENCHMARK.json), not from these targets.

# Orbit (symmetry) reduction gate: explores the reference models and the
# generated replicated EDF families with the reduction off vs on,
# records the canonicalization cost on the 32- and 64-thread families
# (reduced only, ungated), and writes the orbit table to
# BENCH_reduction.json.  Exits non-zero when the reduced space is
# larger, verdicts disagree, the replicated families fail to reduce
# strictly, or the 12-thread family stops fitting its state budget with
# the reduction on.
bench-reduction:
	dune exec bench/main.exe -- reduction

# Observability overhead gate: exploring e6_unsched 6 exhaustively
# with the metrics registry enabled, and again with span tracing active
# on top, must each cost no more than 5% over a muted registry, a
# purely relative bound.  Samples are sized from a timed warm check to
# last at least 0.8 s; the gate reads the median over 30 rounds of each
# row's paired ratio to the muted row.  Writes both rows into
# BENCH_obs.json; exits non-zero past the tolerance — part of
# `make check`.
bench-obs:
	dune exec bench/main.exe -- obs

# Distributed-service throughput: a duplicate-heavy open-loop load
# against 1, 2 and 4 socket shards behind a router, written to
# BENCH_dist.json; verdicts must match an in-process run.  The
# shards4/shards1 speedup gate is enforced only on hosts with >= 4
# cores; elsewhere the rows are recorded with the gate marked skipped.
bench-dist:
	dune exec bench/main.exe -- dist

clean:
	dune clean
