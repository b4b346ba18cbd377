#!/bin/sh
# Mutation check.  Each test/mutants/*.patch breaks the program in one
# small, plausible way and names, on its "Check:" lines, the commands
# that must catch it.  For every patch this script exports HEAD into a
# fresh temporary directory with `git archive`, applies the patch,
# builds the mutated tree (a mutant that does not build proves
# nothing), then runs each check there and expects it to fail.  It
# prints one row per check with its time, and exits 1 when a patch does
# not apply or build, or a check passes on its mutant.
#
# Usage, from anywhere in the repository (`make mutants` runs all):
#   sh test/mutants/run.sh [test/mutants/NAME.patch ...]
# Only committed files are exported: commit a patch before checking it.

set -u
root=$(git rev-parse --show-toplevel) || exit 2
cd "$root" || exit 2
if [ "$#" -eq 0 ]; then set -- test/mutants/*.patch; fi
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX") || exit 2
trap 'rm -rf "$work"' EXIT INT TERM
now() { date +%s; }
since() { echo "$(($(now) - $1))s"; }
row() { printf '%-26s %-9s %6s  %s\n' "$1" "$2" "$3" "$4"; }

status=0
row mutant result time check
for patch in "$@"; do
  name=$(basename "$patch" .patch)
  dir="$work/$name"
  mkdir -p "$dir"
  t0=$(now)
  git archive HEAD | tar -x -C "$dir"
  if ! (cd "$dir" && git apply "$root/$patch") >"$dir.log" 2>&1; then
    row "$name" NO-APPLY "$(since "$t0")" "see below"; cat "$dir.log"
    status=1; continue
  fi
  if ! (cd "$dir" && dune build 2>&1) >"$dir.log"; then
    row "$name" NO-BUILD "$(since "$t0")" "see below"; tail -n 20 "$dir.log"
    status=1; continue
  fi
  row "$name" built "$(since "$t0")" "dune build"
  grep '^Check: ' "$patch" | sed 's/^Check: //' | {
    survived=0
    while IFS= read -r check; do
      t0=$(now)
      if (cd "$dir" && timeout 900 sh -c "$check") >"$dir.log" 2>&1 </dev/null
      then row "$name" SURVIVED "$(since "$t0")" "$check"; survived=1
      else row "$name" killed "$(since "$t0")" "$check"
      fi
    done
    exit "$survived"
  } || status=1
  rm -rf "$dir"
done
exit "$status"
