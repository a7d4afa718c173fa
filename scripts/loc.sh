#!/usr/bin/env bash
# Non-test, non-generated Go lines per package — the number CHANGES.md
# quotes when a PR claims to have removed code, and what later
# "one of everything" PRs diff against. Counts physical lines (comments and
# blanks included), so reformatting or deleting comments shows up as what it
# is. Usage: scripts/loc.sh [package-dir ...] (default: every package).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
  dirs=("$@")
else
  mapfile -t dirs < <(go list -f '{{.Dir}}' ./... | sed "s|^$PWD/||")
fi

total=0
for d in "${dirs[@]}"; do
  n=0
  for f in "${d%/}"/*.go; do
    [ -e "$f" ] || continue
    case "$f" in *_test.go) continue ;; esac
    if head -n 5 "$f" | grep -q '^// Code generated .* DO NOT EDIT\.$'; then
      continue
    fi
    n=$((n + $(wc -l <"$f")))
  done
  printf '%7d  %s\n' "$n" "${d%/}"
  total=$((total + n))
done
printf '%7d  total\n' "$total"
