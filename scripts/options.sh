#!/usr/bin/env bash
# Independently settable options: exported fields of every `type …Config
# struct` in the packages that carry configuration — the number CHANGES.md
# quotes as "options" and CI's budget step ratchets. One line of a struct
# body that starts with exported identifiers (`A T` or `A, B T`) counts once
# per name; embedded types, unexported fields and comments count nothing.
# Test files are skipped. Usage: scripts/options.sh
set -euo pipefail
cd "$(dirname "$0")/.."

dirs=(internal/blockcache internal/bookkeeper internal/controller
  internal/placement internal/readahead internal/role internal/segstore
  internal/wal internal/wire pkg/pravega)

for d in "${dirs[@]}"; do
  for f in "$d"/*.go; do
    case "$f" in *_test.go) continue ;; esac
    awk -v pkg="${d##*/}" '
      !name && /^type [A-Za-z0-9_]*Config struct \{$/ { name = $2; n = 0; next }
      name && /^\}/ { printf "%7d  %s.%s\n", n, pkg, name; name = ""; next }
      name {
        line = $0
        sub(/\/\/.*/, "", line)
        # "A T" or "A, B T": at least one exported name followed by a type.
        if (line ~ /^\t[A-Z][A-Za-z0-9_]*(, *[A-Z][A-Za-z0-9_]*)* +[^ ]/) {
          sub(/^\t/, "", line)
          sub(/ +[^ ,].*$/, "", line)
          n += split(line, parts, ",")
        }
      }
    ' "$f"
  done
done | awk '{ print; total += $1 } END { printf "%7d  total\n", total }'
