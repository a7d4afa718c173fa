#!/usr/bin/env bash
# Guards the public API's error contract: pkg/pravega must surface sentinel
# errors from pkg/pravega/errors.go, not leak internal sentinels. Direct
# references to internal sentinels are allowed only in errors.go (the
# mapping table), in tests, and in the flow-control sites listed below where
# the client reacts to an internal condition rather than reporting it.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist=(
  "reader.go:.*segstore.ErrSegmentTruncated"   # retention jump, handled internally
  "readergroup.go:.*segstore.ErrSegmentExists" # idempotent create-or-join
  "writer.go:.*segstore.ErrSegmentSealed"      # scale re-route, handled internally
)

fail=0
while IFS= read -r line; do
  ok=0
  for allowed in "${allowlist[@]}"; do
    if [[ "$line" =~ $allowed ]]; then
      ok=1
      break
    fi
  done
  if [[ $ok -eq 0 ]]; then
    echo "lint_api_errors: new direct internal sentinel dependency: $line" >&2
    fail=1
  fi
done < <(grep -n 'segstore\.Err\|controller\.Err\|wal\.Err' pkg/pravega/*.go \
  | grep -v '^pkg/pravega/errors\.go:' \
  | grep -v '_test\.go:' || true)

if [[ $fail -ne 0 ]]; then
  echo "lint_api_errors: map the sentinel in pkg/pravega/errors.go (convertErr) instead" >&2
  exit 1
fi

# Context convention (DESIGN.md §"Context convention"): every public method
# in pkg/pravega takes a context.Context as its first parameter. The list
# below holds the exceptions — non-blocking accessors, constructors and
# teardown — plus ReadNextEvent(timeout), kept while the benchmark calls it.
# Do not add blocking methods; an entry that matches no method fails too, so
# the list cannot outlive what it excuses.
ctx_allowlist=(
  # Non-blocking accessors / constructors / teardown.
  "System) Close" "System) MetricsAddr" "System) Cluster" "System) Controller"
  "System) Streams" "System) NewWriter" "System) NewTransactionalWriter"
  "System) NewReaderGroup" "System) NewKeyValueTable"
  "EventWriter) ID" "EventWriter) Close"
  "EventWriter) WriteEvent" # async: returns a future with Wait(ctx)
  "TransactionalEventWriter) ID" "TransactionalEventWriter) Close"
  "Txn) ID" "Txn) WriteEvent" # async: returns a future with Wait(ctx)
  "WriteFuture) Done" "WriteFuture) Err"
  "ReaderGroup) Name" "ReaderGroup) Streams" "ReaderGroup) UnreadSegments"
  "ReaderGroup) NewReader"
  "Reader) Close"
  # The one blocking form without ctx (ReadNextEventCtx is its ctx form).
  "Reader) ReadNextEvent"
)

mapfile -t no_ctx < <(grep -n '^func ([a-zA-Z]* \*[A-Z][A-Za-z]*) [A-Z]' pkg/pravega/*.go \
  | grep -v 'ctx context\.Context' \
  | grep -v '_test\.go:' || true)

ctx_fail=0
for line in "${no_ctx[@]}"; do
  ok=0
  for allowed in "${ctx_allowlist[@]}"; do
    if [[ "$line" == *"$allowed("* ]]; then
      ok=1
      break
    fi
  done
  if [[ $ok -eq 0 ]]; then
    echo "lint_api_errors: new public method without context.Context: $line" >&2
    ctx_fail=1
  fi
done
for allowed in "${ctx_allowlist[@]}"; do
  hit=0
  for line in "${no_ctx[@]}"; do
    if [[ "$line" == *"$allowed("* ]]; then
      hit=1
      break
    fi
  done
  if [[ $hit -eq 0 ]]; then
    echo "lint_api_errors: allowlist entry \"$allowed\" matches no method without ctx; delete it" >&2
    ctx_fail=1
  fi
done

if [[ $ctx_fail -ne 0 ]]; then
  echo "lint_api_errors: public methods take ctx first (DESIGN.md §Context convention); do not extend the grandfathered list" >&2
  exit 1
fi
echo "lint_api_errors: OK"
