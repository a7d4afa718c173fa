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
  "writer.go:.*segstore.ErrWrongContainer"     # failover park-and-replay, handled internally
  "writer.go:.*segstore.ErrContainerDown"      # failover park-and-replay, handled internally
  "writer.go:.*wal.ErrFenced"                  # zombie fenced by new owner, handled internally
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

# Context convention (DESIGN.md §"Context convention"): every NEW public
# method in pkg/pravega must take a context.Context as its first parameter.
# The grandfathered list below holds the pre-convention surface —
# non-blocking accessors and legacy methods that already have a *Ctx twin.
# Do not add new entries; add a ctx parameter (or a *Ctx variant for a
# convenience form) instead.
ctx_allowlist=(
  # Non-blocking accessors / constructors / teardown.
  "System) Close" "System) MetricsAddr" "System) Cluster" "System) Controller"
  "System) Streams" "System) NewWriter" "System) NewTransactionalWriter"
  "System) NewReaderGroup" "System) NewKeyValueTable"
  "EventWriter) ID" "EventWriter) RTT" "EventWriter) Close"
  "EventWriter) WriteEvent" # async: returns a future with WaitCtx
  "TransactionalEventWriter) ID" "TransactionalEventWriter) Close"
  "Txn) ID" "Txn) WriteEvent" # async: returns a future with WaitCtx
  "WriteFuture) Done" "WriteFuture) Err"
  "ReaderGroup) Name" "ReaderGroup) Streams" "ReaderGroup) UnreadSegments"
  "ReaderGroup) NewReader"
  "Reader) Close"
  # Legacy blocking forms with a ctx twin (FlushCtx, WaitCtx,
  # ReadNextEventCtx, GetCtx, ...).
  "EventWriter) Flush" "WriteFuture) Wait" "Reader) ReadNextEvent"
  "KeyValueTable) Get" "KeyValueTable) Put" "KeyValueTable) Delete"
  "KeyValueTable) Txn" "KeyValueTable) Keys" "KeyValueTable) Len"
)

ctx_fail=0
while IFS= read -r line; do
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
done < <(grep -n '^func ([a-zA-Z] \*[A-Z][A-Za-z]*) [A-Z]' pkg/pravega/*.go \
  | grep -v 'ctx context\.Context' \
  | grep -v '_test\.go:' || true)

if [[ $ctx_fail -ne 0 ]]; then
  echo "lint_api_errors: public methods take ctx first (DESIGN.md §Context convention); do not extend the grandfathered list" >&2
  exit 1
fi
echo "lint_api_errors: OK"
