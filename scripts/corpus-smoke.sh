#!/usr/bin/env bash
# corpus-smoke: prove the FOSMTRC1 out-of-core trace plane end to end.
# Five legs against one FOSM_CACHE_DIR:
#
#   1. record  — `fosm record` writes gzip/gcc trace files;
#                `corpus info` and `corpus verify` accept them;
#   2. corrupt — flipping one data byte makes `corpus verify` fail
#                (section checksums cover every payload byte);
#   3. cold    — profiling straight from the corpus file pages the
#                trace (nonzero corpus.pages);
#   4. warm    — a second process re-profiles byte-identically from
#                the disk cache, a new machine config pages the file
#                again (nonzero corpus.pages), and the cache holds
#                nothing but profile entries;
#   5. sweep   — `fosm validate --corpus` shards both files across
#                workers and passes the tuned tolerance bands.
#
# Usage: scripts/corpus-smoke.sh   (FOSM overrides the binary path)
set -euo pipefail

FOSM="${FOSM:-./target/release/fosm}"
WORK="$(mktemp -d)"
cleanup() {
  rm -rf "$WORK"
}
trap cleanup EXIT
export FOSM_CACHE_DIR="$WORK/cache"

# The tuned tolerance bands in validate are calibrated at 120000-inst
# workloads; corpora must match for the --check leg to be meaningful.
INSTS=120000

require_counter() {  # $1: counter name, $2: manifest file, $3: failure text
  grep -Eq "\"$1\":[1-9]" "$2" || {
    echo "$3" >&2
    cat "$2" >&2
    exit 1
  }
}

# --- leg 1: record, info, verify ------------------------------------
"$FOSM" record --bench gzip --insts "$INSTS" --seed 42 -o "$WORK/gzip.fct"
"$FOSM" record --bench gcc --insts "$INSTS" --seed 42 -o "$WORK/gcc.fct"
"$FOSM" corpus info "$WORK/gzip.fct" | grep -q " $INSTS instructions" || {
  echo "corpus info did not report $INSTS instructions" >&2
  exit 1
}
"$FOSM" corpus verify "$WORK/gzip.fct"
"$FOSM" corpus verify "$WORK/gcc.fct"

# --- leg 2: any-byte corruption is detected -------------------------
cp "$WORK/gzip.fct" "$WORK/bad.fct"
# Flip one byte in the middle of the payload, past the 208-byte header.
printf '\xff' | dd of="$WORK/bad.fct" bs=1 seek=4096 count=1 conv=notrunc status=none
if "$FOSM" corpus verify "$WORK/bad.fct" 2>/dev/null; then
  echo "corpus verify accepted a corrupted file" >&2
  exit 1
fi

# --- leg 3: cold profile from the corpus file -----------------------
"$FOSM" profile "$WORK/gzip.fct" -o "$WORK/p-cold.json" \
  --metrics "$WORK/m-cold.json"
require_counter "corpus\.pages" "$WORK/m-cold.json" \
  "cold corpus profile never paged the trace"

# --- leg 4: warm re-profile through the disk cache ------------------
"$FOSM" profile "$WORK/gzip.fct" -o "$WORK/p-warm.json" \
  --metrics "$WORK/m-warm.json"
cmp "$WORK/p-cold.json" "$WORK/p-warm.json"
require_counter "store\.disk_hit" "$WORK/m-warm.json" \
  "warm corpus re-profile never hit the disk cache"

# A new machine config misses the memoized profile and pages the file
# again: the trace itself is never cached.
"$FOSM" profile "$WORK/gzip.fct" --width 8 -o "$WORK/p-w8.json" \
  --metrics "$WORK/m-w8.json"
require_counter "corpus\.pages" "$WORK/m-w8.json" \
  "re-profile under a new config never paged the trace"
kinds="$(ls "$FOSM_CACHE_DIR")"
if [ "$kinds" != "profile" ]; then
  echo "disk cache holds more than profiles:" >&2
  echo "$kinds" >&2
  exit 1
fi

# --- leg 5: validation sweep sharded over corpus files --------------
"$FOSM" validate --corpus "$WORK/gzip.fct,$WORK/gcc.fct" --threads 2 --check

echo "corpus-smoke OK"
