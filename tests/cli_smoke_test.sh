#!/bin/sh
# End-to-end smoke test of the mars_sim CLI: generate -> info -> run,
# both from a persisted database and from a fresh scene.
set -e
BIN_DIR="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BIN_DIR/tools/mars_sim" generate --objects 10 --seed 5 --out "$TMP/city.mars"
"$BIN_DIR/tools/mars_sim" info --db "$TMP/city.mars" | grep -q "objects : 10"
"$BIN_DIR/tools/mars_sim" run --db "$TMP/city.mars" --tour tram --speed 0.5 \
    --frames 40 --client buffered | grep -q "cache hit rate"
"$BIN_DIR/tools/mars_sim" run --objects 10 --seed 5 --tour walk --speed 0.8 \
    --frames 30 --client naive | grep -q "mean response / query"
"$BIN_DIR/tools/mars_sim" run --objects 10 --seed 5 --frames 30 \
    --client streaming --kalman --index naive-point | grep -q "index I/O"
# A degraded link: loss + scheduled outages still terminate and report
# the fault metrics.
"$BIN_DIR/tools/mars_sim" run --objects 10 --seed 5 --frames 40 \
    --client buffered --loss 0.05 --outage-rate 30 --outage-secs 5 \
    | grep -q "outage frames"
# Out-of-core store: the first disk run builds the page file, the rerun
# restores the persisted index from it instead of rebuilding. The page
# file lives in $TMP so the trap cleans it up with everything else.
"$BIN_DIR/tools/mars_sim" run --db "$TMP/city.mars" --frames 30 \
    --client streaming --store disk --pages "$TMP/city.pages" \
    --evict motion | grep -q "restored shards 0/1"
test -s "$TMP/city.pages"
"$BIN_DIR/tools/mars_sim" run --db "$TMP/city.mars" --frames 30 \
    --client streaming --store disk --pages "$TMP/city.pages" \
    | grep -q "restored shards 1/1"
# --store disk without --pages fails loudly.
if "$BIN_DIR/tools/mars_sim" run --db "$TMP/city.mars" --frames 30 \
    --store disk 2>/dev/null; then exit 1; fi
# Bad values, unknown flags and missing files fail loudly, with exit
# code 2 for a bad invocation.
expect_usage_error() {
  status=0
  "$BIN_DIR/tools/mars_sim" "$@" 2>/dev/null || status=$?
  if [ "$status" -ne 2 ]; then
    echo "expected exit 2, got $status: mars_sim $*" >&2
    exit 1
  fi
}
expect_usage_error run --loss 0.9
expect_usage_error run --page-size 64
expect_usage_error run --tour foo
expect_usage_error run --bogus
# Flags whose paths were deleted are unknown now.
expect_usage_error run --handover-blackout 1
expect_usage_error run --handover-dwell 2
expect_usage_error run --weights 1,1,1
if "$BIN_DIR/tools/mars_sim" info --db /nonexistent 2>/dev/null; then exit 1; fi
# A bad number exits 2, and the first line of stderr names its flag.
expect_flag_error() {
  flag="$1"
  shift
  status=0
  "$BIN_DIR/tools/mars_sim" "$@" >/dev/null 2>"$TMP/err" || status=$?
  if [ "$status" -ne 2 ] || ! head -n 1 "$TMP/err" | grep -q -- "^$flag "; then
    echo "expected exit 2 naming $flag, got $status: mars_sim $*" >&2
    head -n 1 "$TMP/err" >&2
    exit 1
  fi
}
# A number is the whole argument, and a real is finite.
expect_flag_error --seed run --objects 5 --frames 3 --clients 2 --seed 5x
expect_flag_error --workers run --objects 5 --frames 3 --clients 2 \
    --workers abc
expect_flag_error --frames run --objects 5 --frames 3.5
expect_flag_error --frames run --objects 5 --frames 99999999999999999999
expect_flag_error --speed run --objects 5 --frames 3 --speed 0.5x
expect_flag_error --speed run --objects 5 --frames 3 --speed inf
expect_flag_error --speed run --objects 5 --frames 3 --speed nan
expect_flag_error --loss run --objects 5 --frames 3 --loss ""
# Thread, shard-file and cell counts are bounded. The large values are
# rejected while parsing; a build without the bounds would start that
# many threads or open that many files, so run these only against a
# binary that has them.
expect_flag_error --workers run --workers 0
expect_flag_error --workers run --workers 100000
expect_flag_error --fanout-workers run --fanout-workers 100000
expect_flag_error --warm-workers run --warm-workers 100000
expect_flag_error --shards run --shards 100000
expect_flag_error --max-shards run --max-shards 100000
expect_flag_error --cells run --cells 100000
# Every integer flag holds only what its field can: no value wraps into
# an int32_t, counts are at least 1 (0 where it means unset), and a page
# size stays one a page file reopens at.
expect_flag_error --frames run --objects 5 --seed 5 --frames 4294967299 \
    --client streaming
expect_flag_error --frames run --objects 5 --frames -3
expect_flag_error --objects run --objects 4294967301 --frames 3
expect_flag_error --objects run --objects -1 --frames 3
expect_flag_error --mb run --mb 4294967297 --frames 3
expect_flag_error --seed run --objects 5 --frames 3 --seed -1
expect_flag_error --clients run --objects 5 --frames 3 --clients 4294967298
expect_flag_error --clients run --objects 5 --frames 3 --clients 0
expect_flag_error --buffer-kb run --objects 5 --frames 3 \
    --buffer-kb 9007199254740992
expect_flag_error --buffer-kb run --objects 5 --frames 3 --buffer-kb 0
expect_flag_error --page-size run --objects 5 --frames 3 \
    --page-size 67108865
expect_flag_error --rebalance-interval run --objects 5 --frames 3 \
    --rebalance-interval 4294967297
expect_flag_error --ladder-steps run --objects 5 --frames 3 \
    --ladder-steps 4294967297
# The usage text is generated from the flag table: every flag is listed.
usage="$("$BIN_DIR/tools/mars_sim" 2>&1 || true)"
for flag in --warm --warm-budget --pool-pages --abr-target; do
  echo "$usage" | grep -q -- "^  $flag " || {
    echo "usage text lacks $flag" >&2
    exit 1
  }
done
echo "cli smoke ok"
