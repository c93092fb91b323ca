#!/bin/sh
# Drives the elisa_bench CLI from a fresh temporary directory, so the
# committed bench_results/ stays untouched and runs under ctest -j do
# not share files.
#
#   elisa_bench_test.sh MODE ELISA_BENCH SOURCE_DIR [ID]
#
# MODE is one of:
#   usage          no argument, an unknown id or a second argument exits
#                  2 with a usage line that lists every id, and writes
#                  nothing
#   csvs           T4, A1 and P1 reproduce the committed CSVs byte for
#                  byte, and P1 its committed report
#   figure         entry ID writes at least one CSV, and each matches
#                  the committed file byte for byte; so does every
#                  report it writes
#   report         entry ID writes at least one report, and each
#                  matches its committed baseline
#   write_failure  an entry that cannot write under bench_results/
#                  exits non-zero, on the CSV path (T4) and the
#                  BENCH_*.json path (T3)
#
# A report (bench_results/BENCH_*.json) matches its baseline in
# bench_results/baselines/ when every metric whose key does not start
# with wall_ has the same printed value. wall_ metrics come from the
# host's clock; only bench_check gates them, outside ctest.
set -u
mode=$1
bench=$2
src=$3

fail() {
    echo "FAIL: $*"
    exit 1
}

# cmp every CSV written under bench_results/ with the committed file;
# count is how many were compared.
compare_csvs() {
    count=0
    for f in bench_results/*.csv; do
        [ -e "$f" ] || break
        cmp "$f" "$src/$f" || fail "$f differs from the committed file"
        count=$((count + 1))
    done
}

# The "key value" lines of report $1's metrics, wall_ keys left out.
report_metrics() {
    sed -n 's/^    "\([^"]*\)": \([^,]*\),*$/\1 \2/p' "$1" | grep -v '^wall_'
}

# Compare every report written under bench_results/ with its committed
# baseline; reports is how many were compared.
compare_reports() {
    reports=0
    for f in bench_results/BENCH_*.json; do
        [ -e "$f" ] || break
        base="$src/bench_results/baselines/${f#bench_results/}"
        [ -e "$base" ] || fail "$f has no committed baseline"
        report_metrics "$base" > want.txt
        report_metrics "$f" > got.txt
        [ -s want.txt ] || fail "$base holds no non-wall_ metric"
        if ! cmp -s want.txt got.txt; then
            diff want.txt got.txt
            fail "$f differs from its baseline"
        fi
        reports=$((reports + 1))
    done
}

dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1

case $mode in
usage)
    ids="T2 T3 T4 F1 F2 F3 F4 F5 F6 F7 F8 F9 A1 A2 A3 A4 C1 P1 O1 S1"
    for args in "" "X9" "T2 T3" "--all T2" "--help"; do
        # $args is split on purpose: "" passes no argument at all.
        "$bench" $args > out.txt 2> err.txt
        rc=$?
        [ "$rc" -eq 2 ] || fail "'elisa_bench $args' exited $rc, want 2"
        grep -q "ID one of $ids\$" err.txt ||
            fail "usage line does not list every id: $(cat err.txt)"
    done
    [ ! -e bench_results ] || fail "a usage error wrote bench_results/"
    ;;
csvs)
    for id in T4 A1 P1; do
        "$bench" "$id" > out.txt 2>&1 || fail "elisa_bench $id exited $?"
    done
    compare_csvs
    [ "$count" -eq 6 ] || fail "wrote $count CSVs, want 6"
    compare_reports
    [ "$reports" -eq 1 ] || fail "wrote $reports reports, want 1"
    ;;
figure)
    id=$4
    "$bench" "$id" > out.txt 2>&1 || fail "elisa_bench $id exited $?"
    compare_csvs
    [ "$count" -ge 1 ] || fail "elisa_bench $id wrote no CSV"
    compare_reports
    ;;
report)
    id=$4
    "$bench" "$id" > out.txt 2>&1 || fail "elisa_bench $id exited $?"
    compare_reports
    [ "$reports" -ge 1 ] || fail "elisa_bench $id wrote no report"
    ;;
write_failure)
    : > bench_results # a regular file where the directory should be
    for id in T4 T3; do
        if "$bench" "$id" > out.txt 2>&1; then
            fail "elisa_bench $id exited 0 without writing its output"
        fi
        grep -q "could not open bench_results/" out.txt ||
            fail "elisa_bench $id did not name the file: $(cat out.txt)"
    done
    ;;
*)
    fail "unknown mode '$mode'"
    ;;
esac
