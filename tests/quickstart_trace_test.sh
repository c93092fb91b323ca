#!/bin/sh
# Runs quickstart twice, each in its own temporary directory with an
# explicit trace path, and compares the two Chrome trace files byte for
# byte: the trace is simulated time, so two runs write the same bytes.
#
#   quickstart_trace_test.sh QUICKSTART
set -u
case $1 in
    /*) quickstart=$1 ;;
    *) quickstart=$PWD/$1 ;;
esac

a=$(mktemp -d) || exit 1
b=$(mktemp -d) || { rm -rf "$a"; exit 1; }
trap 'rm -rf "$a" "$b"' EXIT

for dir in "$a" "$b"; do
    if ! (cd "$dir" && "$quickstart" "$dir/trace.json" > stdout.txt); then
        echo "FAIL: '$quickstart' exited non-zero in $dir"
        exit 1
    fi
done
if [ ! -s "$a/trace.json" ]; then
    echo "FAIL: '$quickstart' wrote no trace"
    exit 1
fi
if ! cmp "$a/trace.json" "$b/trace.json"; then
    echo "FAIL: two quickstart runs wrote different traces"
    exit 1
fi
