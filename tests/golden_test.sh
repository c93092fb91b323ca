#!/bin/sh
# Runs one example or elisa_report mode from a fresh temporary
# directory (quickstart writes its trace into the working directory)
# and compares its stdout with a committed golden file byte for byte.
#
#   golden_test.sh GOLDEN BINARY [ARG...]
#
# The outputs are simulated-time results, so they are the same on every
# host. After a deliberate change to a simulated result, regenerate the
# golden file from the new binary and commit it with the change.
set -u
golden=$1
shift

dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1

"$@" > out.txt
rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: '$*' exited $rc"
    exit 1
fi
if ! cmp out.txt "$golden"; then
    diff "$golden" out.txt | head -20
    echo "FAIL: stdout of '$*' differs from $golden"
    exit 1
fi
