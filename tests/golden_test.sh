#!/bin/sh
# Runs one example or elisa_report mode from a fresh temporary
# directory (quickstart writes its trace into the working directory)
# and compares its stdout with a committed golden file byte for byte.
#
#   golden_test.sh GOLDEN BINARY [ARG...]
#
# GOLDEN and BINARY may be relative to the directory the script is
# started in. The outputs are simulated-time results, so they are the
# same on every host. After a deliberate change to a simulated result,
# regenerate the golden file from the new binary and commit it with the
# change.
set -u
case $1 in
    /*) golden=$1 ;;
    *) golden=$PWD/$1 ;;
esac
case $2 in
    /*) binary=$2 ;;
    *) binary=$PWD/$2 ;;
esac
shift 2
cmd="$binary${*:+ $*}"

dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1

"$binary" "$@" > out.txt
rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: '$cmd' exited $rc"
    exit 1
fi
if ! cmp out.txt "$golden"; then
    diff "$golden" out.txt | head -20
    echo "FAIL: stdout of '$cmd' differs from $golden"
    exit 1
fi
