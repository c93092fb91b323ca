#!/bin/sh
# Fails when a simulator library holds an inlined `rep movs` or
# `rep stos`. src/CMakeLists.txt builds the libraries with
# -mstringop-strategy=libcall, so copies and clears of bounded length
# call libc's memcpy/memset; a hit means some code escaped the flag.
#
#   string_ops_test.sh OBJDUMP LIBRARY...
#
# Prints each hit with the function that holds it.
set -u
objdump=$1
shift

dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

status=0
for lib in "$@"; do
    if ! "$objdump" -d "$lib" > "$dir/listing"; then
        echo "FAIL: cannot disassemble $lib"
        exit 1
    fi
    awk '/^[0-9a-f]+ <.*>:$/ { fn = $2 }
         /\trep (movs|stos)/ { print fn; hits++ }
         END { exit (hits > 0) }' "$dir/listing" > "$dir/hits"
    if [ $? -ne 0 ]; then
        echo "FAIL: $(wc -l < "$dir/hits") rep movs/stos in $lib:"
        sort "$dir/hits" | uniq -c
        status=1
    fi
done
exit $status
