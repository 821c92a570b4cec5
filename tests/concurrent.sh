#!/bin/sh
# Run two processes of one test binary at once and pass only if both
# pass: the check that concurrent test processes keep their scratch
# files apart. Each process's output is printed when it fails.
#
#   concurrent.sh BINARY [ARGS...]
set -u
log=$(mktemp -d)
trap 'rm -rf "$log"' EXIT
"$@" > "$log/a" 2>&1 &
a=$!
"$@" > "$log/b" 2>&1 &
b=$!
status=0
wait "$a" || { status=1; echo "first process failed:"; cat "$log/a"; }
wait "$b" || { status=1; echo "second process failed:"; cat "$log/b"; }
exit "$status"
