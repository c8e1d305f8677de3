#!/usr/bin/env bash
# Runs one console-script case and checks how it ends:
#
#   expect-exit.sh [-F] CODE PATTERN COMMAND [ARG...]
#
# COMMAND must exit with CODE. Its stderr, printed here, must have a line
# that matches the grep PATTERN (a fixed string with -F; an empty PATTERN
# checks nothing) and must hold no Python traceback.
set -u
grep_flags=-q
if [ "$1" = "-F" ]; then
  grep_flags=-qF
  shift
fi
want=$1 pattern=$2
shift 2
stderr=$(mktemp)
code=0
"$@" 2> "$stderr" || code=$?
cat "$stderr" >&2
if [ "$code" -ne "$want" ]; then
  echo "expected exit $want, got $code: $*" >&2
  exit 1
fi
if [ -n "$pattern" ] && ! grep $grep_flags -e "$pattern" "$stderr"; then
  echo "stderr has no line matching: $pattern" >&2
  exit 1
fi
if grep -q Traceback "$stderr"; then
  echo "stderr holds a traceback" >&2
  exit 1
fi
