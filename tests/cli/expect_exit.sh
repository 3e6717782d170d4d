#!/bin/sh
# Runs a command and checks how it fails: the exact exit status, and a
# stderr of exactly one line matching an extended regular expression.
#
#   expect_exit.sh <status> <stderr-regex> <command> [args...]
set -u
want=$1
pattern=$2
shift 2
err=$("$@" 2>&1 >/dev/null)
got=$?
lines=$(printf '%s\n' "$err" | wc -l)
if [ "$got" -ne "$want" ]; then
  echo "expected exit status $want, got $got; stderr:" >&2
  printf '%s\n' "$err" >&2
  exit 1
fi
if [ "$lines" -ne 1 ] || ! printf '%s\n' "$err" | grep -Eq -- "$pattern"; then
  echo "expected one stderr line matching '$pattern', got:" >&2
  printf '%s\n' "$err" >&2
  exit 1
fi
