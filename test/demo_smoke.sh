#!/bin/sh
# Smoke test of the command-line driver: five ssta_demo runs on c880, each
# with the exit code it must return and, where given, a phrase its output
# must contain.
#
# Usage: demo_smoke.sh <path to ssta_demo.exe>

set -u

demo=$1
status=0

# check <expected exit> <phrase or ""> <ssta_demo arguments...>
check() {
  want=$1
  phrase=$2
  shift 2
  out=$("$demo" -c c880 "$@" 2>&1)
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "ssta_demo $*: exit $got, expected $want"
    echo "$out"
    status=1
  elif [ -n "$phrase" ] && ! printf '%s\n' "$out" | grep -q -- "$phrase"; then
    echo "ssta_demo $*: output lacks \"$phrase\""
    echo "$out"
    status=1
  fi
}

check 0 "" --samples 200
check 0 "" --sampler kle-qmc --compare --samples 200
check 1 non-finite --fault kernel-nan --samples 200
check 1 skipped-samples --strict --fault sampler-nan --on-nonfinite skip --samples 200
# the Cholesky reference needs diagonal jitter: a degraded run
check 1 degraded-fallback --strict --compare --samples 200

exit $status
