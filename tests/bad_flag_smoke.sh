#!/usr/bin/env bash
# Malformed numeric flag smoke for defender_cli and defender_serve.
#
#   bad_flag_smoke.sh <flag> <binary> [args...]
#
# Runs the binary with the given arguments (one of them a malformed value
# for <flag>) and requires a non-zero exit whose message names <flag>,
# before the binary solves or listens. A binary that accepts the value and
# starts serving instead is killed by the timeout, and the case fails.
set -u

flag=$1
shift
out=$(timeout 10 "$@" 2>&1 </dev/null)
rc=$?
if [ "$rc" -eq 0 ] || [ "$rc" -ge 124 ]; then
  echo "FAIL: '$*' exited with $rc; want an error naming $flag" >&2
  exit 1
fi
if ! grep -qF -- "$flag" <<<"$out"; then
  echo "FAIL: the error does not name $flag: $out" >&2
  exit 1
fi
echo "ok: $flag rejected with exit $rc"
