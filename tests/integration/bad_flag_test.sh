#!/bin/sh
# A numeric flag whose value does not parse exactly must stop the tool
# with exit code 2, name the flag on stderr, and leave nothing behind: no
# socket, no output file.
#
# Usage: bad_flag_test.sh /path/to/ireduct_tool FLAG COMMAND ARGS...
#
# The command runs in an empty temporary directory, so relative paths in
# ARGS (--socket s.sock, the default --out-dir .) land inside it.
set -u

tool="$1"
flag="$2"
shift 2
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

"$tool" "$@" > /dev/null 2> stderr.txt
rc=$?
cat stderr.txt
if [ "$rc" -ne 2 ]; then
  echo "FAIL: expected exit 2, got $rc" >&2
  exit 1
fi
if ! grep -q -e "--$flag" stderr.txt; then
  echo "FAIL: stderr does not name --$flag" >&2
  exit 1
fi
left="$(ls | grep -v '^stderr.txt$')"
if [ -n "$left" ]; then
  echo "FAIL: left behind: $left" >&2
  exit 1
fi
echo "OK: --$flag refused with exit 2"
