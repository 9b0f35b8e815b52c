#!/usr/bin/env bash
# usage: .github/gotest-run.sh '<-run regex>' <package> [go test flags...]
#
# `go test -run X` exits 0 when X selects nothing ("testing: warning: no
# tests to run"), so a renamed test silently drops out of a CI step that
# names it. This wrapper first requires every |-alternative of the regex to
# select at least one test of the package, then runs the selection.
set -euo pipefail
pattern=$1
pkg=$2
shift 2
IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
	listed=$(go test -list "$alt" "$pkg")
	if ! grep -q '^Test' <<<"$listed"; then
		echo "::error::no tests to run: -run alternative '$alt' matches nothing in $pkg" >&2
		exit 1
	fi
done
exec go test "$@" -run "$pattern" "$pkg"
