#!/usr/bin/env bash
# Prints where tier-1's wall time goes: the ten slowest top-level tests
# and each package's elapsed time, from one `go test -json -count=1`
# run of the root module (extra arguments go to `go test`, e.g. -race).
# A test that sleeps for 30 s cannot hide behind a green suite.
set -uo pipefail
cd "$(dirname "$0")/.."

start=$(date +%s.%N)
${GO:-go} test -json -count=1 "$@" ./... | awk -v start="$start" '
	function field(key,    re, s) {
		re = "\"" key "\":(\"[^\"]*\"|[0-9.eE+-]+)"
		if (!match($0, re)) return ""
		s = substr($0, RSTART + length(key) + 3, RLENGTH - length(key) - 3)
		gsub(/"/, "", s)
		return s
	}
	/"Action":"(pass|fail)"/ {
		pkg = field("Package"); test = field("Test"); el = field("Elapsed") + 0
		if (/"Action":"fail"/) failed = 1
		if (test == "") pkgs[pkg] = el
		else if (test !~ /\//) tests[pkg " " test] = el
	}
	function top(arr, n, title,    k, best, i, used) {
		print title
		for (i = 0; i < n; i++) {
			best = ""
			for (k in arr) if (!(k in used) && (best == "" || arr[k] > arr[best])) best = k
			if (best == "") break
			used[best] = 1
			printf "  %7.2fs  %s\n", arr[best], best
		}
	}
	END {
		top(tests, 10, "slowest tests:")
		top(pkgs, 10, "slowest packages:")
		"date +%s.%N" | getline now
		printf "wall: %.1fs%s\n", now - start, failed ? "  (FAILURES)" : ""
		exit failed
	}'
