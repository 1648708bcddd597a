#!/usr/bin/env bash
# Prints the size of the non-test Go source, raw (wc -l) and code
# (non-blank, non-comment) lines, for the protocol core
# (internal/attrspace + internal/wire + internal/liveness, the retry /
# probe helper the core's sessions run on) and for the whole root module
# (bench/ is its own module and is not counted; internal/testkit is the
# tests' shared fakes — it imports "testing" and only _test files import
# it — and is reported on its own line), then the raw line counts of
# the four documents that describe the system, so their growth is
# tracked beside the code's. Core LOC is tracked the way ns/op is: run
# at the parent commit and at the change.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count <label> <find-root>...
	local label=$1
	shift
	find "$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './internal/testkit/*' -print0 |
		xargs -0 awk -v label="$label" '
			{ raw++ }
			{
				line = $0
				if (inblock) {
					if (!sub(/^.*\*\//, "", line)) next
					inblock = 0
				}
				gsub(/\/\*.*\*\//, "", line)
				if (line ~ /^[ \t]*\/\*/) { inblock = 1; next }
				if (line ~ /^[ \t]*(\/\/.*)?$/) next
				code++
			}
			END { printf "%-34s raw %6d   code %6d\n", label, raw, code }'
}

count "attrspace + wire + liveness" internal/attrspace internal/wire internal/liveness
count "root module" .
count "internal/testkit (test support)" internal/testkit
for doc in README.md DESIGN.md EXPERIMENTS.md ROADMAP.md; do
	printf '%-34s raw %6d\n' "$doc" "$(wc -l <"$doc")"
done

# The API surface, counted the way LOC is: the request verbs of the op
# table (internal/attrspace/ops.go), the exported methods of Client,
# Session and tdp.Handle, and the knobs: the exported fields of
# tdp.Config.
# Client's deprecated spellings in compat.go are counted on their own
# line, so "one spelling per operation" can be read off beside the code.
methods() { # methods <receiver-type> <file>...
	local recv=$1
	shift
	sed -nE "s/^func \([a-z]+ \*?$recv\) ([A-Z][A-Za-z0-9]*)\(.*/\1/p" "$@" | sort
}
surface() { # surface <label> <names...>
	local label=$1
	shift
	printf '%-34s %6d   %s\n' "$label" $# "$*"
}
attrspace_src=$(ls internal/attrspace/*.go | grep -v -e '_test\.go$' -e '/compat\.go$')
surface "op table verbs" $(sed -n '/^var opTable = \[\]opSpec{/,/^}/p' internal/attrspace/ops.go |
	sed -nE 's/.*verb: "([A-Z]+)".*/\1/p')
# shellcheck disable=SC2086 # the file lists are word lists
surface "Client exported methods" $(methods Client $attrspace_src)
surface "Client, compat.go (deprecated)" $(methods Client internal/attrspace/compat.go)
# shellcheck disable=SC2086
surface "Session exported methods" $(methods Session $attrspace_src)
surface "tdp.Handle exported methods" $(methods Handle $(ls ./*.go | grep -v '_test\.go$'))
surface "tdp.Config exported fields" $(sed -n '/^type Config struct {/,/^}/p' tdp.go |
	sed -nE 's/^\t([A-Z][A-Za-z0-9]*) .*/\1/p')
