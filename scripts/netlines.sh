#!/bin/sh
# Net Go line change per touched package since BASE, split into source
# and test (_test.go) lines: the per-package table every change reports.
#
#   scripts/netlines.sh BASE
#
# BASE is any commit-ish (e.g. HEAD~1, main). The diff runs against the
# working tree; new files count once they are staged (git add -N).
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE" >&2
    exit 2
fi

cd "$(dirname "$0")/.."

git diff --numstat --no-renames "$1" -- '*.go' | awk '
    $1 == "-" { next }  # binary
    {
        file = $3
        pkg = file
        if (sub(/\/[^\/]*$/, "", pkg) == 0) pkg = "."
        net = $1 - $2
        if (file ~ /_test\.go$/) test[pkg] += net; else src[pkg] += net
        seen[pkg] = 1
    }
    END {
        printf "%-28s %8s %8s\n", "package", "source", "tests"
        for (p in seen) printf "%-28s %+8d %+8d\n", p, src[p], test[p] | "sort"
        close("sort")
    }'
