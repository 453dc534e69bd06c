#!/usr/bin/env bash
# Who calls each public function: the library, only the tests, only the
# benchmark's adapter, or nothing.
#
#   api_reach.sh
#
# For every `pub fn` name in crates/*/src and src, counts the call sites in
# code that runs — crates/*/src, src and examples/, with `#[cfg(test)]` items
# and comment lines left out and the name's own `fn` lines not counted — and
# prints the names in four lists: library use, adapter-only (called only from
# benchmark/), test-only (called only from tests/, crates/*/tests/ or a
# `#[cfg(test)]` item) and unused. The count is by name, not by resolved path,
# so a name the library uses anywhere is library use: the script nominates,
# a reader decides. Last it prints `library lines: N`, the non-blank lines of
# that same code: one size for the library, counted one way.
#
# Exits 1 if a name outside the library list is missing from
# scripts/api_reach.allow, or if an entry there names a function that is now
# library use or gone. Each allowlist line is `<name> <reason>`.
set -euo pipefail
cd "$(dirname "$0")/.."
allow=scripts/api_reach.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# <want_test> <file>...: the lines of `#[cfg(test)]` items (want_test = 1), or
# every other line that is not a comment (want_test = 0). An item ends where
# its braces close, or at its `;` if it opens none.
split_tests() {
    local want_test=$1
    shift
    awk -v want_test="$want_test" '
        FNR == 1 { in_test = 0 }
        !in_test && /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1; depth = 0; opened = 0; if (want_test) print; next }
        in_test {
            if (want_test) print
            line = $0
            opens = gsub(/\{/, "", line)
            closes = gsub(/\}/, "", line)
            depth += opens - closes
            if (opens) opened = 1
            if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) in_test = 0
            next
        }
        !want_test && !/^[[:space:]]*\/\// { print }
    ' "$@"
}

# <corpus> -> "<count> <identifier>" for every identifier token in it.
tokens() { grep -ohE '[A-Za-z_][A-Za-z0-9_]*' "$1" | sort | uniq -c; }
# <corpus> -> "<count> <name>" for every `fn <name>` in it.
definitions() { grep -ohE '\bfn [a-z_][a-z0-9_]*' "$1" | sed 's/^fn //' | sort | uniq -c; }

lib_files=$(find crates/*/src src -name '*.rs' | sort)
split_tests 0 $lib_files $(find examples -name '*.rs' | sort) >"$tmp/library"
{
    split_tests 1 $lib_files
    cat $(find tests crates/*/tests -name '*.rs' | sort)
} >"$tmp/tests"
cat $(find benchmark/src -name '*.rs' | sort) >"$tmp/adapter"
split_tests 0 $lib_files | grep -ohE '\bpub fn [a-z_][a-z0-9_]*' | sed 's/^pub fn //' | sort -u >"$tmp/names"

tokens "$tmp/library" >"$tmp/lib_tokens"
definitions "$tmp/library" >"$tmp/lib_defs"
tokens "$tmp/tests" >"$tmp/test_tokens"
tokens "$tmp/adapter" >"$tmp/adapter_tokens"

# One line per name: "<list> <name> <sites>".
awk '
    FILENAME == ARGV[1] { lib[$2] += $1; next }
    FILENAME == ARGV[2] { lib[$2] -= $1; next }
    FILENAME == ARGV[3] { test[$2] = $1; next }
    FILENAME == ARGV[4] { adapter[$2] = $1; next }
    {
        n = $1
        if (lib[n] > 0) print "library", n, lib[n]
        else if (adapter[n] > 0) print "adapter-only", n, adapter[n]
        else if (test[n] > 0) print "test-only", n, test[n]
        else print "unused", n, 0
    }
' "$tmp/lib_tokens" "$tmp/lib_defs" "$tmp/test_tokens" "$tmp/adapter_tokens" "$tmp/names" >"$tmp/reach"

for list in library adapter-only test-only unused; do
    count=$(awk -v l="$list" '$1 == l' "$tmp/reach" | wc -l)
    echo "== $list: $count names (call sites in parentheses)"
    awk -v l="$list" '$1 == l { printf "  %s (%d)\n", $2, $3 }' "$tmp/reach"
done
echo "library lines: $(grep -c '[^[:space:]]' "$tmp/library")"

status=0
while read -r list name _; do
    if [ "$list" != library ] && ! grep -qE "^$name[[:space:]]+[^[:space:]]" "$allow"; then
        echo "NOT ALLOWED  $name is $list and has no reason in $allow"
        status=1
    fi
done <"$tmp/reach"
while read -r name _; do
    case $name in '' | '#'*) continue ;; esac
    list=$(awk -v n="$name" '$2 == n { print $1 }' "$tmp/reach")
    if [ -z "$list" ] || [ "$list" = library ]; then
        echo "STALE        $name in $allow is ${list:-no pub fn}: remove the entry"
        status=1
    fi
done <"$allow"
exit $status
