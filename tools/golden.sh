#!/bin/sh
# Checks (or, with "update", rewrites) GOLDEN.sha256: one line per pinned
# output, "name  sha256  command". Each command's stdout is hashed; the
# commands find this checkout's ripki-* binaries first on PATH. Lines
# starting with # and blank lines pass through.
set -eu
mode=${1:-check}
bin=$(mktemp -d)
out=$(mktemp)
trap 'rm -rf "$bin" "$out"' EXIT
${GO:-go} build -o "$bin/" ./cmd/...
PATH="$bin:$PATH"
sum() { if command -v sha256sum >/dev/null; then sha256sum; else shasum -a 256; fi | cut -d' ' -f1; }

fail=0
while read -r name want cmd; do
	case "$name" in '' | '#'*)
		echo "$name${want:+ $want}${cmd:+ $cmd}" >>"$out"
		continue
		;;
	esac
	got=$(sh -c "$cmd" | sum)
	echo "$name  $got  $cmd" >>"$out"
	if [ "$got" = "$want" ]; then
		echo "ok    $name"
	else
		echo "MOVED $name: $want -> $got"
		fail=1
	fi
done <GOLDEN.sha256
if [ "$mode" = update ]; then
	cp "$out" GOLDEN.sha256
	exit 0
fi
exit $fail
