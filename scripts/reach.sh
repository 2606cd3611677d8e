#!/bin/sh
# reach.sh — print each non-test func under internal/ that no binary built
# from cmd/, examples/ or bench links. Inlining is off so that a linked
# function keeps its symbol. Both the host build and the -tags purego
# build count: the declared files are what `go list` compiles for either,
# and the linked symbols are the union of both builds' binaries, so the
# generic field arithmetic that non-amd64 builds run is neither missed
# nor reported. Files no such build compiles are not read. Advisory:
# test oracles, fault injectors and test seams are expected in the
# output. Run: make reach
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
i=0
for tags in "" purego; do
	for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/... ./bench); do
		i=$((i + 1))
		go build -tags "$tags" -gcflags=all=-l -o "$tmp/bin$i" "$pkg"
		go tool nm "$tmp/bin$i" >>"$tmp/nm"
	done
	go list -tags "$tags" -f '{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... >>"$tmp/files"
done
mod=$(go list -m)
# Declared funcs as the linker names them: pkg.F, pkg.T.M, pkg.(*T).M.
for f in $(sed "s|^$(pwd)/||" "$tmp/files" | sort -u); do
	sed -nE -e 's/^func \(([A-Za-z0-9_]+ )?\*([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/(*\2).\4/p' \
		-e 's/^func \(([A-Za-z0-9_]+ )?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\2.\4/p' \
		-e 's/^func ([A-Za-z0-9_]+).*/\1/p' "$f" |
		sed "s|^|$f $mod/$(dirname "$f").|"
done >"$tmp/declared"
# Generic instantiations read Trie[go.shape.int]; match them as Trie.
# Assembly functions read feMul.abi0; match them as feMul.
sed -nE 's/^ *[0-9a-f]+ [tT] //p' "$tmp/nm" | sed -E ':a; s/\[[^][]*\]//g; ta; s/\.abi0$//' |
	awk 'NR == FNR { linked[$0] = 1; next } !($2 in linked) && $2 !~ /\.init$/ { print $1 ": " $2 }' - "$tmp/declared"
