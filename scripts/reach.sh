#!/usr/bin/env bash
# Prints which Go coverage statements each consumer of the simulator reaches
# and no other consumer does, then the functions that no consumer reaches.
# Run it from the repository root (make reach). A consumer is:
#
#   exp:<name>  one registered experiment, alone: repro -j 1 <name>
#   flags       repro runs that set every one of its flags, and the usage
#               text (-h)
#   examples    every program under examples/
#   simbench    bench/'s simbench -workload all, untraced and traced
#   benchmarks  the root benchmarks at -benchtime 1x
#
# The binaries are built with -cover, so each run leaves its counters in its
# own GOCOVERDIR; go tool covdata turns them into text profiles, and awk
# compares the profiles block by block. Statements of the consumers' own
# main packages (examples/, bench/) are not counted; cmd/repro's are.
# Everything, binaries and outputs alike, goes to a temporary directory
# that is removed on exit.
set -euo pipefail

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/prof" "$tmp/out"

pkgs=$($GO list ./internal/... ./cmd/repro | grep -v -e /analysis -e /simtest | paste -sd, -)
mains=$($GO list ./examples/... | paste -sd, -)

# cover runs one command with its counters in a fresh directory and
# appends them, as a text profile, to consumer $1's profile.
n=0
cover() {
	local consumer=$1
	shift
	n=$((n + 1))
	mkdir -p "$tmp/cov/$n"
	GOCOVERDIR="$tmp/cov/$n" "$@" > "$tmp/out/$n.txt" 2>&1 || { cat "$tmp/out/$n.txt" >&2; exit 1; }
	$GO tool covdata textfmt -i="$tmp/cov/$n" -o "$tmp/cov/$n.out"
	tail -n +2 "$tmp/cov/$n.out" >> "$tmp/prof/$consumer"
}

# quiet runs a build or test step and shows its output only if it fails:
# -coverpkg names packages that some binaries do not link, and go build
# warns about each of those.
quiet() {
	"$@" > "$tmp/out/quiet.txt" 2>&1 || { cat "$tmp/out/quiet.txt" >&2; exit 1; }
}
echo "reach: building with -cover" >&2
quiet $GO build -cover -coverpkg="$pkgs" -o "$tmp/repro" ./cmd/repro
for dir in examples/*/; do
	quiet $GO build -cover -coverpkg="$pkgs,$mains" -o "$tmp/example-$(basename "$dir")" "./$dir"
done
# A main package must be in -coverpkg, or its binary writes no counters.
(cd bench && quiet $GO build -cover -coverpkg="$pkgs,repro/bench/simbench" -o "$tmp/simbench" ./simbench)

repro=$tmp/repro
names=$("$repro" -h 2>&1 | awk '/^experiments:/ { on = 1; next } /^flags:/ { on = 0 } on && NF { print $1 }')
for name in $names; do
	echo "reach: exp:$name" >&2
	cover "exp:$name" "$repro" -j 1 "$name"
done

echo "reach: flags" >&2
cover flags "$repro" -h
cover flags "$repro" -trace "$tmp/out/t.json" table8
cover flags "$repro" -trace "$tmp/out/t.txt" table8 feedback coupling
cover flags "$repro" -profile-vt "$tmp/out/t.prof" table8
cover flags "$repro" -ledger "$tmp/out/t.ledger" table8
cover flags "$repro" -profile-vt "$tmp/out/f.folded" -ledger "$tmp/out/f.json" feedback
cover flags "$repro" -trace "$tmp/out/c.json" coupling
cover flags "$repro" -ledger "$tmp/out/c.ledger.json" coupling
cover flags "$repro" -lock spin table4 table6
cover flags "$repro" -cities 7 -searchers 3 -csvdir "$tmp/out" table1
cover flags "$repro" -trace "$tmp/out/r.json" -trace-reports -trace-capacity 5000 table8 feedback
cover flags "$repro" -procs 4 -iters 4 -cpuprofile "$tmp/out/cpu.prof" -memprofile "$tmp/out/mem.prof" table4 table8
cover flags "$repro" -seed 2 -steps 500 -cities 7 -searchers 3 table3
cover flags "$repro" -uniform -cities 7 -searchers 3 table1
# Two small TSPLIB instances, one per format the -file parser reads.
printf 'NAME: square6\nTYPE: TSP\nDIMENSION: 6\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 10 0\n3 20 5\n4 10 10\n5 0 10\n6 5 5\nEOF\n' > "$tmp/out/euc.tsp"
printf 'NAME: m4\nTYPE: TSP\nDIMENSION: 4\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 3 4 2\n3 0 5 6\n4 5 0 7\n2 6 7 0\nEOF\n' > "$tmp/out/full.tsp"
cover flags "$repro" -file "$tmp/out/euc.tsp" -searchers 3 table1
cover flags "$repro" -file "$tmp/out/full.tsp" -searchers 3 table2

for dir in examples/*/; do
	echo "reach: examples/$(basename "$dir")" >&2
	cover examples "$tmp/example-$(basename "$dir")"
done

echo "reach: simbench" >&2
for traced in 0 1; do
	cover simbench "$tmp/simbench" -workload all -seconds 0.2 -trace "$traced" -tracedir "$tmp/out/trace"
done

echo "reach: benchmarks" >&2
quiet $GO test -run '^$' -bench . -benchtime 1x -coverpkg="$pkgs" -coverprofile="$tmp/cov/bench.out" .
tail -n +2 "$tmp/cov/bench.out" >> "$tmp/prof/benchmarks"

# Per block, the consumers that reached it; then the table: per consumer,
# the statements that it alone reaches and the files they sit in, most
# first.
(cd "$tmp/prof" && awk '
	$1 ~ /^repro\/(examples|bench)\// { next }
	{
		consumers[FILENAME]
		stmts[$1] = $2
		if ($3 > 0 && !((FILENAME, $1) in seen)) { seen[FILENAME, $1]; by[$1] = FILENAME; count[$1]++ }
	}
	END {
		for (b in stmts) {
			total += stmts[b]
			if (count[b] > 0) reached += stmts[b]
			if (count[b] != 1) continue
			c = by[b]
			uniq[c] += stmts[b]
			f = b; sub(/:.*/, "", f); sub(/.*\//, "", f)
			if (!((c, f) in perfile)) files[c] = files[c] " " f
			perfile[c, f] += stmts[b]
		}
		printf "%d of %d statements reached by some consumer\n\n", reached, total
		printf "%-18s %7s  %s\n", "consumer", "unique", "files holding them"
		for (c in consumers) {
			n = split(files[c], fs, " ")
			for (i = 1; i <= n; i++)
				for (k = i + 1; k <= n; k++)
					if (perfile[c, fs[k]] > perfile[c, fs[i]]) { t = fs[i]; fs[i] = fs[k]; fs[k] = t }
			line = ""
			for (i = 1; i <= n; i++) line = line sprintf(" %s %d", fs[i], perfile[c, fs[i]])
			printf "%-18s %7d %s\n", c, uniq[c], line
		}
	}' * | awk 'NR <= 3 { print; next } { print | "sort -k2,2nr -k1,1" }')

# The union of every consumer's profile: a block is reached if any run
# reached it.
awk '$1 !~ /^repro\/(examples|bench)\// { n[$1] = $2; if ($3 > 0) r[$1] } END { print "mode: set"; for (b in n) print b, n[b], (b in r) ? 1 : 0 }' \
	"$tmp"/prof/* > "$tmp/union.out"
echo
echo "functions no consumer reaches:"
$GO tool cover -func="$tmp/union.out" | awk '$NF == "0.0%" { print "  " $1, $2 }'
