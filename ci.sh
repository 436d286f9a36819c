#!/bin/sh
# The single definition of every CI gate. `sh ci.sh` runs all of them in
# order; `sh ci.sh gate ...` runs the named ones. The Makefile targets
# call this script, so `make vmsmoke` and `sh ci.sh vmsmoke` are the same
# check. `test` and `bench` are extra targets outside the default run:
# `race` covers the tests, and `bench` measures rather than gates.
set -eux

GO=${GO:-go}
GATES="fmt vet vettool build race benchsmoke tracesmoke profsmoke vetsmoke
inlinesmoke irsmoke persistsmoke telemetrysmoke analyzesmoke vmsmoke benchmod"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
A="$tmp/bin/atom"

# prog NAME builds the CLIs (once) and $tmp/NAME.x from the MiniC
# source below (once), so every gate shares one build of each program.
prog() {
    if [ ! -d "$tmp/bin" ]; then
        mkdir "$tmp/bin"
        $GO build -o "$tmp/bin/" ./cmd/atom ./cmd/minicc ./cmd/alink ./cmd/aasm
    fi
    [ -f "$tmp/$1.x" ] && return
    case $1 in
    smoke)
        cat > "$tmp/smoke.c" <<'EOF'
#include <stdio.h>
int main() { printf("ok\n"); return 0; }
EOF
        ;;
    long)
        cat > "$tmp/long.c" <<'EOF'
#include <stdio.h>
int main() { long i, s = 0; for (i = 0; i < 5000000; i++) s += i; printf("%ld\n", s); return 0; }
EOF
        ;;
    queens)
        cat > "$tmp/queens.c" <<'EOF'
#include <stdio.h>
long colUsed[16];
long diag1[32];
long diag2[32];
long solutions;
long N;
void place(long row) {
	if (row == N) { solutions++; return; }
	long c;
	for (c = 0; c < N; c++) {
		if (colUsed[c] || diag1[row + c] || diag2[row - c + N]) continue;
		colUsed[c] = 1; diag1[row + c] = 1; diag2[row - c + N] = 1;
		place(row + 1);
		colUsed[c] = 0; diag1[row + c] = 0; diag2[row - c + N] = 0;
	}
}
int main() {
	N = 8;
	place(0);
	printf("queens: n=%d solutions=%d\n", N, solutions);
	return 0;
}
EOF
        ;;
    esac
    "$tmp/bin/minicc" -o "$tmp/$1.o" "$tmp/$1.c"
    "$tmp/bin/alink" -o "$tmp/$1.x" "$tmp/$1.o"
}

gate_fmt() {
    out=$(gofmt -l .)
    if [ -n "$out" ]; then
        echo "gofmt: needs formatting: $out" >&2
        exit 1
    fi
}

gate_vet() { $GO vet ./...; }

# Repo lint: the custom vettool enforces project conventions the stock
# vet cannot — no ATOM_CACHE_DIR reads outside cmd/atom, and the
# *obs.Ctx stage context leading every exported signature — through the
# cmd/go vettool protocol.
gate_vettool() {
    $GO build -o "$w/atomvet" ./cmd/atomvet
    $GO vet -vettool="$w/atomvet" ./...
}

# The windows build compiles the !unix fallbacks (internal/vm/mem_other.go).
gate_build() { $GO build ./... && GOOS=windows GOARCH=amd64 $GO build ./...; }
gate_test() { $GO test ./...; }
gate_race() { $GO test -race ./...; }

# Every benchmark once, no measurement: proves the harness still runs.
gate_benchsmoke() { $GO test -bench=. -benchtime=1x -run='^$' ./...; }

# Real measurements (slow); see EXPERIMENTS.md for recorded numbers.
gate_bench() { $GO test -bench=. -benchmem -run='^$' .; }

# The benchmark harness under bench/ is a separate module, so the root
# `go build ./...` never compiles it; vet and test it on its own so an
# internal API change cannot break it unnoticed.
gate_benchmod() { (cd bench && $GO vet ./... && $GO test ./...); }

# Trace smoke: instrument with tracing on and validate the trace file
# (non-empty, well-formed, covering compile/link/plan/image-build/apply
# with cache attribution).
gate_tracesmoke() {
    prog smoke
    "$A" -t branch -trace "$w/smoke.trace.json" -o "$w/smoke.atom" "$tmp/smoke.x"
    "$A" -verify-trace "$w/smoke.trace.json"
}

# Profile smoke: instrument and run with the sampling profiler, twice;
# the folded profiles must validate and be byte-identical (deterministic
# sampling), and the flat report must carry its header.
gate_profsmoke() {
    prog smoke
    for i in 1 2; do
        "$A" -t branch -run -profile "$w/p$i.folded" -profile-format=folded -profile-period 500 "$tmp/smoke.x" > /dev/null
    done
    "$A" -verify-folded "$w/p1.folded"
    cmp "$w/p1.folded" "$w/p2.folded"
    "$A" -t branch -run -profile "$w/p.flat" -profile-period 500 "$tmp/smoke.x" > /dev/null
    grep -q '# atom prof: period=500' "$w/p.flat"
}

# Vet gate: every built-in tool under -vet, so the IR verifier checks
# the input, the layout PC maps, and each tool's rewritten text.
gate_vetsmoke() {
    prog smoke
    for t in $("$A" -list | awk '{print $1}'); do
        "$A" -vet -t "$t" -o "$w/smoke.$t.atom" "$tmp/smoke.x"
    done
}

# Inline gate: every tool verifies under -vet with the inliner on (the
# default) and off, and the examples produce identical program and
# analysis output either way (the "instrumented:" size line legitimately
# differs, so it is filtered).
gate_inlinesmoke() {
    prog smoke
    for t in $("$A" -list | awk '{print $1}'); do
        "$A" -vet -t "$t" -o "$w/smoke.$t.on.atom" "$tmp/smoke.x"
        "$A" -vet -noinline -t "$t" -o "$w/smoke.$t.off.atom" "$tmp/smoke.x"
    done
    $GO run ./examples/quickstart | grep -v '^instrumented:' > "$w/q.on"
    $GO run ./examples/quickstart -noinline | grep -v '^instrumented:' > "$w/q.off"
    cmp "$w/q.on" "$w/q.off"
    $GO run ./examples/cachesim > "$w/c.on"
    $GO run ./examples/cachesim -noinline > "$w/c.off"
    cmp "$w/c.on" "$w/c.off"
}

# IR gate: serialize the smoke program's lifted IR, then instrument from
# the blob with every tool in a separate process; each output must be
# byte-identical to the in-memory path.
gate_irsmoke() {
    prog smoke
    "$A" -emit-ir "$w/ir" "$tmp/smoke.x"
    for t in $("$A" -list | awk '{print $1}'); do
        "$A" -vet -t "$t" -o "$w/smoke.$t.atom" "$tmp/smoke.x"
        "$A" -vet -t "$t" -ir-in "$w/ir/smoke.ir" -o "$w/smoke.$t.ir.atom"
        cmp "$w/smoke.$t.atom" "$w/smoke.$t.ir.atom"
    done
}

# Persistence gate: two fresh processes share one -cache-dir; the second
# must instrument with zero builds (artifacts decoded from disk) and
# byte-identical output. Then every blob is truncated: a third run must
# quarantine what it reads, rebuild silently, and match again.
gate_persistsmoke() {
    prog smoke
    "$A" -t branch -cache-dir "$w/cache" -o "$w/smoke.cold.atom" "$tmp/smoke.x"
    "$A" -t branch -cache-dir "$w/cache" -stats -o "$w/smoke.warm.atom" "$tmp/smoke.x" > "$w/warm.stats"
    cmp "$w/smoke.cold.atom" "$w/smoke.warm.atom"
    grep -q 'image cache:.*, 0 builds' "$w/warm.stats"
    grep -q 'object cache:.*, 0 builds' "$w/warm.stats"
    grep -q 'ir cache:.*, 0 builds' "$w/warm.stats"
    grep -Eq 'image cache:.* [1-9][0-9]* disk hits' "$w/warm.stats"
    grep -Eq 'ir cache:.* [1-9][0-9]* disk hits' "$w/warm.stats"
    for f in $(find "$w/cache/objects" -type f); do
        head -c 20 "$f" > "$f.trunc" && mv "$f.trunc" "$f"
    done
    "$A" -t branch -cache-dir "$w/cache" -stats -o "$w/smoke.rebuilt.atom" "$tmp/smoke.x" > "$w/rebuild.stats"
    cmp "$w/smoke.cold.atom" "$w/smoke.rebuilt.atom"
    grep -Eq 'disk store:.* [1-9][0-9]* corrupt' "$w/rebuild.stats"
}

# Telemetry gate: a batch brings the debug server up and down cleanly
# and counts its programs (atom.batch.done) in the metrics snapshot.
# Then a long VM run with -debug-addr is scraped mid-flight — /healthz,
# /metrics twice (the second >= the first on every _total, series
# ordering identical), and 100 NDJSON events — with atom's own -scrape,
# so no curl is needed; the run must still exit 0.
gate_telemetrysmoke() {
    prog smoke
    prog long
    for i in 1 2 3; do cp "$tmp/smoke.x" "$w/smoke$i.x"; done
    "$A" -t branch -j 2 -debug-addr 127.0.0.1:0 -metrics "$w/batch.metrics" \
        "$w/smoke1.x" "$w/smoke2.x" "$w/smoke3.x" 2> "$w/batch.err"
    grep -q 'telemetry listening on http://' "$w/batch.err"
    grep -Eq 'atom\.batch\.done +3' "$w/batch.metrics"
    "$A" -t branch -run -debug-addr 127.0.0.1:0 "$tmp/long.x" > /dev/null 2> "$w/tel.err" &
    telpid=$!
    addr=""
    i=0
    while [ $i -lt 200 ]; do
        addr=$(sed -n 's|.*telemetry listening on http://||p' "$w/tel.err")
        [ -n "$addr" ] && break
        i=$((i + 1))
        sleep 0.1
    done
    test -n "$addr"
    "$A" -scrape "http://$addr/healthz" | grep -qx ok
    "$A" -scrape "http://$addr/metrics" > "$w/m1.txt"
    "$A" -scrape "http://$addr/debug/events?n=100" > "$w/ev.txt"
    "$A" -scrape "http://$addr/metrics" > "$w/m2.txt"
    test "$(wc -l < "$w/ev.txt")" -eq 100
    test "$(grep -c '"seq"' "$w/ev.txt")" -eq 100
    grep -q '^atom_store_image_miss_total' "$w/m1.txt"
    awk '!/^#/{print $1}' "$w/m1.txt" > "$w/names1"
    awk '!/^#/{print $1}' "$w/m2.txt" > "$w/names2"
    grep -Fxf "$w/names1" "$w/names2" > "$w/names2.common"
    cmp "$w/names1" "$w/names2.common"
    awk 'NR==FNR { if ($1 ~ /_total/) v[$1]=$2; next }
         ($1 in v) && ($2+0 < v[$1]+0) { print "regressed:", $1, v[$1], "->", $2; bad=1 }
         END { exit bad }' "$w/m1.txt" "$w/m2.txt"
    wait "$telpid"
}

# Analyze gate: every built-in tool image reports clean, byte-identically
# (text and JSON) across two runs; the smoke programs analyze clean as
# applications; and a seeded save-discipline defect — an image that
# clobbers a callee-save register — fails -analyze with the toollint
# diagnostic.
gate_analyzesmoke() {
    prog smoke
    prog long
    for t in $("$A" -list | awk '{print $1}'); do
        for i in 1 2; do
            "$A" -analyze -t "$t" -analyze-json "$w/an$i.$t.json" > "$w/an$i.$t.txt"
        done
        cmp "$w/an1.$t.txt" "$w/an2.$t.txt"
        cmp "$w/an1.$t.json" "$w/an2.$t.json"
        grep -q "tool:$t: clean" "$w/an1.$t.txt"
    done
    "$A" -analyze "$tmp/smoke.x" "$tmp/long.x" > "$w/an.apps.txt"
    grep -q 'smoke.x: clean' "$w/an.apps.txt"
    grep -q 'long.x: clean' "$w/an.apps.txt"
    cat > "$w/defect.s" <<'EOS'
	.text
	.globl main
	.ent main
main:
	clr v0
	ret (ra)
	.end main

	.globl Clobber
	.ent Clobber
Clobber:
	addq s0, 1, s0
	ret (ra)
	.end Clobber
EOS
    "$tmp/bin/aasm" -o "$w/defect.o" "$w/defect.s"
    "$tmp/bin/alink" -o "$w/defect.x" "$w/defect.o"
    if "$A" -analyze -analyze-as tool "$w/defect.x" > "$w/an.defect.txt"; then
        echo "analyze: seeded save-discipline defect not caught" >&2
        exit 1
    fi
    grep -q 'clobbers callee-save register s0' "$w/an.defect.txt"
}

# VM-mode gate: queens (deep recursion, dense conditional branches)
# uninstrumented and under two tools, run with every -vm-mode. Stdout,
# the tool reports, the -stats counter line (icount included) and the
# folded profile must be byte-identical across the dispatch ladder, and
# the -run bench JSON must carry the schema-v7 vm_minst_s rate.
gate_vmsmoke() {
    prog queens
    for cfg in none branch cache; do
        tflag=""
        if [ "$cfg" != none ]; then tflag="-t $cfg"; fi
        for mode in plain predecode superblock; do
            d="$w/vm/$cfg.$mode"
            mkdir -p "$d"
            (cd "$d" && "$A" $tflag -run -vm-mode="$mode" -stats "$tmp/queens.x" > out.txt 2> stats.txt)
            (cd "$d" && "$A" $tflag -run -vm-mode="$mode" -profile p.folded -profile-format=folded -profile-period 997 "$tmp/queens.x" > /dev/null)
        done
        grep -q '^icount=' "$w/vm/$cfg.plain/stats.txt"
        diff -r "$w/vm/$cfg.plain" "$w/vm/$cfg.predecode"
        diff -r "$w/vm/$cfg.plain" "$w/vm/$cfg.superblock"
    done
    grep -q 'queens: n=8 solutions=92' "$w/vm/none.superblock/out.txt"
    "$A" -run -bench-json "$w/run.json" "$tmp/queens.x" > /dev/null
    grep -q '"schema": "atom-run/v7"' "$w/run.json"
    grep -q '"vm_minst_s"' "$w/run.json"
}

if [ $# -eq 0 ]; then
    set -- $GATES
fi
for g in "$@"; do
    case " $(echo $GATES) test bench " in
    *" $g "*) ;;
    *)
        echo "ci.sh: unknown gate $g (gates: $(echo $GATES) test bench)" >&2
        exit 2
        ;;
    esac
    w="$tmp/$g"
    mkdir -p "$w"
    "gate_$g"
done
