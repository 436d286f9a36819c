package vm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"atom/internal/aout"
)

// vmState captures everything architecturally observable about a halted
// machine, for differential comparison across dispatch modes.
type vmState struct {
	exit       int
	errText    string
	pc         uint64
	regs       [32]int64
	memDigest  [32]byte
	icount     uint64
	loads      uint64
	stores     uint64
	textStores uint64
	unaligned  uint64
	syscalls   uint64
	stdout     string
	files      string
}

func runMode(t *testing.T, exe *aout.File, cfg Config, mode Mode) (*Machine, vmState) {
	t.Helper()
	cfg.Mode = mode
	m, err := New(exe, cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", mode, err)
	}
	code, rerr := m.Run()
	st := vmState{
		exit:       code,
		pc:         m.PC,
		memDigest:  sha256.Sum256(m.mem),
		icount:     m.Icount,
		loads:      m.Loads,
		stores:     m.Stores,
		textStores: m.TextStores,
		unaligned:  m.Unaligned,
		syscalls:   m.Syscalls,
		stdout:     string(m.Stdout),
	}
	if rerr != nil {
		st.errText = rerr.Error()
	}
	copy(st.regs[:], m.Reg[:])
	for _, p := range m.Paths() {
		st.files += p + "=" + string(m.FSOut[p]) + "\n"
	}
	return m, st
}

// diffModes runs the program under every dispatch mode and requires
// bit-identical architectural outcomes.
func diffModes(t *testing.T, exe *aout.File, cfg Config) vmState {
	t.Helper()
	_, plain := runMode(t, exe, cfg, ModePlain)
	for _, mode := range []Mode{ModePredecode, ModeSuperblock} {
		if _, got := runMode(t, exe, cfg, mode); got != plain {
			t.Errorf("%v diverged from plain:\n plain: %+v\n %v: %+v", mode, plain, mode, got)
		}
	}
	return plain
}

// TestSuperblockMatchesPlain: structured programs covering every block
// shape — loops, calls through bsr/jsr/ret, guards both ways, memory
// traffic, unaligned accesses, PAL services mid-stream, and file I/O.
func TestSuperblockMatchesPlain(t *testing.T) {
	progs := map[string]string{
		"loop-and-calls": `
	.text
	.globl __start
	.ent __start
__start:
	li s0, 300
	clr s1
outer:
	mov s0, a0
	bsr ra, twist
	addq s1, v0, s1
	subq s0, 1, s0
	bgt s0, outer
	and s1, 0xff, a0
	call_pal 0
	.end __start
	.ent twist
twist:
	lda sp, -16(sp)
	stq a0, 0(sp)
	ldq t0, 0(sp)
	s4addq t0, 3, t1
	xor t1, a0, v0
	lda sp, 16(sp)
	ret (ra)
	.end twist
`,
		"mem-and-pal": `
	.text
	.globl __start
	.ent __start
__start:
	la t0, buf
	li t1, 64
fill:
	stb t1, 0(t0)
	addq t0, 1, t0
	subq t1, 1, t1
	bne t1, fill
	ldq t2, 1(t0)       # unaligned
	li a0, 1
	la a1, msg
	li a2, 6
	call_pal 1
	li a0, 24
	call_pal 5          # sbrk mid-stream
	clr a0
	call_pal 0
	.end __start
	.data
msg:	.ascii "hello\n"
	.bss
	.comm buf, 128
`,
		"indirect-jumps": `
	.text
	.globl __start
	.ent __start
__start:
	li s2, 5
	clr s3
spin:
	la pv, helper
	jsr ra, (pv)
	addq s3, v0, s3
	subq s2, 1, s2
	bgt s2, spin
	mov s3, a0
	call_pal 0
	.end __start
	.ent helper
helper:
	cmplt s2, 3, t0
	cmovne t0, 7, t1
	cmoveq t0, 2, t1
	mov t1, v0
	ret (ra)
	.end helper
`,
	}
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			diffModes(t, build(t, src), Config{})
		})
	}
}

// TestSuperblockRandomPrograms is the property test: pseudo-random short
// programs — straight-line arithmetic, forward guards, bounded loops,
// subroutine calls, loads and stores at mixed alignment — must retire
// bit-identical state under all three modes.
func TestSuperblockRandomPrograms(t *testing.T) {
	regs := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	rr := []string{"addq", "subq", "xor", "and", "bis", "bic", "cmpeq", "cmplt", "cmpule", "s4addq", "s8addq", "addl", "subl", "mull"}
	conds := []string{"beq", "bne", "blt", "bge", "ble", "bgt", "blbc", "blbs"}
	loads := []string{"ldq", "ldl", "ldwu", "ldbu"}
	stores := []string{"stq", "stl", "stw", "stb"}

	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			reg := func() string { return regs[r.Intn(len(regs))] }
			var b strings.Builder
			b.WriteString("\t.text\n\t.globl __start\n\t.ent __start\n__start:\n")
			b.WriteString("\tla s5, buf\n")
			for _, rg := range regs {
				fmt.Fprintf(&b, "\tli %s, %d\n", rg, r.Intn(4096)-2048)
			}
			label := 0
			emitOp := func() {
				switch r.Intn(7) {
				case 0, 1, 2: // register-register / literal arithmetic
					op := rr[r.Intn(len(rr))]
					if r.Intn(2) == 0 {
						fmt.Fprintf(&b, "\t%s %s, %d, %s\n", op, reg(), r.Intn(256), reg())
					} else {
						fmt.Fprintf(&b, "\t%s %s, %s, %s\n", op, reg(), reg(), reg())
					}
				case 3:
					fmt.Fprintf(&b, "\tsll %s, %d, %s\n", reg(), r.Intn(20), reg())
				case 4:
					fmt.Fprintf(&b, "\tcmovne %s, %d, %s\n", reg(), r.Intn(100), reg())
				case 5: // load at arbitrary alignment within the buffer
					fmt.Fprintf(&b, "\t%s %s, %d(s5)\n", loads[r.Intn(len(loads))], reg(), r.Intn(200))
				default: // store likewise
					fmt.Fprintf(&b, "\t%s %s, %d(s5)\n", stores[r.Intn(len(stores))], reg(), r.Intn(200))
				}
			}
			for seg := 0; seg < 12; seg++ {
				switch r.Intn(4) {
				case 0: // straight line
					for i := r.Intn(6) + 2; i > 0; i-- {
						emitOp()
					}
				case 1: // forward guard over a few ops
					label++
					fmt.Fprintf(&b, "\t%s %s, fwd%d\n", conds[r.Intn(len(conds))], reg(), label)
					for i := r.Intn(3) + 1; i > 0; i-- {
						emitOp()
					}
					fmt.Fprintf(&b, "fwd%d:\n", label)
				case 2: // bounded loop
					label++
					fmt.Fprintf(&b, "\tli s0, %d\n", r.Intn(40)+2)
					fmt.Fprintf(&b, "loop%d:\n", label)
					for i := r.Intn(4) + 1; i > 0; i-- {
						emitOp()
					}
					fmt.Fprintf(&b, "\tsubq s0, 1, s0\n\tbgt s0, loop%d\n", label)
				default: // call a generated subroutine
					fmt.Fprintf(&b, "\tbsr ra, sub%d\n", r.Intn(2))
				}
			}
			b.WriteString("\txor t0, t1, t2\n\taddq t2, t3, t2\n\tand t2, 0xff, a0\n\tcall_pal 0\n\t.end __start\n")
			for s := 0; s < 2; s++ {
				fmt.Fprintf(&b, "\t.ent sub%d\nsub%d:\n", s, s)
				for i := 0; i < 3; i++ {
					op := rr[r.Intn(len(rr))]
					fmt.Fprintf(&b, "\t%s %s, %d, %s\n", op, reg(), r.Intn(256), reg())
				}
				fmt.Fprintf(&b, "\tret (ra)\n\t.end sub%d\n", s)
			}
			b.WriteString("\t.bss\n\t.comm buf, 256\n")
			diffModes(t, build(t, b.String()), Config{})
		})
	}
}

// TestSuperblockMaxInstrBoundary: superblock dispatch must retire
// exactly up to the instruction budget — same Icount, same PC, and the
// same error text as the plain loop, at and around the exact boundary.
func TestSuperblockMaxInstrBoundary(t *testing.T) {
	exe := build(t, `
	.text
	.globl __start
	.ent __start
__start:
	li t0, 50
loop:
	addq t1, t0, t1
	xor t1, t0, t2
	subq t0, 1, t0
	bne t0, loop
	clr a0
	call_pal 0
	.end __start
`)
	_, full := runMode(t, exe, Config{}, ModePlain)
	if full.errText != "" {
		t.Fatalf("unbounded run failed: %s", full.errText)
	}
	n := full.icount
	budgets := []uint64{1, 2, 3, n / 2, n - 2, n - 1, n, n + 1}
	for _, max := range budgets {
		cfg := Config{MaxInstr: max}
		_, plain := runMode(t, exe, cfg, ModePlain)
		_, sb := runMode(t, exe, cfg, ModeSuperblock)
		if sb != plain {
			t.Errorf("MaxInstr=%d: superblock %+v, plain %+v", max, sb, plain)
		}
		if max >= n && plain.errText != "" {
			t.Errorf("MaxInstr=%d >= natural icount %d but run errored: %s", max, n, plain.errText)
		}
		if max < n && !strings.Contains(plain.errText, fmt.Sprintf("budget %d exhausted", max)) {
			t.Errorf("MaxInstr=%d: error %q lacks exact budget text", max, plain.errText)
		}
	}
}

// TestSuperblockSelfModifyMidRun rewrites an instruction inside an
// already-executed, cached superblock — from inside that very block —
// and requires the patched semantics on the next pass, identically to
// the plain loop.
func TestSuperblockSelfModifyMidRun(t *testing.T) {
	exe := build(t, `
	.text
	.globl __start
	.ent __start
__start:
	li s0, 1
	la t0, patch
	la t1, target
	ldl t2, 0(t0)
again:
target:
	li a0, 13
	beq s0, done
	clr s0
	stl t2, 0(t1)
	br again
done:
	call_pal 0
patch:
	lda a0, 77(zero)
	.end __start
`)
	st := diffModes(t, exe, Config{})
	if st.exit != 77 {
		t.Errorf("exit = %d, want 77 (patched instruction not executed)", st.exit)
	}
	m, _ := runMode(t, exe, Config{}, ModeSuperblock)
	if m.sbInval == 0 {
		t.Error("store into a cached superblock recorded no invalidation")
	}
}

// TestSuperblockUncoveredTextStore is the analysis-data pattern: a loop
// updates a counter that lives in the text segment, inside the span of
// the loop's own block (the block harvests through a br around it) but
// in no block's micro-ops. (The assembler takes no data directives in
// .text; the counter's initial word is call_pal 0, which encodes as 0.) The stores must drop nothing and must not
// leave the running block: after the first iteration no block is
// built, and each iteration is one linked block transition.
func TestSuperblockUncoveredTextStore(t *testing.T) {
	src := func(n int) string {
		return fmt.Sprintf(`
	.text
	.globl __start
	.ent __start
__start:
	la t0, counter
	li s0, %d
loop:
	ldl t1, 0(t0)
	addl t1, 3, t1
	stl t1, 0(t0)
	br skip
counter:
	call_pal 0
skip:
	subq s0, 1, s0
	bgt s0, loop
	ldl a0, 0(t0)
	and a0, 0xff, a0
	call_pal 0
	.end __start
`, n)
	}
	const n = 400
	exe := build(t, src(n))
	st := diffModes(t, exe, Config{})
	if st.exit != (3*n)&0xff || st.errText != "" {
		t.Fatalf("exit %d (%q), want %d", st.exit, st.errText, (3*n)&0xff)
	}
	if st.textStores != n {
		t.Errorf("text stores = %d, want %d", st.textStores, n)
	}
	m, _ := runMode(t, exe, Config{}, ModeSuperblock)
	short, _ := runMode(t, build(t, src(2)), Config{}, ModeSuperblock)
	if m.sbInval != 0 {
		t.Errorf("sbInval = %d, want 0: stores hit no harvested code", m.sbInval)
	}
	if m.sbBuilt != short.sbBuilt {
		t.Errorf("sbBuilt = %d over %d iterations, %d over 2: blocks rebuilt", m.sbBuilt, n, short.sbBuilt)
	}
	if m.sbLinks == 0 {
		t.Error("no trace links installed")
	}
	if m.sbHits > n+2 {
		t.Errorf("sbHits = %d for %d iterations: text stores left the running block", m.sbHits, n)
	}
}

// TestSuperblockBrCoveredTextStore patches a word that blocks reach only
// by harvesting through a br. Coverage follows the harvested micro-ops,
// not contiguity from the entry, so the store must still drop them and
// the next pass must run the patched instruction. The first call to
// poke rewrites target with its own word, so the block poke returns to
// is built before the real patch and would run it stale.
func TestSuperblockBrCoveredTextStore(t *testing.T) {
	exe := build(t, `
	.text
	.globl __start
	.ent __start
__start:
	la t0, patch
	la t1, target
	ldl t2, 0(t1)
	li s0, 3
	clr s1
again:
	br hop
	call_pal 0
hop:
target:
	addq s1, 1, s1
	subq s0, 1, s0
	beq s0, done
	bsr ra, poke
	ldl t2, 0(t0)
	br again
done:
	mov s1, a0
	call_pal 0
patch:
	addq s1, 100, s1
	.end __start
	.ent poke
poke:
	stl t2, 0(t1)
	ret (ra)
	.end poke
`)
	st := diffModes(t, exe, Config{})
	if st.exit != 102 {
		t.Errorf("exit = %d, want 102 (patched instruction not executed)", st.exit)
	}
	m, _ := runMode(t, exe, Config{}, ModeSuperblock)
	if m.sbInval == 0 {
		t.Error("store into br-harvested code recorded no invalidation")
	}
}

// TestSuperblockPatchUnbuildableWord turns an undecodable data word,
// which the superblock cache has marked unbuildable, into an
// instruction and then jumps there. The store must clear the sentinel
// and the stale predecode slot must decode on fetch, in every mode.
func TestSuperblockPatchUnbuildableWord(t *testing.T) {
	exe := build(t, `
	.text
	.globl __start
	.ent __start
__start:
	la t0, patch
	la t1, target
	ldl t2, 0(t0)
	stl t2, 0(t1)
	li a0, 13
	br target
patch:
	lda a0, 77(zero)
target:
	call_pal 0
	call_pal 0
	.end __start
`)
	// Overwrite the placeholder with a word of an unsupported major
	// opcode, as the analysis image's data blobs hold.
	target := exe.Symbols[exe.SymIndex("target")].Value
	binary.LittleEndian.PutUint32(exe.Text[target-exe.TextAddr:], 0x04000000)
	st := diffModes(t, exe, Config{})
	if st.exit != 77 || st.errText != "" {
		t.Fatalf("exit = %d (%q), want 77 (patched instruction not executed)", st.exit, st.errText)
	}
	// Mark the data word unbuildable before the run, as a dispatch to it
	// would, and require the same outcome.
	m, err := New(exe, Config{Mode: ModeSuperblock})
	if err != nil {
		t.Fatal(err)
	}
	if m.lookupSB(target) != nil || m.sbByIdx[(target-exe.TextAddr)/4] != sbNone {
		t.Fatal("data word is not marked unbuildable")
	}
	if code, err := m.Run(); code != 77 || err != nil {
		t.Errorf("with sentinel: exit %d, %v; want 77", code, err)
	}
	// The store cleared the sentinel, so the patched word was harvested.
	if sb := m.sbByIdx[(target-exe.TextAddr)/4]; sb == nil || sb == sbNone {
		t.Error("patched word still single-stepped: sentinel not cleared")
	}
	if m.TextStores != 1 {
		t.Errorf("TextStores = %d, want 1", m.TextStores)
	}
}

// TestSuperblockFaultDiagnostics: faults raised mid-block must carry the
// same pc/icount/cause text in every dispatch mode. The wrap-* rows
// address the top of the 64-bit space, where addr+size overflows: each
// must fault, not panic the host.
func TestSuperblockFaultDiagnostics(t *testing.T) {
	progs := map[string]string{
		"null-load": `
	.text
	.globl __start
	.ent __start
__start:
	li t0, 3
	addq t0, t0, t1
	clr t2
	ldq t3, 8(t2)
	call_pal 0
	.end __start
`,
		"wild-store": `
	.text
	.globl __start
	.ent __start
__start:
	li t0, 1
	sll t0, 40, t1
	stq t0, 0(t1)
	call_pal 0
	.end __start
`,
		"off-text-fall": `
	.text
	.globl __start
	.ent __start
__start:
	clr t9
	ret (t9)
	.end __start
`,
		"wrap-load": `
	.text
	.globl __start
	.ent __start
__start:
	lda t1, -8(zero)
	ldq t3, 0(t1)
	call_pal 0
	.end __start
`,
		"wrap-store": `
	.text
	.globl __start
	.ent __start
__start:
	li t0, 7
	lda t1, -2(zero)
	stl t0, 0(t1)
	call_pal 0
	.end __start
`,
		"wrap-write-pal": `
	.text
	.globl __start
	.ent __start
__start:
	li a0, 1
	lda a1, -16(zero)
	li a2, 32
	call_pal 1
	clr a0
	call_pal 0
	.end __start
`,
		"wrap-fetch": `
	.text
	.globl __start
	.ent __start
__start:
	lda t9, -4(zero)
	ret (t9)
	.end __start
`,
	}
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			exe := build(t, src)
			_, plain := runMode(t, exe, Config{}, ModePlain)
			if plain.errText == "" {
				t.Fatal("expected a fault")
			}
			for _, mode := range []Mode{ModePredecode, ModeSuperblock} {
				if _, got := runMode(t, exe, Config{}, mode); got != plain {
					t.Errorf("%v fault state %+v\nplain fault state %+v", mode, got, plain)
				}
			}
		})
	}
}

// TestSuperblockCounters: the cache reports its own activity.
func TestSuperblockCounters(t *testing.T) {
	exe := build(t, `
	.text
	.globl __start
	.ent __start
__start:
	li t0, 2000
loop:
	addq t1, t0, t1
	subq t0, 1, t0
	bne t0, loop
	clr a0
	call_pal 0
	.end __start
`)
	m, st := runMode(t, exe, Config{}, ModeSuperblock)
	if st.errText != "" {
		t.Fatal(st.errText)
	}
	if m.sbBuilt == 0 {
		t.Error("no superblocks built")
	}
	if m.sbLinks == 0 {
		t.Error("no trace links installed")
	}
	if m.sbHits < 2000 {
		t.Errorf("sbHits = %d, want >= one per loop iteration", m.sbHits)
	}
	tot := Totals()
	if tot.SBBuilt == 0 || tot.SBHits == 0 {
		t.Errorf("process totals missed superblock activity: %+v", tot)
	}
}

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Mode
	}{
		{"plain", ModePlain},
		{"predecode", ModePredecode},
		{"superblock", ModeSuperblock},
		{"", ModeDefault},
	} {
		got, err := ParseMode(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseMode("turbo"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
	if got := ModeDefault.String(); got != "superblock" {
		t.Errorf("ModeDefault.String() = %q", got)
	}
	if m := (&Config{}).dispatchMode(); m != ModeSuperblock {
		t.Errorf("default resolved to %v", m)
	}
}
