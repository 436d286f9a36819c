package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/prof"
	"atom/internal/spec"
	"atom/internal/tools"
	"atom/internal/vm"
)

// expectedSchema versions expected.json.
const expectedSchema = "atom-bench-expected/v2"

// Run parameters shared by the workloads and the expected-output file.
const (
	maxInstr      = 4_000_000_000 // figures.RatioFor's bound
	profilePeriod = 10000
)

// expected is the committed oracle every operation is checked against.
// It is generated with the plain decode-each dispatch loop (vm.ModePlain,
// the reference Step oracle), so a faster dispatch path is checked
// against the slowest, simplest one.
type expected struct {
	Schema        string         `json:"schema"`
	VMMode        string         `json:"vm_mode"`
	ProfilePeriod uint64         `json:"profile_period"`
	MaxInstr      uint64         `json:"max_instr"`
	Programs      []progExpect   `json:"programs"`
	Builds        []buildExpect  `json:"builds"`
	progIdx       map[string]int // name -> Programs index
	buildIdx      map[[2]string]int
}

// progExpect is one uninstrumented suite program. Its instruction count
// is architectural: any dispatch loop must retire exactly that many.
type progExpect struct {
	Name         string `json:"name"`
	Exit         int    `json:"exit"`
	Stdout       string `json:"stdout"`
	Icount       uint64 `json:"icount"`
	FoldedSHA256 string `json:"folded_sha256"`
}

// buildExpect is one (tool, program) instrumented run. It holds what
// the run must print and report, not the executable's bytes or its
// instruction count, which a correct change to code generation moves.
type buildExpect struct {
	Tool          string `json:"tool"`
	Program       string `json:"program"`
	Exit          int    `json:"exit"`
	StdoutSHA256  string `json:"stdout_sha256"`
	ReportsSHA256 string `json:"reports_sha256"`
	// Pristine records whether the instrumented run printed exactly what
	// the uninstrumented one did. It is false only where the application
	// itself depends on memory it never allocated (see README.md).
	Pristine bool `json:"pristine"`
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// reportsDigest digests every file a run wrote (the tool's reports), in
// name order.
func reportsDigest(files map[string][]byte) string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s\x00%d\x00", n, len(files[n]))
		h.Write(files[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func parseExpected(data []byte) (*expected, error) {
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if e.Schema != expectedSchema || e.ProfilePeriod != profilePeriod || e.MaxInstr != maxInstr {
		return nil, fmt.Errorf("expected.json: schema %q period %d max_instr %d do not match this benchmark",
			e.Schema, e.ProfilePeriod, e.MaxInstr)
	}
	e.index()
	for _, p := range spec.Suite() {
		if _, ok := e.progIdx[p.Name]; !ok {
			return nil, fmt.Errorf("expected.json: no entry for program %s", p.Name)
		}
		for _, t := range tools.Names() {
			if _, ok := e.buildIdx[[2]string{t, p.Name}]; !ok {
				return nil, fmt.Errorf("expected.json: no entry for %s on %s", t, p.Name)
			}
		}
	}
	return &e, nil
}

func (e *expected) index() {
	e.progIdx = map[string]int{}
	for i, p := range e.Programs {
		e.progIdx[p.Name] = i
	}
	e.buildIdx = map[[2]string]int{}
	for i, b := range e.Builds {
		e.buildIdx[[2]string{b.Tool, b.Program}] = i
	}
}

func (e *expected) prog(name string) progExpect { return e.Programs[e.progIdx[name]] }

func (e *expected) build(tool, prog string) buildExpect {
	return e.Builds[e.buildIdx[[2]string{tool, prog}]]
}

// runOutcome is what one executable run produced.
type runOutcome struct {
	exit   int
	stdout []byte
	files  map[string][]byte
	icount uint64
	folded []byte // profiled runs only
}

// runPlain runs an executable to completion under the plain dispatch
// loop. profiled attaches the sampling profiler and returns its folded
// output.
func runPlain(exe *aout.File, p spec.Program, heapOff uint64, profiled bool) (runOutcome, error) {
	cfg := vm.Config{Stdin: p.Stdin, FS: p.FS, AnalysisHeapOffset: heapOff, MaxInstr: maxInstr, Mode: vm.ModePlain}
	var pr *prof.Profiler
	if profiled {
		pr = prof.New(prof.Options{Period: profilePeriod, Procs: prof.ProcsFromSymbols(exe.Symbols)})
		pr.Attach(&cfg)
	}
	m, err := vm.New(exe, cfg)
	if err != nil {
		return runOutcome{}, err
	}
	code, err := m.Run()
	if err != nil {
		return runOutcome{}, err
	}
	out := runOutcome{exit: code, stdout: m.Stdout, files: m.FSOut, icount: m.Icount}
	if pr != nil {
		pr.Flush()
		var buf bytes.Buffer
		if err := pr.WriteFolded(&buf); err != nil {
			return runOutcome{}, err
		}
		out.folded = buf.Bytes()
	}
	return out, nil
}

// expectProgram computes one program's expected entry.
func expectProgram(name string) (progExpect, error) {
	p, _ := spec.ByName(name)
	exe, err := spec.Build(name)
	if err != nil {
		return progExpect{}, err
	}
	out, err := runPlain(exe, p, 0, true)
	if err != nil {
		return progExpect{}, fmt.Errorf("%s: %w", name, err)
	}
	return progExpect{
		Name:         name,
		Exit:         out.exit,
		Stdout:       string(out.stdout),
		Icount:       out.icount,
		FoldedSHA256: digest(out.folded),
	}, nil
}

// expectBuild computes one (tool, program) expected entry.
func expectBuild(toolName, progName string, base progExpect) (buildExpect, error) {
	p, _ := spec.ByName(progName)
	tool, _ := tools.ByName(toolName)
	exe, err := spec.Build(progName)
	if err != nil {
		return buildExpect{}, err
	}
	res, err := core.Instrument(exe, tool, core.Options{})
	if err != nil {
		return buildExpect{}, fmt.Errorf("%s on %s: %w", toolName, progName, err)
	}
	out, err := runPlain(res.Exe, p, res.HeapOffset, false)
	if err != nil {
		return buildExpect{}, fmt.Errorf("%s on %s: %w", toolName, progName, err)
	}
	return buildExpect{
		Tool:          toolName,
		Program:       progName,
		Exit:          out.exit,
		StdoutSHA256:  digest(out.stdout),
		ReportsSHA256: reportsDigest(out.files),
		Pristine:      string(out.stdout) == base.Stdout && out.exit == base.Exit,
	}, nil
}

// writeExpected regenerates the whole expected-output file under the
// plain dispatch loop. It takes several minutes.
func writeExpected(path string) error {
	e := expected{
		Schema:        expectedSchema,
		VMMode:        vm.ModePlain.String(),
		ProfilePeriod: profilePeriod,
		MaxInstr:      maxInstr,
	}
	for _, p := range spec.Suite() {
		pe, err := expectProgram(p.Name)
		if err != nil {
			return err
		}
		e.Programs = append(e.Programs, pe)
		for _, t := range tools.Names() {
			be, err := expectBuild(t, p.Name, pe)
			if err != nil {
				return err
			}
			e.Builds = append(e.Builds, be)
		}
		fmt.Fprintf(os.Stderr, "expected: %s done\n", p.Name)
	}
	data, err := json.MarshalIndent(&e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
