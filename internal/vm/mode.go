package vm

import "fmt"

// Mode selects the machine's dispatch strategy. The three modes are an
// ablation ladder — each layer keeps architectural state (registers,
// memory, every statistic, Stdout/FSOut) bit-identical to the one below
// it and differs only in host-side speed:
//
//   - ModePlain: decode every retired instruction from memory, the
//     pre-cache behavior. Baseline.
//   - ModePredecode: fetch decoded instructions from the per-word text
//     predecode cache.
//   - ModeSuperblock: additionally harvest straight-line decoded runs
//     into superblocks — pre-resolved micro-op sequences executed whole
//     per dispatch, with taken exits linked directly to successor
//     blocks (see superblock.go).
//
// The zero value selects ModeSuperblock, so existing callers get the
// fastest dispatch without opting in.
type Mode int

const (
	// ModeDefault resolves to ModeSuperblock.
	ModeDefault Mode = iota
	ModePlain
	ModePredecode
	ModeSuperblock
)

// ParseMode resolves a -vm-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "default":
		return ModeDefault, nil
	case "plain":
		return ModePlain, nil
	case "predecode":
		return ModePredecode, nil
	case "superblock":
		return ModeSuperblock, nil
	}
	return 0, fmt.Errorf("vm: unknown mode %q (plain, predecode, or superblock)", s)
}

func (m Mode) String() string {
	switch m {
	case ModePlain:
		return "plain"
	case ModePredecode:
		return "predecode"
	case ModeDefault, ModeSuperblock:
		return "superblock"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// dispatchMode resolves the configured mode: the zero value selects
// superblock dispatch.
func (c *Config) dispatchMode() Mode {
	if c.Mode == ModeDefault {
		return ModeSuperblock
	}
	return c.Mode
}
