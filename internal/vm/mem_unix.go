//go:build unix

package vm

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
)

// gcEveryMaps bounds the mappings made between two collections. The GC
// pacer sees only the Go heap, which a machine barely grows, and a
// dropped machine's mapping, with every page its guest touched, is
// released only by a finalizer after a collection. Without a bound, a
// loop that makes and drops machines whose guests touch tens of MiB
// holds dozens of such page sets until the next natural cycle.
const gcEveryMaps = 4

var gcPace struct {
	sync.Mutex
	cycle uint64 // GC cycle count when maps was last reset
	maps  int    // mappings made since
}

// mapGuest maps a guest address space as anonymous private memory. The
// kernel zero-fills each page on first touch, as OSF/1 does for a
// process, so a machine costs the pages its program uses; the Go GC
// neither clears nor scans the mapping. Once gcEveryMaps mappings have
// been made with no collection in between, it forces one first.
func mapGuest(size int) ([]byte, error) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	gcPace.Lock()
	if c := s[0].Value.Uint64(); c != gcPace.cycle {
		gcPace.cycle, gcPace.maps = c, 0
	}
	gcPace.maps++
	due := gcPace.maps > gcEveryMaps
	gcPace.Unlock()
	if due {
		runtime.GC()
	}
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapGuest runs in a finalizer, where no caller could act on an error;
// Munmap fails only for a slice that is not a live mapping, and New
// registers each mapping exactly once.
func unmapGuest(mem []byte) { _ = syscall.Munmap(mem) }
