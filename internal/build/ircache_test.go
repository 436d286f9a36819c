package build

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"atom/internal/obs"
)

func TestIRKeyDistinct(t *testing.T) {
	var d1, d2 Key
	d2[0] = 1
	base := IRKey(d1, "atom-ir/v1", "om-lifter-1")
	for name, other := range map[string]Key{
		"different executable": IRKey(d2, "atom-ir/v1", "om-lifter-1"),
		"different format":     IRKey(d1, "atom-ir/v2", "om-lifter-1"),
		"different lifter":     IRKey(d1, "atom-ir/v1", "om-lifter-2"),
	} {
		if other == base {
			t.Errorf("%s: key collides with base", name)
		}
	}
	if IRKey(d1, "atom-ir/v1", "om-lifter-1") != base {
		t.Error("identical inputs produce different keys")
	}
}

func TestIRBlobCachesAndDedups(t *testing.T) {
	ResetIRCache(ScopeMemory)
	defer ResetIRCache(ScopeMemory)

	key := NewKey("ir-test").Sum()
	var lifts int
	var mu sync.Mutex
	lift := func() ([]byte, error) {
		mu.Lock()
		lifts++
		mu.Unlock()
		return []byte("blob"), nil
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blob, err := IRBlob(key, lift)
			if err != nil {
				t.Errorf("IRBlob: %v", err)
			}
			if !bytes.Equal(blob, []byte("blob")) {
				t.Errorf("IRBlob = %q", blob)
			}
		}()
	}
	wg.Wait()
	if lifts != 1 {
		t.Fatalf("lift ran %d times for one key, want 1 (singleflight)", lifts)
	}
	s := IRCacheStats()
	if s.Builds != 1 || s.Misses != 1 || s.Hits != 7 {
		t.Fatalf("stats = %+v, want 1 build, 1 miss, 7 hits", s)
	}

	ResetIRCache(ScopeMemory)
	if s := IRCacheStats(); s != (Stats{}) {
		t.Fatalf("stats after reset = %+v, want zeros", s)
	}
}

// TestIRCacheCounters: lookups count under the "store.ir." prefix, so
// -metrics and bench JSON distinguish IR-cache traffic from the
// tool-image cache's "store.image." counters.
func TestIRCacheCounters(t *testing.T) {
	ResetIRCache(ScopeMemory)
	defer ResetIRCache(ScopeMemory)

	reg := obs.NewRegistrySink()
	ctx := obs.New(reg)
	key := NewKey("ir-counter-test").Sum()
	lift := func(*obs.Ctx) ([]byte, error) { return []byte("x"), nil }
	for i := 0; i < 3; i++ {
		if _, err := IRBlobCtx(ctx, key, lift); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]int64{}
	for _, c := range reg.Counters() {
		got[c.Name] = c.Value
	}
	if got["store.ir.miss"] != 1 || got["store.ir.hit"] != 2 {
		t.Fatalf("counters = %v, want store.ir.miss=1 store.ir.hit=2", got)
	}
	if got["store.image.miss"] != 0 || got["store.image.hit"] != 0 {
		t.Fatalf("IR lookups leaked into the image cache counters: %v", got)
	}
	for name := range got {
		if strings.HasPrefix(name, "ircache.") || strings.HasPrefix(name, "cache.") {
			t.Fatalf("legacy alias counter %q emitted; store.<kind>.* is the only name since schema v5", name)
		}
	}
}
