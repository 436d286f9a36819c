//go:build !unix

package vm

// mapGuest allocates a guest address space on the Go heap where no
// anonymous mmap is available.
func mapGuest(size int) ([]byte, error) { return make([]byte, size), nil }

func unmapGuest([]byte) {}
