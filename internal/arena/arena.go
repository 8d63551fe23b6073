// Package arena provides byte-accounted slab allocation for the engine's
// per-query and per-layer dense state: many same-lifetime dense slices are
// carved out of single backing allocations, and every carve is charged to
// the owning layer's arena. The arenas do not own deallocation (slabs die
// with their owner, as Go slices do); what they add at 100k-node scale is
// (1) one backing allocation where a layer used to make dozens, and (2) a
// live answer to "how many bytes does this layer hold", surfaced through
// the engine's mem.* observability gauges.
package arena

import "unsafe"

// Arena is one layer's byte account. It is not goroutine-safe; each layer
// owns its arena and allocates from its own sequential phases.
type Arena struct {
	bytes int64
}

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// Bytes returns the bytes carved from the arena so far.
func (a *Arena) Bytes() int64 { return a.bytes }

// Slice allocates one dense length-n []T charged to the arena.
func Slice[T any](a *Arena, n int) []T {
	var z T
	a.bytes += int64(n) * int64(unsafe.Sizeof(z))
	return make([]T, n)
}

// Carve allocates one slab holding sum(counts) T values and cuts it into
// len(counts) independent slices, each capacity-clamped so appends past a
// cut spill to the heap instead of clobbering a neighbour.
func Carve[T any](a *Arena, counts ...int) [][]T {
	total := 0
	for _, c := range counts {
		total += c
	}
	var z T
	a.bytes += int64(total) * int64(unsafe.Sizeof(z))
	slab := make([]T, total)
	out := make([][]T, len(counts))
	off := 0
	for i, c := range counts {
		out[i] = slab[off : off+c : off+c]
		off += c
	}
	return out
}
