package ris

import (
	"fmt"
	"math"
	"math/rand/v2"

	"credist/internal/graph"
	"credist/internal/par"
)

// DefaultStripe is the fixed stripe width of parallel collection: stripe i
// always owns samples [i*DefaultStripe, (i+1)*DefaultStripe) and draws
// them from its own PCG stream, so a collection's contents depend only on
// (source, seed, count) — never on the worker count or on how the
// collection was grown to its size.
const DefaultStripe = 256

// pcgStreamBase offsets the per-stripe PCG stream ids (stripe i draws from
// stream pcgStreamBase+i). The constant is the stream id the old serial
// collector used for its single stream.
const pcgStreamBase = 0x415a

// CollectOptions configures parallel collection.
type CollectOptions struct {
	// Workers bounds the stripe fan-out. 0 means GOMAXPROCS. The worker
	// count affects wall time only; the collected samples are
	// bit-identical at any value.
	Workers int
}

// Collect draws count RR sets deterministically from the seed using the
// classic live-edge sampler. It is the historical entry point, now a thin
// wrapper over the striped parallel collector.
func Collect(s *Sampler, count int, seed uint64) *Collection {
	return CollectParallel(CascadeSource(s.w, s.model), count, seed, CollectOptions{})
}

// CollectParallel draws count RR samples from the source, fanning stripes
// over the workers. The result is bit-identical at any worker count and
// extends deterministically: Extend to a larger count yields exactly the
// collection CollectParallel would have drawn at that count directly.
func CollectParallel(src Source, count int, seed uint64, opts CollectOptions) *Collection {
	offs, nodes := fillStripes(src, seed, []int32{0}, nil, count, opts.Workers)
	return newCollection(src.NumNodes(), src.Roots(), seed, offs, nodes)
}

// Extend returns a new collection grown to count samples, reusing every
// already-drawn sample: only stripes past the current length are drawn
// (plus a replay of the final partial stripe's prefix, whose samples are
// discarded — per-stripe streams make the replay bit-identical). The
// grown collection gets its own arena and index; the receiver is never
// written, so it stays valid for queries still reading it and may be
// extended again. The source and seed must be the ones the collection was
// drawn with, or the determinism contract — grown and directly-drawn
// collections agree bit for bit — is silently lost.
func (c *Collection) Extend(src Source, count int, opts CollectOptions) *Collection {
	if count <= c.NumSets() {
		return c
	}
	offs, nodes := fillStripes(src, c.seed, c.offs, c.nodes, count, opts.Workers)
	return newCollection(c.n, c.roots, c.seed, offs, nodes)
}

// stripeSpan locates one drawn stripe's nodes inside its worker's buffer.
type stripeSpan struct {
	worker, lo, hi int
}

// fillStripes returns a fresh arena of count samples whose first
// len(offs)-1 samples are copied from (offs, nodes) and the rest drawn,
// one fresh PCG stream and one fresh walker per stripe. Stripes fan over
// par.For; each worker appends its stripes' samples to its own buffer,
// and the buffers are then concatenated in stripe order, so scheduling
// cannot reorder anything. The arena is
// allocated once at its exact size; the input arrays are only read.
func fillStripes(src Source, seed uint64, offs []int32, nodes []graph.NodeID, count, workers int) ([]int32, []graph.NodeID) {
	from := len(offs) - 1
	if count <= from {
		return offs, nodes
	}
	first, last := from/DefaultStripe, (count-1)/DefaultStripe
	stripes := last - first + 1
	goffs := make([]int32, count+1) // new samples first hold their lengths
	copy(goffs, offs)
	spans := make([]stripeSpan, stripes)
	bufs := make([][]graph.NodeID, par.Workers(stripes, workers))
	par.For(stripes, workers, func(w, i int) {
		stripe := first + i
		rng := rand.New(rand.NewPCG(seed, pcgStreamBase+uint64(stripe)))
		walker := src.NewWalker()
		buf := bufs[w]
		lo := stripe * DefaultStripe
		hi := min(lo+DefaultStripe, count)
		// The first stripe may start mid-stripe when extending: its prefix
		// is replayed into scratch past the buffer's end to advance the
		// stream, and dropped; those samples are already in the arena.
		for j := lo; j < from; j++ {
			buf = walker(rng, buf)[:len(buf)]
		}
		start := len(buf)
		for j := max(lo, from); j < hi; j++ {
			end := len(buf)
			buf = walker(rng, buf)
			goffs[j+1] = int32(len(buf) - end)
		}
		spans[i] = stripeSpan{worker: w, lo: start, hi: len(buf)}
		bufs[w] = buf
	})

	total := int64(offs[from])
	for _, sp := range spans {
		total += int64(sp.hi - sp.lo)
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("ris: %d sample entries exceed the arena's int32 offsets", total))
	}
	grown := make([]graph.NodeID, 0, total)
	grown = append(grown, nodes[:offs[from]]...)
	for _, sp := range spans {
		grown = append(grown, bufs[sp.worker][sp.lo:sp.hi]...)
	}
	for j := from; j < count; j++ {
		goffs[j+1] += goffs[j]
	}
	return goffs, grown
}
