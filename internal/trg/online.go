package trg

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Builder constructs TRGs incrementally, one activation at a time. This is
// the online profiling mode of Section 4.4 ("instead of processing traces
// we generate the TRGs during program execution using instrumentation
// techniques"): an instrumented program calls Observe on every procedure
// entry and return, and Result can be taken at any point — no trace is ever
// materialized.
//
// Observe only counts: each interleaving is one probe into a flat table
// per TRG, and the graphs are built from the counts when Result is called.
type Builder struct {
	prog    *program.Program
	chunker *program.Chunker
	pop     *popular.Set // nil keeps every procedure

	sel   edgeCounter
	place edgeCounter
	db    *PairDB // nil unless pair tracking enabled

	qSel   *Queue
	qPlace *Queue

	qLenSum int64
	qSteps  int64
	events  int64
	maxQLen int
	// qHist buckets the Q population observed after every activation with
	// telemetry.BucketIndex; a plain array so the per-event cost is one
	// increment, merged into a shard wholesale by whoever wants it.
	qHist [telemetry.NumBuckets]int64
}

// BuildStats summarizes one builder's construction effort: the inputs the
// telemetry layer reports as TRG build counters and the queue-occupancy
// histogram. All values are deterministic functions of the observed trace.
type BuildStats struct {
	// Events is the number of activations observed after popularity
	// filtering.
	Events int64
	// QSteps and QLenSum reproduce the Table 1 average Q population
	// (QLenSum/QSteps); MaxQLen is the high-water mark.
	QSteps  int64
	QLenSum int64
	MaxQLen int
	// QLenHist counts Q populations per telemetry bucket (BucketIndex).
	QLenHist [telemetry.NumBuckets]int64
}

// NewBuilder creates an online TRG builder. Set trackPairs to also build
// the Section 6 pair database (more expensive: O(k²) per activation in the
// Q population k).
func NewBuilder(prog *program.Program, opts Options, trackPairs bool) (*Builder, error) {
	opts.setDefaults()
	if opts.CacheBytes <= 0 || opts.QFactor <= 0 {
		return nil, fmt.Errorf("trg: non-positive cache bytes/Q factor %+v", opts)
	}
	chunker, err := program.NewChunker(prog, opts.ChunkSize)
	if err != nil {
		return nil, err
	}
	bound := opts.CacheBytes * opts.QFactor
	b := &Builder{
		prog:    prog,
		chunker: chunker,
		pop:     opts.Popular,
		sel:     newEdgeCounter(prog.NumProcs()),
		place:   newEdgeCounter(chunker.NumChunks()),
		qSel:    NewQueue(bound),
		qPlace:  NewQueue(bound),
	}
	if trackPairs {
		b.db = NewPairDB()
	}
	return b, nil
}

// Observe feeds one procedure activation into both TRGs (and the pair
// database, when enabled).
func (b *Builder) Observe(e trace.Event) {
	p := e.Proc
	if b.pop != nil && !b.pop.Contains(p) {
		return
	}
	b.events++
	ext := e.ExtentBytes(b.prog)

	// Procedure granularity → TRG_select. Q is charged with the executed
	// extent, the activation's cache footprint.
	id := BlockID(p)
	b.sel.addNode(id)
	b.qSel.Touch(id, ext, func(between BlockID) {
		b.sel.add(id, between)
	})
	qLen := b.qSel.Len()
	b.qLenSum += int64(qLen)
	b.qSteps++
	if qLen > b.maxQLen {
		b.maxQLen = qLen
	}
	b.qHist[telemetry.BucketIndex(int64(qLen))]++

	// Chunk granularity → TRG_place (+ pair database). Chunk i of p holds
	// min(chunkSize, size − i·chunkSize) bytes of the procedure.
	cs := b.chunker.ChunkSize()
	size := b.prog.Size(p)
	n := program.CeilDiv(ext, cs)
	first := BlockID(b.chunker.FirstChunk(p))
	for i := 0; i < n; i++ {
		cid := first + BlockID(i)
		b.place.addNode(cid)
		inc := func(between BlockID) { b.place.add(cid, between) }
		if b.db != nil {
			b.qPlace.TouchPairs(cid, min(cs, size-i*cs), inc,
				func(r, s BlockID) { b.db.Add(cid, r, s) })
		} else {
			b.qPlace.Touch(cid, min(cs, size-i*cs), inc)
		}
	}
}

// Events returns the number of activations observed (after popularity
// filtering).
func (b *Builder) Events() int64 { return b.events }

// Result returns a snapshot of the graphs built so far. Each call builds
// fresh graphs from the interleaving counts, in O(E) for the E edges
// counted so far, so a snapshot is independent of the builder and of
// every other snapshot: later Observe calls do not change it.
func (b *Builder) Result() *Result {
	res := &Result{
		Select:  b.sel.graph(),
		Place:   b.place.graph(),
		Chunker: b.chunker,
	}
	if b.qSteps > 0 {
		res.AvgQProcs = float64(b.qLenSum) / float64(b.qSteps)
	}
	return res
}

// BuildStats returns the construction-effort summary accumulated so far.
func (b *Builder) BuildStats() BuildStats {
	return BuildStats{
		Events:   b.events,
		QSteps:   b.qSteps,
		QLenSum:  b.qLenSum,
		MaxQLen:  b.maxQLen,
		QLenHist: b.qHist,
	}
}

// Pairs returns the pair database, or nil if pair tracking was disabled.
// Unlike Result it is not a snapshot: later Observe calls keep adding to
// it.
func (b *Builder) Pairs() *PairDB { return b.db }

// edgeCounter accumulates one TRG: the nodes in first-seen order and the
// interleaving count of every edge in an open-addressed table keyed by the
// packed (lo, hi) block pair, with linear probing over a power-of-two
// number of slots that doubles at half load. Key 0 marks an empty slot;
// no edge packs to it because lo < hi.
type edgeCounter struct {
	slots []edgeSlot
	shift uint // 64 − log2(len(slots)): hash bits kept by slotOf
	used  int
	nodes []BlockID
	seen  []bool // seen[id]: id is in nodes
}

type edgeSlot struct {
	key uint64
	n   int64
}

// counterSlots is the initial table size, small so that the tiny TRGs of
// exhaustive search stay cheap to build.
const counterSlots = 64

func newEdgeCounter(numIDs int) edgeCounter {
	c := edgeCounter{seen: make([]bool, numIDs)}
	c.resize(counterSlots)
	return c
}

// addNode records block id as a node, even if it never gains an edge.
func (c *edgeCounter) addNode(id BlockID) {
	if !c.seen[id] {
		c.seen[id] = true
		c.nodes = append(c.nodes, id)
	}
}

// add counts one interleaving of blocks u and v, which must differ.
func (c *edgeCounter) add(u, v BlockID) {
	if u > v {
		u, v = v, u
	}
	key := uint64(u)<<32 | uint64(v)
	mask := uint64(len(c.slots) - 1)
	for i := c.slotOf(key); ; i = (i + 1) & mask {
		s := &c.slots[i]
		if s.key == key {
			s.n++
			return
		}
		if s.key == 0 {
			s.key, s.n = key, 1
			c.used++
			if 2*c.used > len(c.slots) {
				c.resize(2 * len(c.slots))
			}
			return
		}
	}
}

// slotOf is the home slot of key: Fibonacci hashing, keeping the top bits
// of the product so the packed lo half mixes into the index.
func (c *edgeCounter) slotOf(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> c.shift
}

// resize rehashes the table into n slots, a power of two.
func (c *edgeCounter) resize(n int) {
	old := c.slots
	c.slots = make([]edgeSlot, n)
	c.shift = 64 - uint(bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := c.slotOf(s.key)
		for c.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = s
	}
}

// graph builds the counted TRG as a fresh graph.
func (c *edgeCounter) graph() *graph.Graph {
	g := graph.New()
	for _, id := range c.nodes {
		g.AddNode(id)
	}
	for _, s := range c.slots {
		if s.key != 0 {
			g.AddEdgeWeight(BlockID(s.key>>32), BlockID(uint32(s.key)), s.n)
		}
	}
	return g
}
