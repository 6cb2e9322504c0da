package trg

import (
	"fmt"

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

	sel   graph.EdgeCounter
	place graph.EdgeCounter
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
	if trackPairs && chunker.NumChunks() > maxPairBlocks {
		return nil, fmt.Errorf("trg: the pair database keys at most %d chunks, the program has %d", maxPairBlocks, chunker.NumChunks())
	}
	bound := opts.CacheBytes * opts.QFactor
	b := &Builder{
		prog:    prog,
		chunker: chunker,
		pop:     opts.Popular,
		sel:     graph.NewEdgeCounter(prog.NumProcs()),
		place:   graph.NewEdgeCounter(chunker.NumChunks()),
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
	b.sel.AddNode(id)
	b.qSel.Touch(id, ext, func(between BlockID) {
		b.sel.Add(id, between)
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
		b.place.AddNode(cid)
		inc := func(between BlockID) { b.place.Add(cid, between) }
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
		Select:  b.sel.Graph(),
		Place:   b.place.Graph(),
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
