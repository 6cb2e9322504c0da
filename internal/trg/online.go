package trg

import (
	"fmt"

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
// Observe only counts: each TRG numbers its possible nodes densely, and
// each interleaving is one increment in a row of its k×k matrix (or, for
// a TRG of more than 1,448 possible nodes, one probe into a flat table).
// The graphs are built from the counts when Result is called.
type Builder struct {
	prog    *program.Program
	chunker *program.Chunker
	// selIndex[p] is procedure p's index in sel, or none when p is not
	// popular; placeFirst[i] is the place index of the first chunk of the
	// procedure at sel index i, whose chunks have consecutive indices.
	selIndex   []BlockID
	placeFirst []BlockID

	sel   counter
	place counter
	db    *PairDB // nil unless pair tracking enabled

	qSel   *Queue
	qPlace *Queue

	// pending counts the activations since the matrices were last
	// spilled; it never exceeds wrapLimit.
	pending uint64

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
// Q population k). The popular set, if any, must have been selected for
// prog.
func NewBuilder(prog *program.Program, opts Options, trackPairs bool) (*Builder, error) {
	opts.setDefaults()
	if opts.CacheBytes <= 0 || opts.QFactor <= 0 {
		return nil, fmt.Errorf("trg: non-positive cache bytes/Q factor %+v", opts)
	}
	pop := opts.Popular
	if pop != nil && len(pop.Counts) != prog.NumProcs() {
		return nil, fmt.Errorf("trg: the popular set was selected for a program of %d procedures, this one has %d",
			len(pop.Counts), prog.NumProcs())
	}
	chunker, err := program.NewChunker(prog, opts.ChunkSize)
	if err != nil {
		return nil, err
	}
	if trackPairs && chunker.NumChunks() > maxPairBlocks {
		return nil, fmt.Errorf("trg: the pair database keys at most %d chunks, the program has %d", maxPairBlocks, chunker.NumChunks())
	}
	// TRG_select's nodes are the popular procedures and TRG_place's their
	// chunks, both in ascending ID order.
	selIndex := make([]BlockID, prog.NumProcs())
	var procs, chunks, placeFirst []BlockID
	for p := range selIndex {
		id := program.ProcID(p)
		if pop != nil && !pop.Contains(id) {
			selIndex[p] = none
			continue
		}
		selIndex[p] = BlockID(len(procs))
		procs = append(procs, BlockID(id))
		placeFirst = append(placeFirst, BlockID(len(chunks)))
		first := chunker.FirstChunk(id)
		for c := first; c < first+program.ChunkID(chunker.NumProcChunks(id)); c++ {
			chunks = append(chunks, BlockID(c))
		}
	}
	bound := opts.CacheBytes * opts.QFactor
	b := &Builder{
		prog:       prog,
		chunker:    chunker,
		selIndex:   selIndex,
		placeFirst: placeFirst,
		sel:        newCounter(procs, prog.NumProcs()),
		place:      newCounter(chunks, chunker.NumChunks()),
		qSel:       NewQueue(bound),
		qPlace:     NewQueue(bound),
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
	i := b.selIndex[p]
	if i == none {
		return
	}
	if b.pending >= wrapLimit {
		b.sel.spill()
		b.place.spill()
		b.pending = 0
	}
	b.pending++
	b.events++
	ext := e.ExtentBytes(b.prog)

	// Procedure granularity → TRG_select. Q is charged with the executed
	// extent, the activation's cache footprint.
	b.sel.touch(b.qSel, i, ext, nil)
	qLen := b.qSel.Len()
	b.qLenSum += int64(qLen)
	b.qSteps++
	if qLen > b.maxQLen {
		b.maxQLen = qLen
	}
	b.qHist[telemetry.BucketIndex(int64(qLen))]++

	// Chunk granularity → TRG_place (+ pair database). Chunk j of p holds
	// min(chunkSize, size − j·chunkSize) bytes of the procedure.
	cs := b.chunker.ChunkSize()
	size := b.prog.Size(p)
	n := program.CeilDiv(ext, cs)
	first := b.placeFirst[i]
	ids := b.place.ids
	for j := 0; j < n; j++ {
		c := first + BlockID(j)
		var pairs func(r, s BlockID)
		if b.db != nil {
			pairs = func(r, s BlockID) { b.db.Add(ids[c], ids[r], ids[s]) }
		}
		b.place.touch(b.qPlace, c, min(cs, size-j*cs), pairs)
	}
}

// Events returns the number of activations observed (after popularity
// filtering).
func (b *Builder) Events() int64 { return b.events }

// Result returns a snapshot of the graphs built so far. Each call builds
// fresh graphs from the interleaving counts, in O(k²) for a TRG of k
// possible nodes counted in its matrix and in O(E) for one counted in the
// flat table, so a snapshot is independent of the builder and of every
// other snapshot: later Observe calls do not change it.
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
