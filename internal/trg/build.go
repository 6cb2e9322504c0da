package trg

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
)

// Options configures TRG construction.
type Options struct {
	// CacheBytes is the target instruction-cache capacity; the Q bound is
	// QFactor × CacheBytes. Default 8192.
	CacheBytes int
	// QFactor scales the Q bound; the paper found 2× the cache size to
	// work well (Section 3). Default 2.
	QFactor int
	// ChunkSize is the TRG_place granularity in bytes. Default 256
	// (Section 4.1). A ChunkSize ≥ the largest procedure effectively
	// disables chunking (each procedure one chunk), which is the ablation
	// knob for the "procedures larger than the cache" discussion.
	ChunkSize int
	// Popular restricts the graphs to popular procedures; nil means all
	// procedures are included.
	Popular *popular.Set
}

func (o *Options) setDefaults() {
	if o.CacheBytes == 0 {
		o.CacheBytes = 8192
	}
	if o.QFactor == 0 {
		o.QFactor = 2
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = program.DefaultChunkSize
	}
}

// Result holds the graphs produced by Build.
type Result struct {
	// Select is TRG_select: nodes are popular procedures
	// (graph.NodeID = program.ProcID), edge weights count interleavings.
	Select *graph.Graph
	// Place is TRG_place: nodes are 256-byte chunks of popular procedures
	// (graph.NodeID = program.ChunkID).
	Place *graph.Graph
	// Chunker maps between procedures and TRG_place chunk IDs.
	Chunker *program.Chunker
	// AvgQProcs is the average number of procedures present in the
	// procedure-granularity Q during the build — the "average Q size"
	// column of Table 1.
	AvgQProcs float64
}

// Build runs one pass over the trace and constructs TRG_select and
// TRG_place simultaneously (Section 4.1 notes this is straightforward).
// It is the batch counterpart of the online Builder.
func Build(prog *program.Program, tr *trace.Trace, opts Options) (*Result, error) {
	res, _, err := BuildWithStats(prog, tr, opts)
	return res, err
}

// BuildWithStats is Build, additionally returning the construction-effort
// summary (event counts, queue occupancy) for the telemetry layer.
func BuildWithStats(prog *program.Program, tr *trace.Trace, opts Options) (*Result, BuildStats, error) {
	b, err := NewBuilder(prog, opts, false)
	if err != nil {
		return nil, BuildStats{}, err
	}
	for _, e := range tr.Events {
		b.Observe(e)
	}
	return b.Result(), b.BuildStats(), nil
}

// pairBits is the width of each block ID in a packed pair-database key.
const pairBits = 21

// maxPairBlocks bounds the blocks the pair database tracks: every block ID
// of a pair-database entry is below it. NewBuilder rejects a program with
// more chunks when pair tracking is on.
const maxPairBlocks = 1 << pairBits

// PairDB is the Section-6 temporal-relationship database for set-associative
// caches: D(p,{r,s}) estimates how many references to p would miss if p, r
// and s all occupied the same 2-way set, because both r and s intervene
// between consecutive references to p. p, r and s are distinct blocks. The
// database counts in graph.Counter, the open-addressed table the TRG and
// WCG edges count in, keyed by the packed triple, and Rows groups it by p
// for the set-associative placer.
type PairDB struct {
	c graph.Counter
}

// NewPairDB creates an empty database.
func NewPairDB() *PairDB { return &PairDB{c: graph.NewCounter()} }

// pairKey packs (p,{r,s}) into three pairBits-wide fields, r < s. No
// triple packs to key 0, the empty-slot marker, because s > r ≥ 0.
func pairKey(p, r, s BlockID) uint64 {
	if r > s {
		r, s = s, r
	}
	return uint64(p)<<(2*pairBits) | uint64(s)<<pairBits | uint64(r)
}

// Add increments D(p,{r,s}). p, r and s must be distinct block IDs below
// 2²¹, the most a key holds.
func (d *PairDB) Add(p, r, s BlockID) {
	if p == r || p == s || r == s || uint32(p)|uint32(r)|uint32(s) >= maxPairBlocks {
		panic(fmt.Sprintf("trg: D(%d,{%d,%d}) needs three distinct blocks below %d", p, r, s, maxPairBlocks))
	}
	d.c.Inc(pairKey(p, r, s))
}

// Count returns D(p,{r,s}) for block IDs below 2²¹; it is 0 unless p, r
// and s are distinct, because Add counts no other key.
func (d *PairDB) Count(p, r, s BlockID) int64 { return d.c.Get(pairKey(p, r, s)) }

// Len returns the number of non-zero entries.
func (d *PairDB) Len() int { return d.c.Len() }

// PairEntry is one non-zero entry D(p,{R,S}) = N in row p of Rows; R < S.
type PairEntry struct {
	R, S BlockID
	N    int64
}

// Rows groups the entries counted so far by p: row p lists each non-zero
// D(p,{r,s}), in no particular order. Later Add calls do not change the
// result. It fails if an entry names a block at or above numBlocks, the
// chunk count of the program being placed: the database was built over
// another program.
func (d *PairDB) Rows(numBlocks int) ([][]PairEntry, error) {
	const mask = maxPairBlocks - 1
	rows := make([][]PairEntry, numBlocks)
	var err error
	d.c.Each(func(key uint64, n int64) {
		p, r, s := BlockID(key>>(2*pairBits)), BlockID(key&mask), BlockID(key>>pairBits&mask)
		switch {
		case err != nil:
		case int(max(p, r, s)) >= numBlocks:
			err = fmt.Errorf("trg: pair database entry D(%d,{%d,%d}) names a block beyond the %d chunks", p, r, s, numBlocks)
		default:
			rows[p] = append(rows[p], PairEntry{R: r, S: s, N: n})
		}
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// BuildPairs constructs the chunk-granularity pair database (and the
// ordinary chunk TRG, which the set-associative placer still uses for its
// node-selection loop) in one trace pass.
func BuildPairs(prog *program.Program, tr *trace.Trace, opts Options) (*Result, *PairDB, error) {
	b, err := NewBuilder(prog, opts, true)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range tr.Events {
		b.Observe(e)
	}
	return b.Result(), b.Pairs(), nil
}
