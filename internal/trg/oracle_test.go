package trg

import (
	"container/list"

	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The Section 3 specification the production Queue and Builder are checked
// against: Q as a container/list with a map from block to element, and the
// TRGs as graphs incremented once per interleaving. It is the builder the
// production one replaced, kept as the reference for the differential
// tests TestQueueMatchesOracle and TestBuilderMatchesOracle.

type oracleEntry struct {
	id   BlockID
	size int
}

// oracleQueue is Q written as directly as Section 3 states it.
type oracleQueue struct {
	bound   int
	ll      *list.List // of oracleEntry, front = oldest
	byID    map[BlockID]*list.Element
	totSize int
}

func newOracleQueue(bound int) *oracleQueue {
	return &oracleQueue{
		bound: bound,
		ll:    list.New(),
		byID:  make(map[BlockID]*list.Element),
	}
}

func (q *oracleQueue) Len() int { return q.ll.Len() }

func (q *oracleQueue) TotalSize() int { return q.totSize }

func (q *oracleQueue) Contains(id BlockID) bool {
	_, ok := q.byID[id]
	return ok
}

func (q *oracleQueue) Blocks() []BlockID {
	out := make([]BlockID, 0, q.ll.Len())
	for e := q.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(oracleEntry).id)
	}
	return out
}

func (q *oracleQueue) Touch(id BlockID, size int, fn func(between BlockID)) {
	if prev, ok := q.byID[id]; ok {
		if fn != nil {
			for e := prev.Next(); e != nil; e = e.Next() {
				fn(e.Value.(oracleEntry).id)
			}
		}
		q.totSize -= prev.Value.(oracleEntry).size
		q.ll.Remove(prev)
		delete(q.byID, id)
	}
	q.byID[id] = q.ll.PushBack(oracleEntry{id: id, size: size})
	q.totSize += size
	q.evict()
}

func (q *oracleQueue) TouchPairs(id BlockID, size int, fn func(between BlockID), pairFn func(r, s BlockID)) {
	if prev, ok := q.byID[id]; ok {
		var between []BlockID
		for e := prev.Next(); e != nil; e = e.Next() {
			b := e.Value.(oracleEntry).id
			if fn != nil {
				fn(b)
			}
			between = append(between, b)
		}
		if pairFn != nil {
			for i := 0; i < len(between); i++ {
				for j := i + 1; j < len(between); j++ {
					pairFn(between[i], between[j])
				}
			}
		}
		q.totSize -= prev.Value.(oracleEntry).size
		q.ll.Remove(prev)
		delete(q.byID, id)
	}
	q.byID[id] = q.ll.PushBack(oracleEntry{id: id, size: size})
	q.totSize += size
	q.evict()
}

func (q *oracleQueue) evict() {
	for q.ll.Len() > 1 {
		oldest := q.ll.Front()
		sz := oldest.Value.(oracleEntry).size
		if q.totSize-sz < q.bound {
			return
		}
		q.totSize -= sz
		delete(q.byID, oldest.Value.(oracleEntry).id)
		q.ll.Remove(oldest)
	}
}

// oracleBuilder builds both TRGs by incrementing graph edges directly,
// one graph.Increment per interleaving.
type oracleBuilder struct {
	prog    *program.Program
	chunker *program.Chunker
	keep    func(program.ProcID) bool

	sel   *graph.Graph
	place *graph.Graph
	// pairs is the pair database as a plain map keyed by (p, min(r,s),
	// max(r,s)); nil unless pair tracking is on.
	pairs map[[3]BlockID]int64

	qSel   *oracleQueue
	qPlace *oracleQueue

	stats BuildStats
}

func newOracleBuilder(prog *program.Program, opts Options, trackPairs bool) *oracleBuilder {
	opts.setDefaults()
	chunker, err := program.NewChunker(prog, opts.ChunkSize)
	if err != nil {
		panic(err)
	}
	bound := opts.CacheBytes * opts.QFactor
	b := &oracleBuilder{
		prog:    prog,
		chunker: chunker,
		keep: func(p program.ProcID) bool {
			return opts.Popular == nil || opts.Popular.Contains(p)
		},
		sel:    graph.New(),
		place:  graph.New(),
		qSel:   newOracleQueue(bound),
		qPlace: newOracleQueue(bound),
	}
	if trackPairs {
		b.pairs = make(map[[3]BlockID]int64)
	}
	return b
}

func (b *oracleBuilder) Observe(e trace.Event) {
	p := e.Proc
	if !b.keep(p) {
		return
	}
	b.stats.Events++
	ext := e.ExtentBytes(b.prog)

	id := BlockID(p)
	b.sel.AddNode(id)
	b.qSel.Touch(id, ext, func(between BlockID) {
		b.sel.AddEdgeWeight(id, between, 1)
	})
	qLen := b.qSel.Len()
	b.stats.QLenSum += int64(qLen)
	b.stats.QSteps++
	if qLen > b.stats.MaxQLen {
		b.stats.MaxQLen = qLen
	}
	b.stats.QLenHist[telemetry.BucketIndex(int64(qLen))]++

	n := program.CeilDiv(ext, b.chunker.ChunkSize())
	first := b.chunker.FirstChunk(p)
	for i := 0; i < n; i++ {
		c := first + program.ChunkID(i)
		cid := BlockID(c)
		b.place.AddNode(cid)
		inc := func(between BlockID) { b.place.AddEdgeWeight(cid, between, 1) }
		if b.pairs != nil {
			b.qPlace.TouchPairs(cid, b.chunker.ChunkBytes(c), inc,
				func(r, s BlockID) { b.pairs[[3]BlockID{cid, min(r, s), max(r, s)}]++ })
		} else {
			b.qPlace.Touch(cid, b.chunker.ChunkBytes(c), inc)
		}
	}
}

// samePairs reports whether db holds exactly the oracle's pair counts.
func (b *oracleBuilder) samePairs(db *PairDB) bool {
	if db.Len() != len(b.pairs) {
		return false
	}
	for k, n := range b.pairs {
		if db.Count(k[0], k[1], k[2]) != n {
			return false
		}
	}
	return true
}

// Result returns the oracle's live graphs: valid until the next Observe.
func (b *oracleBuilder) Result() *Result {
	res := &Result{Select: b.sel, Place: b.place, Chunker: b.chunker}
	if b.stats.QSteps > 0 {
		res.AvgQProcs = float64(b.stats.QLenSum) / float64(b.stats.QSteps)
	}
	return res
}
