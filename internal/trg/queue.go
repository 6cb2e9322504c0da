// Package trg implements the paper's temporal relationship graphs: the
// ordered working set Q (Section 3), the simultaneous construction of
// TRG_select (procedure granularity) and TRG_place (chunk granularity,
// Section 4.1), and the pair database D(p,{r,s}) used by the
// set-associative extension (Section 6).
package trg

import "container/list"

// BlockID is a code-block identifier at whatever granularity the caller
// tracks (program.ProcID for TRG_select, program.ChunkID for TRG_place).
type BlockID = int32

type qEntry struct {
	id   BlockID
	size int
}

// Queue is the ordered set Q of recently referenced code blocks. Blocks are
// ordered oldest → newest; each block appears at most once; the total byte
// size of the retained blocks is kept just above a bound (twice the cache
// size in the paper) by evicting the oldest entries.
type Queue struct {
	bound   int
	ll      *list.List // of qEntry, front = oldest
	byID    map[BlockID]*list.Element
	totSize int
}

// NewQueue creates a Q with the given total-size bound in bytes.
// The paper uses 2× the cache size (Section 3).
func NewQueue(bound int) *Queue {
	return &Queue{
		bound: bound,
		ll:    list.New(),
		byID:  make(map[BlockID]*list.Element),
	}
}

// Len returns the number of blocks currently in Q.
func (q *Queue) Len() int { return q.ll.Len() }

// TotalSize returns the summed byte size of the blocks in Q.
func (q *Queue) TotalSize() int { return q.totSize }

// Contains reports whether block id is in Q.
func (q *Queue) Contains(id BlockID) bool {
	_, ok := q.byID[id]
	return ok
}

// Blocks returns the block IDs oldest-first; for tests and debugging.
func (q *Queue) Blocks() []BlockID {
	out := make([]BlockID, 0, q.ll.Len())
	for e := q.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(qEntry).id)
	}
	return out
}

// Touch processes the next trace reference to block id (of the given byte
// size) per Section 3:
//
//  1. If a previous reference to id is in Q, fn is invoked once for every
//     block that occurs after it (the blocks interleaved between the two
//     consecutive references to id); the previous entry is then removed.
//  2. id is appended at the newest end.
//  3. The oldest members are evicted while removal keeps the total size of
//     the remaining blocks at or above the bound.
//
// fn may be nil when the caller only wants Q maintenance.
func (q *Queue) Touch(id BlockID, size int, fn func(between BlockID)) {
	if prev, ok := q.byID[id]; ok {
		if fn != nil {
			for e := prev.Next(); e != nil; e = e.Next() {
				fn(e.Value.(qEntry).id)
			}
		}
		q.totSize -= prev.Value.(qEntry).size
		q.ll.Remove(prev)
		delete(q.byID, id)
	}
	q.byID[id] = q.ll.PushBack(qEntry{id: id, size: size})
	q.totSize += size
	q.evict()
}

// TouchPairs is Touch for the set-associative extension: pairFn receives
// every unordered pair {r,s} of distinct blocks occurring between the two
// consecutive references to id (Section 6: "we associate p with all possible
// selections of two identifiers from the identifiers currently in Q, up to
// any previous occurrence of p"). fn, if non-nil, still receives each single
// intervening block, allowing one pass to feed both the 1-way TRG and the
// pair database.
func (q *Queue) TouchPairs(id BlockID, size int, fn func(between BlockID), pairFn func(r, s BlockID)) {
	if prev, ok := q.byID[id]; ok {
		var between []BlockID
		for e := prev.Next(); e != nil; e = e.Next() {
			b := e.Value.(qEntry).id
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
		q.totSize -= prev.Value.(qEntry).size
		q.ll.Remove(prev)
		delete(q.byID, id)
	}
	q.byID[id] = q.ll.PushBack(qEntry{id: id, size: size})
	q.totSize += size
	q.evict()
}

// evict removes the oldest entries while doing so leaves the total size of
// the remaining blocks at or above the bound. ("We remove the oldest members
// of Q until the removal of the next least-recently-used identifier would
// cause the total size of remaining code blocks in Q to be less than twice
// the cache size.")
func (q *Queue) evict() {
	for q.ll.Len() > 1 {
		oldest := q.ll.Front()
		sz := oldest.Value.(qEntry).size
		if q.totSize-sz < q.bound {
			return
		}
		q.totSize -= sz
		delete(q.byID, oldest.Value.(qEntry).id)
		q.ll.Remove(oldest)
	}
}
