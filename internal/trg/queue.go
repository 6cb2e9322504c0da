// Package trg implements the paper's temporal relationship graphs: the
// ordered working set Q (Section 3), the simultaneous construction of
// TRG_select (procedure granularity) and TRG_place (chunk granularity,
// Section 4.1), and the pair database D(p,{r,s}) used by the
// set-associative extension (Section 6).
package trg

// BlockID is a code-block identifier at whatever granularity the caller
// tracks (program.ProcID for TRG_select, program.ChunkID for TRG_place).
// It is a dense non-negative index: Q keeps per-ID slot arrays grown to
// the largest ID seen, and the builder runs each Q on its TRG's node
// indices (count.go).
type BlockID = int32

// none terminates Q's linked list and marks a procedure outside the
// builder's popular set.
const none BlockID = -1

// Queue is the ordered set Q of recently referenced code blocks. Blocks are
// ordered oldest → newest; each block appears at most once; the total byte
// size of the retained blocks is kept just above a bound (twice the cache
// size in the paper) by evicting the oldest entries.
//
// Q is a doubly linked list threaded through per-ID slot arrays, so moving
// a block to the newest end or evicting one is O(1) and allocates nothing
// once the arrays cover every ID touched.
type Queue struct {
	bound int
	next  []BlockID // next[id]: the next-newer block in Q, or none
	prev  []BlockID // prev[id]: the next-older block in Q, or none
	size  []int     // size[id]: the byte size id was charged when appended
	inQ   []bool
	head  BlockID // oldest block, or none
	tail  BlockID // newest block, or none
	n     int     // blocks in Q
	// totSize is the summed size of the blocks in Q.
	totSize int
	// between is TouchPairs' buffer for the blocks it pairs up.
	between []BlockID
}

// NewQueue creates a Q with the given total-size bound in bytes.
// The paper uses 2× the cache size (Section 3).
func NewQueue(bound int) *Queue {
	return &Queue{bound: bound, head: none, tail: none}
}

// Len returns the number of blocks currently in Q.
func (q *Queue) Len() int { return q.n }

// TotalSize returns the summed byte size of the blocks in Q.
func (q *Queue) TotalSize() int { return q.totSize }

// Contains reports whether block id is in Q.
func (q *Queue) Contains(id BlockID) bool {
	return int(id) < len(q.inQ) && q.inQ[id]
}

// Blocks returns the block IDs oldest-first; for tests and debugging.
func (q *Queue) Blocks() []BlockID {
	out := make([]BlockID, 0, q.n)
	for b := q.head; b != none; b = q.next[b] {
		out = append(out, b)
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
	if fn != nil && q.Contains(id) {
		for b := q.next[id]; b != none; b = q.next[b] {
			fn(b)
		}
	}
	q.push(id, size)
}

// Count is Touch counting each interleaving in row instead of calling a
// function: row[b] grows by one for every block b between the two
// consecutive references to id, so row must cover every ID in Q.
func (q *Queue) Count(id BlockID, size int, row []uint32) {
	if q.Contains(id) {
		for b := q.next[id]; b != none; b = q.next[b] {
			row[b]++
		}
	}
	q.push(id, size)
}

// push moves id to the newest end, appending it if it is not in Q, and
// evicts from the oldest end: steps 2 and 3 of Touch.
func (q *Queue) push(id BlockID, size int) {
	if q.Contains(id) {
		q.unlink(id)
	} else {
		q.grow(id)
	}
	q.inQ[id] = true
	q.size[id] = size
	q.next[id] = none
	q.prev[id] = q.tail
	if q.tail == none {
		q.head = id
	} else {
		q.next[q.tail] = id
	}
	q.tail = id
	q.n++
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
	between := q.between[:0]
	q.Touch(id, size, func(b BlockID) {
		if fn != nil {
			fn(b)
		}
		between = append(between, b)
	})
	q.between = between
	if pairFn != nil {
		for i := 0; i < len(between); i++ {
			for j := i + 1; j < len(between); j++ {
				pairFn(between[i], between[j])
			}
		}
	}
}

// grow extends the slot arrays to cover id.
func (q *Queue) grow(id BlockID) {
	if int(id) < len(q.inQ) {
		return
	}
	n := max(int(id)+1, 2*len(q.inQ))
	q.next = append(q.next, make([]BlockID, n-len(q.next))...)
	q.prev = append(q.prev, make([]BlockID, n-len(q.prev))...)
	q.size = append(q.size, make([]int, n-len(q.size))...)
	q.inQ = append(q.inQ, make([]bool, n-len(q.inQ))...)
}

// unlink removes block id, which must be in Q.
func (q *Queue) unlink(id BlockID) {
	p, nx := q.prev[id], q.next[id]
	if p == none {
		q.head = nx
	} else {
		q.next[p] = nx
	}
	if nx == none {
		q.tail = p
	} else {
		q.prev[nx] = p
	}
	q.inQ[id] = false
	q.n--
	q.totSize -= q.size[id]
}

// evict removes the oldest entries while doing so leaves the total size of
// the remaining blocks at or above the bound. ("We remove the oldest members
// of Q until the removal of the next least-recently-used identifier would
// cause the total size of remaining code blocks in Q to be less than twice
// the cache size.")
func (q *Queue) evict() {
	for q.n > 1 && q.totSize-q.size[q.head] >= q.bound {
		q.unlink(q.head)
	}
}
