package trg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTouchBasicOrdering(t *testing.T) {
	q := NewQueue(1 << 20)
	q.Touch(1, 10, nil)
	q.Touch(2, 10, nil)
	q.Touch(3, 10, nil)
	if got := q.Blocks(); !reflect.DeepEqual(got, []BlockID{1, 2, 3}) {
		t.Errorf("Blocks = %v", got)
	}
	if q.Len() != 3 || q.TotalSize() != 30 {
		t.Errorf("Len=%d TotalSize=%d", q.Len(), q.TotalSize())
	}
}

func TestTouchReportsInterveningBlocks(t *testing.T) {
	q := NewQueue(1 << 20)
	for _, id := range []BlockID{1, 2, 3, 4} {
		q.Touch(id, 10, nil)
	}
	var between []BlockID
	q.Touch(2, 10, func(b BlockID) { between = append(between, b) })
	if !reflect.DeepEqual(between, []BlockID{3, 4}) {
		t.Errorf("between = %v, want [3 4]", between)
	}
	// Old occurrence of 2 removed; new one at the back.
	if got := q.Blocks(); !reflect.DeepEqual(got, []BlockID{1, 3, 4, 2}) {
		t.Errorf("Blocks = %v", got)
	}
	if q.Len() != 4 || q.TotalSize() != 40 {
		t.Errorf("Len=%d TotalSize=%d", q.Len(), q.TotalSize())
	}
}

func TestTouchNoPreviousReportsNothing(t *testing.T) {
	q := NewQueue(1 << 20)
	q.Touch(1, 10, nil)
	called := false
	q.Touch(2, 10, func(BlockID) { called = true })
	if called {
		t.Error("fn invoked for first reference")
	}
}

func TestEvictionKeepsSizeAtOrAboveBound(t *testing.T) {
	q := NewQueue(100)
	// Five 30-byte blocks: after each Touch, evict oldest while remaining
	// size stays >= 100.
	for id := BlockID(1); id <= 5; id++ {
		q.Touch(id, 30, nil)
	}
	// 5*30=150; removing one leaves 120 >= 100 → evict; removing another
	// leaves 90 < 100 → stop. Q should hold blocks 2..5.
	if got := q.Blocks(); !reflect.DeepEqual(got, []BlockID{2, 3, 4, 5}) {
		t.Errorf("Blocks = %v, want [2 3 4 5]", got)
	}
	if q.TotalSize() != 120 {
		t.Errorf("TotalSize = %d, want 120", q.TotalSize())
	}
}

func TestEvictedBlockNotReported(t *testing.T) {
	q := NewQueue(50)
	q.Touch(1, 40, nil) // will be evicted
	q.Touch(2, 40, nil) // 80 >= 50+40? removal leaves 40 < 50 → keep both
	q.Touch(3, 40, nil) // 120; removal of 1 leaves 80 >= 50 → evict 1
	if q.Contains(1) {
		t.Fatal("block 1 not evicted")
	}
	var between []BlockID
	q.Touch(2, 40, func(b BlockID) { between = append(between, b) })
	if !reflect.DeepEqual(between, []BlockID{3}) {
		t.Errorf("between = %v, want [3]", between)
	}
}

func TestHugeBlockAloneStays(t *testing.T) {
	q := NewQueue(100)
	q.Touch(1, 500, nil)
	// A single block is never evicted even if larger than the bound.
	if !q.Contains(1) || q.Len() != 1 {
		t.Error("single oversized block evicted")
	}
	q.Touch(2, 10, nil)
	// Removing block 1 would leave 10 < 100, so it stays.
	if !q.Contains(1) {
		t.Error("oversized block evicted while bound not exceeded by remainder")
	}
}

func TestTouchPairs(t *testing.T) {
	q := NewQueue(1 << 20)
	for _, id := range []BlockID{7, 1, 2, 3} {
		q.Touch(id, 10, nil)
	}
	var singles []BlockID
	var pairs [][2]BlockID
	q.TouchPairs(7, 10,
		func(b BlockID) { singles = append(singles, b) },
		func(r, s BlockID) { pairs = append(pairs, [2]BlockID{r, s}) })
	if !reflect.DeepEqual(singles, []BlockID{1, 2, 3}) {
		t.Errorf("singles = %v", singles)
	}
	wantPairs := [][2]BlockID{{1, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(pairs, wantPairs) {
		t.Errorf("pairs = %v, want %v", pairs, wantPairs)
	}
}

func TestTouchPairsNoPrevious(t *testing.T) {
	q := NewQueue(1 << 20)
	q.Touch(1, 10, nil)
	q.TouchPairs(2, 10,
		func(BlockID) { t.Error("single fn invoked") },
		func(r, s BlockID) { t.Error("pair fn invoked") })
}

// Invariants: uniqueness of members; total size consistent; most recent
// touch is always at the back; eviction bound respected.
func TestQueueInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bound := rng.Intn(500) + 50
		q := NewQueue(bound)
		sizes := make(map[BlockID]int)
		for step := 0; step < 300; step++ {
			id := BlockID(rng.Intn(30))
			sz, ok := sizes[id]
			if !ok {
				sz = rng.Intn(100) + 1
				sizes[id] = sz
			}
			q.Touch(id, sz, nil)

			blocks := q.Blocks()
			if blocks[len(blocks)-1] != id {
				return false
			}
			seen := make(map[BlockID]bool)
			total := 0
			for _, b := range blocks {
				if seen[b] {
					return false
				}
				seen[b] = true
				total += sizes[b]
			}
			if total != q.TotalSize() {
				return false
			}
			// Eviction stopped correctly: removing the oldest (if more
			// than one member) must drop below the bound.
			if len(blocks) > 1 && total-sizes[blocks[0]] >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Random Touch/TouchPairs sequences must leave Q exactly as the Section 3
// oracle does after every touch, and report the same intervening blocks
// and pairs. IDs are sparse so the slot arrays grow mid-sequence, and a
// block's size varies between touches.
func TestQueueMatchesOracle(t *testing.T) {
	for seed := 0; seed < trgSeeds(t); seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		bound := rng.Intn(1500) + 1
		q, o := NewQueue(bound), newOracleQueue(bound)
		ids, stride := rng.Intn(60)+1, rng.Intn(40)+1
		for step := 0; step < 400; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			id := BlockID(rng.Intn(ids) * stride)
			size := rng.Intn(300)
			var got, want []BlockID
			var gotPairs, wantPairs [][2]BlockID
			switch rng.Intn(3) {
			case 0:
				q.Touch(id, size, nil)
				o.Touch(id, size, nil)
			case 1:
				q.Touch(id, size, func(b BlockID) { got = append(got, b) })
				o.Touch(id, size, func(b BlockID) { want = append(want, b) })
			default:
				q.TouchPairs(id, size, func(b BlockID) { got = append(got, b) },
					func(r, s BlockID) { gotPairs = append(gotPairs, [2]BlockID{r, s}) })
				o.TouchPairs(id, size, func(b BlockID) { want = append(want, b) },
					func(r, s BlockID) { wantPairs = append(wantPairs, [2]BlockID{r, s}) })
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotPairs, wantPairs) {
				t.Fatalf("%s: between %v pairs %v, oracle %v %v", ctx, got, gotPairs, want, wantPairs)
			}
			if !reflect.DeepEqual(q.Blocks(), o.Blocks()) || q.Len() != o.Len() || q.TotalSize() != o.TotalSize() {
				t.Fatalf("%s: Q %v (len %d, %d B), oracle %v (len %d, %d B)", ctx,
					q.Blocks(), q.Len(), q.TotalSize(), o.Blocks(), o.Len(), o.TotalSize())
			}
			if probe := BlockID(rng.Intn(ids*stride + 10)); q.Contains(probe) != o.Contains(probe) {
				t.Fatalf("%s: Contains(%d) = %v, oracle %v", ctx, probe, q.Contains(probe), o.Contains(probe))
			}
		}
	}
}

// Once the slot arrays cover every ID, touching allocates nothing, with or
// without callbacks, and TouchPairs reuses its buffer.
func TestTouchAllocatesNothing(t *testing.T) {
	q := NewQueue(2000)
	var seen int
	count := func(BlockID) { seen++ }
	pair := func(r, s BlockID) { seen++ }
	touchAll := func() {
		for id := BlockID(0); id < 100; id++ {
			q.Touch(id, int(id%7)*50+10, nil)
			q.Touch(99-id, 40, count)
			q.TouchPairs(id/2, 30, count, pair)
		}
	}
	touchAll()
	if n := testing.AllocsPerRun(10, touchAll); n != 0 {
		t.Errorf("Touch/TouchPairs allocated %v times per run in steady state", n)
	}
	if seen == 0 {
		t.Fatal("callbacks never invoked")
	}
}
