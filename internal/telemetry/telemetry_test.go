package telemetry

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
		{1 << 29, 30}, {1<<30 - 1, 30},
		{1 << 30, 31}, {1 << 62, 31}, {1<<63 - 1, 31},
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketBounds(t *testing.T) {
	// Every representable value must fall inside the bounds of its own
	// bucket, and buckets must tile the positive range without gaps.
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketBounds(i)
		if i > 0 {
			if got := BucketIndex(lo); got != i {
				t.Errorf("BucketIndex(lo=%d) = %d, want bucket %d", lo, got, i)
			}
		}
		if hi > 0 && i < NumBuckets-1 {
			if got := BucketIndex(hi); got != i {
				t.Errorf("BucketIndex(hi=%d) = %d, want bucket %d", hi, got, i)
			}
			nlo, _ := BucketBounds(i + 1)
			if nlo != hi+1 {
				t.Errorf("gap between bucket %d (hi %d) and %d (lo %d)", i, hi, i+1, nlo)
			}
		}
	}
}

func TestNilSafety(t *testing.T) {
	// A nil registry (telemetry off) must make every recording call a
	// no-op rather than a panic — experiments run this way by default.
	var r *Registry
	sh := r.Shard()
	if sh != nil {
		t.Fatalf("nil registry returned non-nil shard")
	}
	sh.Add("a", 1)
	sh.Observe("b", 2)
	sh.ObserveN("c", 3, 4)
	sh.AddHistogram("d", []int64{1, 2}, 3, 2)
	sh.AddDuration("e", time.Second)
	stop := sh.Time("f")
	stop()
	s := r.Snapshot()
	if s == nil || len(s.Counters) != 0 || len(s.Timers) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot = %+v, want empty", s)
	}
}

func TestSnapshotMergesShards(t *testing.T) {
	r := NewRegistry()
	a, b := r.Shard(), r.Shard()
	a.Add("jobs", 2)
	b.Add("jobs", 3)
	a.Observe("size", 10)
	b.ObserveN("size", 100, 2)
	b.AddDuration("wall", 5*time.Millisecond)
	a.AddDuration("wall", 7*time.Millisecond)

	s := r.Snapshot()
	if got := s.Counters["jobs"]; got != 5 {
		t.Errorf("jobs = %d, want 5", got)
	}
	h := s.Histograms["size"]
	if h.Count != 3 || h.Sum != 210 {
		t.Errorf("size histogram = count %d sum %d, want 3/210", h.Count, h.Sum)
	}
	if want := float64(70); h.Mean() != want {
		t.Errorf("size mean = %v, want %v", h.Mean(), want)
	}
	w := s.Timers["wall"]
	if w.Count != 2 || w.TotalNS != 12e6 || w.MaxNS != 7e6 {
		t.Errorf("wall = %+v, want count 2 total 12ms max 7ms", w)
	}
}

// TestMergeDeterminism is the heart of the -parallel guarantee: the same
// set of recordings distributed over any number of shards in any order
// must merge to the same snapshot (timers included — identical durations
// are recorded here, unlike real runs).
func TestMergeDeterminism(t *testing.T) {
	type rec struct {
		name string
		v    int64
	}
	var recs []rec
	rng := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c", "d"}
	for i := 0; i < 400; i++ {
		recs = append(recs, rec{names[rng.Intn(len(names))], rng.Int63n(1 << 20)})
	}

	run := func(shards int, order []int) *Snapshot {
		r := NewRegistry()
		shs := make([]*Shard, shards)
		for i := range shs {
			shs[i] = r.Shard()
		}
		for _, i := range order {
			sh := shs[i%shards]
			sh.Add("count/"+recs[i].name, 1)
			sh.Observe("hist/"+recs[i].name, recs[i].v)
		}
		return r.Snapshot()
	}

	seq := make([]int, len(recs))
	for i := range seq {
		seq[i] = i
	}
	want := run(1, seq)
	for _, shards := range []int{2, 3, 8} {
		shuf := append([]int(nil), seq...)
		rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		if got := run(shards, shuf); !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: snapshot differs from serial", shards)
		}
	}
}

// TestConcurrentShards exercises the registry under -race: goroutines
// recording into their own shards and, separately, into one shared shard
// (Shard methods are mutex-guarded, so sharing is safe, just slower).
func TestConcurrentShards(t *testing.T) {
	r := NewRegistry()
	shared := r.Shard()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := r.Shard()
			for i := 0; i < perWorker; i++ {
				own.Add("own", 1)
				shared.Add("shared", 1)
				own.Observe("sizes", int64(i))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["own"]; got != workers*perWorker {
		t.Errorf("own = %d, want %d", got, workers*perWorker)
	}
	if got := s.Counters["shared"]; got != workers*perWorker {
		t.Errorf("shared = %d, want %d", got, workers*perWorker)
	}
	if got := s.Histograms["sizes"].Count; got != workers*perWorker {
		t.Errorf("sizes count = %d, want %d", got, workers*perWorker)
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	sh := r.Shard()
	stop := sh.Time("t")
	time.Sleep(time.Millisecond)
	stop()
	s := r.Snapshot()
	st := s.Timers["t"]
	if st.Count != 1 {
		t.Fatalf("count = %d, want 1", st.Count)
	}
	if st.TotalNS <= 0 || st.MaxNS != st.TotalNS {
		t.Errorf("timer stats = %+v, want positive total == max", st)
	}
}

// cpuSink keeps the busy loop of TestCPUSecondsWithoutGC from being
// optimized away.
var cpuSink uint64

// CPUSeconds must count CPU burnt without allocating. The runtime/metrics
// CPU classes refresh only when a GC cycle ends, so they read nothing for
// such a span.
func TestCPUSecondsWithoutGC(t *testing.T) {
	c0 := CPUSeconds()
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	cpuSink = x
	if d := CPUSeconds() - c0; d < 0.05 {
		t.Errorf("CPUSeconds advanced %.3fs over a 200ms busy loop, want at least 0.05s", d)
	}
}
