package sched

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"zebraconf/internal/obs"
)

func TestParsePolicy(t *testing.T) {
	t.Parallel()
	for s, want := range map[string]Policy{"fifo": FIFO, "FIFO": FIFO, "lpt": LPT, "LPT": LPT} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("sjf"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRankFIFOIsIdentity(t *testing.T) {
	t.Parallel()
	order, moved := Rank(FIFO, []float64{1, 9, 3, 7})
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) || moved != 0 {
		t.Fatalf("FIFO rank = %v moved=%d, want identity", order, moved)
	}
}

func TestRankLPTDescendingTiesByIndex(t *testing.T) {
	t.Parallel()
	order, moved := Rank(LPT, []float64{1, 5, 3, 5, 0})
	// 5s first (index order among the tie), then 3, 1, 0.
	if want := []int{1, 3, 2, 0, 4}; !reflect.DeepEqual(order, want) {
		t.Fatalf("LPT rank = %v, want %v", order, want)
	}
	if moved != 3 {
		t.Fatalf("moved = %d, want 3 (indexes 2 and 4 keep their slots)", moved)
	}
}

// TestRankDeterministic pins the scheduler's core safety property at the
// ordering level: the same prediction vector always yields the same
// permutation, so a campaign re-run with the same profile dispatches
// identically.
func TestRankDeterministic(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	pred := make([]float64, 100)
	for i := range pred {
		pred[i] = float64(rng.Intn(20)) // coarse values force many ties
	}
	first, _ := Rank(LPT, pred)
	for i := 0; i < 5; i++ {
		again, _ := Rank(LPT, pred)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\n first %v\n again %v", i, first, again)
		}
	}
}

// TestLPTBeatsFIFOMakespan is the property the whole PR rests on: on a
// simulated worker pool with skewed durations, LPT's makespan is no
// worse than FIFO's on every instance, and strictly better on skewed
// ones where FIFO parks a long item last.
func TestLPTBeatsFIFOMakespan(t *testing.T) {
	t.Parallel()
	makespan := func(order []int, dur []float64, workers int) float64 {
		// List scheduling: each item in dispatch order goes to the
		// earliest-free worker.
		free := make([]float64, workers)
		for _, idx := range order {
			w := 0
			for i := 1; i < workers; i++ {
				if free[i] < free[w] {
					w = i
				}
			}
			free[w] += dur[idx]
		}
		max := 0.0
		for _, f := range free {
			if f > max {
				max = f
			}
		}
		return max
	}

	rng := rand.New(rand.NewSource(42))
	improved, worse := 0, 0
	var fifoTotal, lptTotal float64
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(30)
		workers := 2 + rng.Intn(6)
		dur := make([]float64, n)
		var sum, longest float64
		for i := range dur {
			// Heavy-tailed mix: mostly sub-second items, a few minutes-long
			// ones — the shape of a real campaign's work items.
			if rng.Intn(4) == 0 {
				dur[i] = 30 + 120*rng.Float64()
			} else {
				dur[i] = rng.Float64()
			}
			sum += dur[i]
			if dur[i] > longest {
				longest = dur[i]
			}
		}
		fifoOrder, _ := Rank(FIFO, dur)
		lptOrder, _ := Rank(LPT, dur)
		fifo := makespan(fifoOrder, dur, workers)
		lpt := makespan(lptOrder, dur, workers)
		fifoTotal += fifo
		lptTotal += lpt
		// Per-instance guarantee: any list schedule — LPT included — stays
		// under sum/m + (1-1/m)·longest, which is < 2× the trivial lower
		// bound max(sum/m, longest). LPT is NOT per-instance dominant over
		// FIFO (it is a 4/3-approximation, and FIFO can get lucky), so
		// dominance is asserted in aggregate below.
		m := float64(workers)
		if bound := sum/m + (1-1/m)*longest; lpt > bound+1e-9 {
			t.Fatalf("trial %d: LPT makespan %.3f above the list-scheduling bound %.3f", trial, lpt, bound)
		}
		if lpt < fifo-1e-9 {
			improved++
		} else if lpt > fifo+1e-9 {
			worse++
		}
	}
	if lptTotal >= fifoTotal {
		t.Fatalf("LPT total makespan %.1f not below FIFO's %.1f across 200 skewed instances", lptTotal, fifoTotal)
	}
	if improved < 100 {
		t.Fatalf("LPT strictly improved only %d/200 skewed instances; the optimisation is vacuous", improved)
	}
	if improved <= worse*3 {
		t.Fatalf("LPT improved %d but worsened %d instances; the ordering is not pulling its weight", improved, worse)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "profile.json")
	p := NewProfile()
	p.Record("minihdfs", "TestWriteRead", 4)
	p.Record("minihdfs", "TestWriteRead", 2) // EWMA: 0.5*2 + 0.5*4 = 3
	p.Record("miniyarn", "TestTimelineQuery", 0.25)
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := got.Predict("minihdfs", "TestWriteRead"); !ok || s != 3 {
		t.Fatalf("Predict after round trip = %v, %v, want 3 (EWMA)", s, ok)
	}
	if s, ok := got.Predict("miniyarn", "TestTimelineQuery"); !ok || s != 0.25 {
		t.Fatalf("Predict = %v, %v, want 0.25", s, ok)
	}
	if _, ok := got.Predict("minihdfs", "TestNever"); ok {
		t.Fatal("unknown test predicted")
	}
	if got.Len() != 2 {
		t.Fatalf("Len = %d, want 2", got.Len())
	}

	// Saving twice produces identical bytes (sorted-map marshalling), so
	// profile churn never dirties a checked-in file spuriously.
	path2 := filepath.Join(t.TempDir(), "profile2.json")
	if err := got.Save(path2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if string(b1) != string(b2) {
		t.Fatalf("save not deterministic:\n %s\n %s", b1, b2)
	}
}

func TestProfileMissingFileIsCold(t *testing.T) {
	t.Parallel()
	p, err := LoadProfile(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("missing profile is an error: %v", err)
	}
	if _, ok := p.Predict("a", "t"); ok {
		t.Fatal("cold profile predicted something")
	}
	// The nil profile (no -profile flag) behaves the same everywhere.
	var nilp *Profile
	nilp.Record("a", "t", 1)
	if _, ok := nilp.Predict("a", "t"); ok {
		t.Fatal("nil profile predicted")
	}
	if nilp.Len() != 0 {
		t.Fatal("nil profile has length")
	}
}

func TestProfileRejectsGarbage(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := LoadProfile(bad); err == nil {
		t.Fatal("corrupt profile accepted")
	}
	wrongVer := filepath.Join(dir, "ver.json")
	os.WriteFile(wrongVer, []byte(`{"version":99,"apps":{}}`), 0o644)
	if _, err := LoadProfile(wrongVer); err == nil {
		t.Fatal("future-versioned profile accepted")
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	t.Parallel()
	q := NewQueue[int](FIFO, nil, "app", "stream")
	for i := 0; i < 5; i++ {
		q.Push(i, float64(5-i))
	}
	for want := 0; want < 5; want++ {
		got, ok := q.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %d, %v, want %d (FIFO ignores priority)", got, ok, want)
		}
	}
	q.Close()
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on a closed empty queue returned a task")
	}
}

func TestQueueLPTOrder(t *testing.T) {
	t.Parallel()
	q := NewQueue[string](LPT, nil, "app", "stream")
	q.Push("short", 0.1)
	q.Push("long", 9)
	q.Push("mid", 3)
	q.Push("long2", 9) // tie: earliest push wins
	for _, want := range []string{"long", "long2", "mid", "short"} {
		got, ok := q.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %q, %v, want %q", got, ok, want)
		}
	}
}

// TestQueueCloseReleasesBlockedPop pins the shutdown path: workers
// blocked in Pop must all return ok=false when the queue closes, or the
// streaming pipeline's WaitGroup would deadlock.
func TestQueueCloseReleasesBlockedPop(t *testing.T) {
	t.Parallel()
	q := NewQueue[int](LPT, nil, "app", "stream")
	const workers = 4
	var wg sync.WaitGroup
	released := make(chan bool, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, ok := q.Pop()
			released <- ok
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Pop still blocked after Close")
	}
	for i := 0; i < workers; i++ {
		if <-released {
			t.Fatal("closed queue handed out a task")
		}
	}
}

// TestQueueConcurrentPushPop hammers the queue from both sides; run
// under -race this is the pipeline's memory-safety test.
func TestQueueConcurrentPushPop(t *testing.T) {
	t.Parallel()
	q := NewQueue[int](LPT, nil, "app", "stream")
	const n = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			q.Push(i, float64(i%17))
		}
		q.Close()
	}()
	var mu sync.Mutex
	seen := make(map[int]bool)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("value %d popped twice", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("popped %d values, want %d", len(seen), n)
	}
}

// TestQueueTryPop covers the non-blocking pop on every state a coordinator
// session can find the queue in: empty, holding work, drained, closed.
func TestQueueTryPop(t *testing.T) {
	t.Parallel()
	q := NewQueue[int](FIFO, nil, "app", "dist")
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on an empty queue returned a task")
	}
	q.Push(7, 1)
	q.Push(8, 1)
	q.Close()
	// Closed but not drained: the remaining tasks still come out.
	for _, want := range []int{7, 8} {
		if got, ok := q.TryPop(); !ok || got != want {
			t.Fatalf("TryPop = %d, %v, want %d", got, ok, want)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on a closed, drained queue returned a task")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

// TestQueueLPTCountsReorders is the coordinator's dispatch order (moved
// here from dist with its queue): TryPop under LPT picks the global
// longest with ties to the earliest push, every pop that overtakes an
// older task counts as a reorder, and every pop records its queue wait.
func TestQueueLPTCountsReorders(t *testing.T) {
	t.Parallel()
	o := obs.New()
	q := NewQueue[int](LPT, o, "app", "dist")
	for id, pred := range []float64{1, 5, 3, 5} {
		q.Push(id, pred)
	}
	wantReordered := []int64{1, 2, 3, 3} // the last pop takes the oldest task
	for i, want := range []int{1, 3, 2, 0} {
		if got, ok := q.TryPop(); !ok || got != want {
			t.Fatalf("pop %d = %d, %v, want %d", i, got, ok, want)
		}
		if n := o.Metrics.CounterValue(obs.MSchedReordered, "app", "app"); n != wantReordered[i] {
			t.Fatalf("after pop %d: reordered = %d, want %d", i, n, wantReordered[i])
		}
	}
	if c := o.Metrics.HistogramValue(obs.MSchedQueueWait, "app", "app", "stage", "dist").Count; c != 4 {
		t.Fatalf("queue-wait observations = %d, want 4", c)
	}
}

// TestQueueRepushOrderedByPolicy pins what a coordinator retry relies on:
// an item pushed again is ordered like any other — behind older work under
// FIFO, by its prediction under LPT.
func TestQueueRepushOrderedByPolicy(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		policy Policy
		want   []string
	}{
		{FIFO, []string{"b", "c", "a"}},
		{LPT, []string{"a", "c", "b"}},
	} {
		q := NewQueue[string](tc.policy, nil, "app", "dist")
		q.Push("a", 9)
		q.Push("b", 1)
		q.Push("c", 3)
		first, _ := q.TryPop()
		q.Push(first, 9) // the retry of whatever was dispatched first
		got := []string{nextOf(t, q), nextOf(t, q), nextOf(t, q)}
		if first != "a" || !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%v: first %q then %v, want \"a\" then %v", tc.policy, first, got, tc.want)
		}
	}
}

func nextOf(t *testing.T, q *Queue[string]) string {
	t.Helper()
	v, ok := q.TryPop()
	if !ok {
		t.Fatal("queue ran dry")
	}
	return v
}

// TestQueueMixedPoppersSeeEachItemOnce runs both execution modes' access
// patterns against one queue at once: 4 pushers, 8 poppers of which half
// block in Pop (the in-process pool) and half poll TryPop (coordinator
// sessions). Every item must come out exactly once. Run under -race.
func TestQueueMixedPoppersSeeEachItemOnce(t *testing.T) {
	t.Parallel()
	q := NewQueue[int](LPT, nil, "app", "stream")
	const pushers, poppers, perPusher = 4, 8, 250
	var push sync.WaitGroup
	for p := 0; p < pushers; p++ {
		push.Add(1)
		go func(p int) {
			defer push.Done()
			for i := 0; i < perPusher; i++ {
				q.Push(p*perPusher+i, float64(i%17))
			}
		}(p)
	}
	go func() { push.Wait(); q.Close() }()

	var mu sync.Mutex
	seen := make(map[int]int)
	note := func(v int) {
		mu.Lock()
		seen[v]++
		mu.Unlock()
	}
	closed := make(chan struct{})
	var pop sync.WaitGroup
	for w := 0; w < poppers; w++ {
		pop.Add(1)
		go func(blocking bool) {
			defer pop.Done()
			for {
				if blocking {
					v, ok := q.Pop()
					if !ok {
						return
					}
					note(v)
					continue
				}
				if v, ok := q.TryPop(); ok {
					note(v)
					continue
				}
				select {
				case <-closed:
					// Closed with nothing queued: drained for good.
					return
				default:
					runtime.Gosched()
				}
			}
		}(w%2 == 0)
	}
	push.Wait()
	close(closed)
	pop.Wait()
	if len(seen) != pushers*perPusher {
		t.Fatalf("popped %d distinct items, want %d", len(seen), pushers*perPusher)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("item %d popped %d times", v, n)
		}
	}
}

func TestProfileRecordTrialsPerTrialPrediction(t *testing.T) {
	t.Parallel()
	p := NewProfile()
	// A 24-trial item at 12s: 0.5 s/trial. The whole-item EWMA alone
	// would predict 12s for every future item of this test, even after
	// sequential stopping cuts it to a third of the trials.
	p.RecordTrials("minihdfs", "TestWriteRead", 12, 24)
	if s, ok := p.Predict("minihdfs", "TestWriteRead"); !ok || s != 12 {
		t.Fatalf("Predict = %v, %v, want 12 (0.5 s/trial x 24 trials)", s, ok)
	}
	// Early stopping shrinks the item to 8 trials at the same per-trial
	// cost: the prediction must track the shrunk trial count, not the
	// stale whole-item average.
	p.RecordTrials("minihdfs", "TestWriteRead", 4, 8)
	s, ok := p.Predict("minihdfs", "TestWriteRead")
	if !ok || s != 8 { // 0.5 s/trial x 16 expected trials (EWMA: 0.5*8 + 0.5*24)
		t.Fatalf("Predict = %v, %v, want 8 (per-trial decomposition)", s, ok)
	}
}

func TestProfileRecordWithoutTrialsFallsBack(t *testing.T) {
	t.Parallel()
	p := NewProfile()
	p.Record("a", "t", 6)
	p.RecordTrials("a", "t", 4, 0) // unknown trials: whole-item only
	if s, ok := p.Predict("a", "t"); !ok || s != 5 {
		t.Fatalf("Predict = %v, %v, want 5 (whole-item EWMA)", s, ok)
	}
	// Nil profile stays inert through the new paths too.
	var nilp *Profile
	nilp.RecordTrials("a", "t", 1, 2)
	if _, ok := nilp.Predict("a", "t"); ok {
		t.Fatal("nil profile predicted")
	}
}

func TestProfileLoadsPreTrialFormat(t *testing.T) {
	t.Parallel()
	// A profile written before trial accounting: same version, no
	// trial_seconds/trials keys. It must load and predict from Seconds.
	path := filepath.Join(t.TempDir(), "old.json")
	os.WriteFile(path, []byte(`{"version":1,"apps":{"minihdfs":{"TestFsck":{"seconds":2.5,"samples":3}}}}`), 0o644)
	p, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := p.Predict("minihdfs", "TestFsck"); !ok || s != 2.5 {
		t.Fatalf("Predict from pre-trial profile = %v, %v, want 2.5", s, ok)
	}
	// Folding a trial observation in upgrades the estimate in place and
	// round-trips through the same version-1 format.
	p.RecordTrials("minihdfs", "TestFsck", 3, 6)
	out := filepath.Join(t.TempDir(), "new.json")
	if err := p.Save(out); err != nil {
		t.Fatal(err)
	}
	p2, err := LoadProfile(out)
	if err != nil {
		t.Fatal(err)
	}
	// 0.5 s/trial x 6 trials; the whole-item EWMA alone would say 2.75.
	if s, ok := p2.Predict("minihdfs", "TestFsck"); !ok || s != 3 {
		t.Fatalf("Predict after upgrade round-trip = %v, %v, want 3 (per-trial decomposition)", s, ok)
	}
}
