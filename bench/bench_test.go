package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// dist workload re-executes os.Executable() as its worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		traceDir := ""
		if len(os.Args) == 4 && os.Args[2] == "-trace-dir" {
			traceDir = os.Args[3]
		}
		os.Exit(serveWorker(traceDir))
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables the
// program prints from: same workloads, same metrics, same units,
// directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// checkMetrics asserts that res carries exactly the metrics of defs, each
// finite and in the table's unit.
func checkMetrics(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", res.Workload, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", res.Workload, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s in %q, want %q", res.Workload, d.Name, m.Unit, d.Unit)
		}
	}
}

// smoke sets a workload up once and runs one pass twice on the same
// seeds, the second time traced. It is the whole pipeline at its
// smallest: the oracle check, the count check against the pinned values
// and between the two runs, every end-to-end metric and every
// span-derived layer metric.
func smoke(t *testing.T, w *workload) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	rc := &runCtx{w: w, seed: 0, dir: t.TempDir(), exe: exe, apps: []string{"miniflink"}}
	oracle, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	chk := &checker{oracle: oracle}
	setups, err := setUp(rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := measure(rc, chk, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := &runResult{Workload: w.name, Metrics: make(map[string]metric)}
	res.setEndToEnd(plain, setups)
	checkMetrics(t, res, endToEnd)
	for _, d := range endToEnd {
		if res.Metrics[d.Name].Value <= 0 {
			t.Errorf("%s: %s = %v, want > 0", w.name, d.Name, res.Metrics[d.Name].Value)
		}
	}
	for _, d := range unbounded {
		if m := res.Unbounded[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("%s: %s = %+v, want > 0 in %s", w.name, d.Name, m, d.Unit)
		}
	}

	rc.rec = &recorder{dir: t.TempDir()}
	traced, err := measure(rc, chk, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := rc.rec.stitched()
	if err != nil {
		t.Fatal(err)
	}
	lt := analyze(spans, w.slots)
	if lt.bodyCount == 0 || lt.bodyS <= 0 || len(lt.passSeconds) != 1 {
		t.Errorf("%s: traced pass recorded %d bodies, %.3f s, %d passes", w.name, lt.bodyCount, lt.bodyS, len(lt.passSeconds))
	}
	if lt.selfS < 0 || lt.idleS < 0 {
		t.Errorf("%s: self %.4f s, idle %.4f s: spans do not nest", w.name, lt.selfS, lt.idleS)
	}
	if w.name == "threeapp-dist2" && lt.submitToResultS <= 0 {
		t.Errorf("%s: no worker span was stitched to a submitted item", w.name)
	}
	if w.name == "threeapp-warm" && lt.getCount == 0 {
		t.Errorf("%s: the timing backend saw no Get", w.name)
	}

	if plain.resolved != traced.resolved {
		t.Errorf("%s: two runs of one seed resolved %d and %d executions", w.name, plain.resolved, traced.resolved)
	}
	// One campaign per pass: flink-cpu's own, or the one smoke app.
	if chk.attempted != 2 || len(chk.failures) != 0 || chk.drifted != 0 {
		t.Errorf("%s: attempted %d, drifted %d, failures %v", w.name, chk.attempted, chk.drifted, chk.failures)
	}
}

// TestSmoke runs every workload at its smallest. yarn-wait's pass is four
// seconds of waiting around the same in-process campaign.Run that
// flink-cpu makes, so it is represented by its set-up, the pre-run sweep
// (and miniyarn by threeapp-dist2's set-up); the threeapp workloads pass
// over their smallest app only.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if w.name == "yarn-wait" {
				rc := &runCtx{w: w, seed: 0, dir: t.TempDir()}
				setups, err := setUp(rc, 1)
				if err != nil {
					t.Fatal(err)
				}
				if setups[0] <= 0 {
					t.Errorf("set-up took %v s", setups[0])
				}
				return
			}
			smoke(t, w)
		})
	}
}

// TestLadder runs every rung once and holds the result to the table: the
// ladder and the span analysis together must produce every per-layer
// metric, in the table's unit.
func TestLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("the ladder takes about five seconds")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out, err := runLadder(&runCtx{seed: 1, dir: t.TempDir(), exe: exe})
	if err != nil {
		t.Fatal(err)
	}
	res := &runResult{Workload: "ladder", Metrics: out}
	for _, name := range []string{"apps.body_s", "apps.body_count", "campaign.slot_idle_s", "campaign.self_s",
		"campaign.exec_per_s", "campaign.cpu_s_per_kexec", "memo.served_ratio", "diskcache.backend_get_s", "diskcache.backend_get_count", "diskcache.backend_put_s",
		"dist.submit_to_result_s", "trace.overhead_pct"} {
		res.layer(name, 0) // the span-derived ones, which TestSmoke covers
	}
	checkMetrics(t, res, perLayer)
}

func TestIQRShareMatchesPython(t *testing.T) {
	// statistics.quantiles([...], n=4) on these ten values gives
	// [2.75, 5.5, 8.25]: (8.25-2.75)/5.5 = 1.
	xs := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	if got := iqrShare(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestCompare(t *testing.T) {
	set := func(scale float64) resultSet {
		var rs resultSet
		for _, w := range workloads {
			for i := 0; i < 5; i++ {
				r := &runResult{Workload: w.name, Metrics: make(map[string]metric)}
				for _, d := range endToEnd {
					v := 100 + float64(i)
					if d.Name == "makespan_s" {
						v *= scale
					}
					r.set(d.Name, v)
				}
				// Unbounded numbers may move by any amount without a verdict.
				r.Unbounded = map[string]metric{"exec_per_s": {100 / scale / scale / scale, "1/s"}, "cpu_s_per_kexec": {100, "s"}}
				rs.Runs = append(rs.Runs, r)
			}
		}
		return rs
	}
	dir := t.TempDir()
	write := func(name string, rs resultSet) string {
		path := filepath.Join(dir, name)
		if err := writeResultSet(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", set(1))
	bound := lookupMetric(endToEnd, "makespan_s").Bound
	if code := runCompare(base, write("same.json", set(1+bound/2))); code != 0 {
		t.Errorf("half the bound worse: exit %d, want 0", code)
	}
	if code := runCompare(base, write("worse.json", set(1+2*bound))); code != 1 {
		t.Errorf("twice the bound worse: exit %d, want 1", code)
	}
	if code := runCompare(base, write("better.json", set(0.5))); code != 0 {
		t.Errorf("twice as fast: exit %d, want 0", code)
	}
}
