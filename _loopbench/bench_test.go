package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsFixedBySeed(t *testing.T) {
	for _, w := range workloads {
		if w.rounds < 1 {
			t.Errorf("%s: %d rounds", w.name, w.rounds)
		}
		a := w.makeSchedule(7, 3*time.Second)
		if b := w.makeSchedule(7, 3*time.Second); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", w.name)
		}
		if c := w.makeSchedule(8, 3*time.Second); reflect.DeepEqual(a.edits, c.edits) {
			t.Errorf("%s: seeds 7 and 8 gave the same edits", w.name)
		}
		if want := int(3 * w.rate); len(a.edits) < want*9/10 || len(a.edits) > want*11/10 {
			t.Errorf("%s: %d edits in 3s, want about %d", w.name, len(a.edits), want)
		}
		if want := int(3 * w.joinRate); len(a.joins) < want*8/10 || len(a.joins) > want*12/10 {
			t.Errorf("%s: %d joins in 3s, want about %d", w.name, len(a.joins), want)
		}
	}
}

// Documents start and stay near targetLen runes, so per-edit costs do not
// drift with length over a run.
func TestScheduleHoldsDocumentLength(t *testing.T) {
	for _, w := range workloads {
		s := w.makeSchedule(1, 20*time.Second)
		typistDoc := w.typistDocs()
		lens := make([]int, len(w.docs))
		for d, ops := range s.prefill {
			if len(ops) != w.prefillOps {
				t.Errorf("%s doc %d: %d prefill ops, want %d", w.name, d, len(ops), w.prefillOps)
			}
			for _, op := range ops {
				lens[d] += step(op.insert)
			}
		}
		for _, e := range s.edits {
			d := typistDoc[e.typist]
			lens[d] += step(e.insert)
			if lens[d] < targetLen-100 || lens[d] > targetLen+100 {
				t.Fatalf("%s doc %d: nominal length %d strays from %d", w.name, d, lens[d], targetLen)
			}
		}
	}
}

func step(insert bool) int {
	if insert {
		return 1
	}
	return -1
}

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true},
		{100, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true},
		{9999, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	} {
		p, ok := highestSupported(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	d := dist{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.2: 1, 0.5: 3, 0.6: 3, 0.61: 4, 0.99: 5, 1: 5} {
		if got := d.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := (dist{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestCombine(t *testing.T) {
	var rounds [][]metric
	for i, v := range []float64{3, 1, 2} {
		rounds = append(rounds, []metric{
			{name: "cpu", value: v},
			{name: "edits_per_s", value: v},
			{name: "setup_s", value: v},
			// 30 samples support p50 but not p99; 5 support neither.
			timing("wide_p50", dist(make([]float64, 30)).plus(v), 0.5),
			timing("thin_p50", dist{v, v, v, 10 * v, 10 * v}, 0.5),
			timing("wide_p99", dist(make([]float64, 30)).plus(float64(i)), 0.99),
			// 20 samples support p50; each round's p50 is v, the pool's 3.
			pooled("pooled_p50", append(dist(make([]float64, 10)).plus(v), dist(make([]float64, 10)).plus(100)...), 0.5),
		})
	}
	want := map[bool]map[string]float64{
		true:  {"cpu": 1, "edits_per_s": 2, "setup_s": 2, "wide_p50": 1, "thin_p50": 3, "wide_p99": 2, "pooled_p50": 3},
		false: {"cpu": 2, "edits_per_s": 2, "setup_s": 2, "wide_p50": 2, "thin_p50": 3, "wide_p99": 2, "pooled_p50": 3},
	}
	for _, best := range []bool{true, false} {
		for _, m := range combine(rounds, best) {
			if m.value != want[best][m.name] {
				t.Errorf("best=%v: %s = %v, want %v", best, m.name, m.value, want[best][m.name])
			}
		}
	}
}

func (d dist) plus(v float64) dist {
	for i := range d {
		d[i] += v
	}
	return d
}

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBenchmarkJSONListsTheWorkloads(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d = %+v, want %q: %q", i, s.Workloads[i], w.name, w.why)
		}
	}
}

// TestSmoke runs every workload for a couple of seconds against a real
// sessiond, untraced and traced, and checks that it converges and reports
// exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts sessiond")
	}
	s := readSpec(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "sessiond")
	if err := buildDaemon("..", bin); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opt := options{seed: 3, window: 2 * time.Second, traced: traced, rounds: 1, audits: 2, bin: bin, dir: dir, verbose: io.Discard}
			res, err := runWorkload(w, opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < int(w.rate) {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced && res.Metrics["edit_visible_p50_ms"].Value <= 0 {
				t.Errorf("%s: no edit latency measured", w.name)
			}
		}
	}
}
