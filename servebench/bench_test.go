package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/resource"
)

// stream renders n requests of one connection's generator, accepting
// the places a seeded script accepts, as the bytes sent on the wire.
func stream(seed int64, lifo bool, n int) []byte {
	types := workloads[0].vmTypes()
	g := newGenerator(seed, 0, types)
	g.lifo = lifo
	script := rand.New(rand.NewSource(99))
	var buf []byte
	for i := 0; i < n; i++ {
		r := g.next(churnPlace(len(g.resident), 50))
		buf = appendRequest(buf, "127.0.0.1:1", types, r)
		if r.kind == kindPlace && script.Intn(4) != 0 {
			g.accepted(r.vm)
		}
	}
	return buf
}

func TestRequestStreamDeterministic(t *testing.T) {
	for _, lifo := range []bool{false, true} {
		a, b := stream(7, lifo, 2000), stream(7, lifo, 2000)
		if !bytes.Equal(a, b) {
			t.Fatalf("lifo=%v: same seed, different streams", lifo)
		}
		if bytes.Equal(a, stream(8, lifo, 2000)) {
			t.Fatalf("lifo=%v: different seeds, same stream", lifo)
		}
		if !bytes.Contains(a, []byte("POST /v1/release")) || !bytes.Contains(a, []byte("POST /v1/place")) {
			t.Fatalf("lifo=%v: stream lacks places or releases", lifo)
		}
	}
}

func TestConnectionsGetDistinctStreams(t *testing.T) {
	types := workloads[0].vmTypes()
	a, b := newGenerator(1, 0, types), newGenerator(1, 1, types)
	ra, rb := a.next(1), b.next(1)
	if ra.vm == rb.vm {
		t.Fatalf("connections 0 and 1 both placed vm %d", ra.vm)
	}
}

func TestPercentileEdges(t *testing.T) {
	cases := []struct {
		xs   []int64
		p    float64
		want int64
	}{
		{nil, 50, 0},
		{[]int64{7}, 1, 7},
		{[]int64{7}, 50, 7},
		{[]int64{7}, 100, 7},
		{[]int64{3, 3, 3, 3}, 50, 3},
		{[]int64{3, 3, 3, 3}, 99, 3},
		{[]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 50, 5},
		{[]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90, 9},
		{[]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 91, 10},
		{[]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 100, 10},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %d, want %d", c.xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{10, 30}}, 80},
		{"disjoint", []interval{{10, 30}, {50, 60}}, 70},
		{"overlapping", []interval{{10, 30}, {20, 40}}, 70},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped", []interval{{-20, 10}, {90, 150}}, 80},
		{"outside", []interval{{200, 300}}, 100},
		{"covering", []interval{{-1, 101}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// metricName is the form every reported metric and workload name
// takes.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q is not [A-Za-z0-9_.-]+", w.name)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the
// repository root lists exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndDefs)
	compare("per_layer", spec.PerLayer, perLayerDefs)
}

func TestChurnPlaceReverts(t *testing.T) {
	if p := churnPlace(100, 100); p != 0.5 {
		t.Errorf("at target: %v, want 0.5", p)
	}
	if churnPlace(90, 100) <= 0.5 || churnPlace(110, 100) >= 0.5 {
		t.Error("mix does not revert toward the target")
	}
	if churnPlace(0, 100) != 0.95 || churnPlace(1000, 100) != 0.05 {
		t.Error("mix is not clamped to [0.05, 0.95]")
	}
}

// TestFoldFlagsViolations feeds the WAL fold ops that break each
// invariant it checks.
func TestFoldFlagsViolations(t *testing.T) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	pms := cat.BuildCluster(1).PMs() // pm 0 is an M3
	newState := func() *foldState {
		st := &foldState{host: map[int]int{}, assign: map[int]resource.Assignment{}, pms: map[int]*foldPM{}}
		for _, pm := range pms {
			st.pms[pm.ID] = &foldPM{pm: pm, used: pm.Shape.Zero()}
		}
		return st
	}
	// m3.large on M3: two 1-unit vCPUs on distinct cores (dims 0-7),
	// 2 memory units (dim 8), one 4-unit disk (dims 9-12).
	good := []record.OpAssign{{Dim: 0, Units: 1}, {Dim: 1, Units: 1}, {Dim: 8, Units: 2}, {Dim: 9, Units: 4}}
	place := func(vm int, a []record.OpAssign) record.Op {
		return record.Op{Kind: record.OpPlace, VM: vm, VMType: "m3.large", PM: 0, PMType: "M3", Assign: a}
	}

	st := newState()
	st.apply(cat, place(1, good))
	st.apply(cat, record.Op{Kind: record.OpRelease, VM: 1, PM: 0})
	if len(st.bad) != 0 || len(st.host) != 0 {
		t.Fatalf("clean place+release flagged: %v", st.bad)
	}

	cases := []struct {
		name string
		ops  []record.Op
		want string
	}{
		{"anti-collocation", []record.Op{place(1, []record.OpAssign{{Dim: 0, Units: 1}, {Dim: 0, Units: 1}, {Dim: 8, Units: 2}, {Dim: 9, Units: 4}})}, "anti-collocation"},
		{"capacity", []record.Op{place(1, good), place(2, good), place(3, good), place(4, good), place(5, good)}, "capacity"},
		{"demand", []record.Op{place(1, []record.OpAssign{{Dim: 0, Units: 1}, {Dim: 8, Units: 2}, {Dim: 9, Units: 4}})}, "demand"},
		{"double place", []record.Op{place(1, good), place(1, good)}, "placed twice"},
		{"unplaced release", []record.Op{{Kind: record.OpRelease, VM: 9, PM: 0}}, "unplaced"},
	}
	for _, c := range cases {
		st := newState()
		for _, op := range c.ops {
			st.apply(cat, op)
		}
		if !strings.Contains(strings.Join(st.bad, "\n"), c.want) {
			t.Errorf("%s: fold reported %q, want a %q violation", c.name, st.bad, c.want)
		}
	}
}
