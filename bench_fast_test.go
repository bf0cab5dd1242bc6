package pagerankvm_test

// Micro-benchmarks for the integer-indexed hot paths (see DESIGN.md
// "Indexing & concurrency model"): id-indexed candidate scoring vs the
// string-key enumeration path, serial vs parallel lattice wiring, and
// the CSR PageRank core vs the slice-based entry point. cmd/prvm-bench
// runs these and records the comparison in BENCH_pr3.json.

import (
	"io"
	"math/rand"
	"sort"
	"testing"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/lattice"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/pagerank"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

// benchPlaceLookup measures one candidate evaluation of Algorithm 2's
// inner loop — "score the best accommodation of this VM on this PM" —
// against the production M3/C3 factored tables, with the id-indexed
// fast path on or off.
func benchPlaceLookup(b *testing.B, opts ...placement.PageRankOption) {
	b.Helper()
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		b.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	placer := placement.NewPageRankVM(reg, append([]placement.PageRankOption{placement.WithSeed(1)}, opts...)...)
	cluster := cat.BuildCluster(4)
	// Load one PM with a realistic mixed profile.
	for id := 0; id < 6; id++ {
		vm, err := cat.NewVM(id, "m3.large")
		if err != nil {
			b.Fatal(err)
		}
		pm, assign, err := placer.Place(cluster, vm, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := cluster.Host(pm, vm, assign); err != nil {
			b.Fatal(err)
		}
	}
	pm := cluster.UsedPMs()[0]
	probe, err := cat.NewVM(10_000, "c3.xlarge")
	if err != nil {
		b.Fatal(err)
	}
	if _, ok := placer.ScoreOn(pm, probe); !ok {
		b.Fatal("probe does not fit the loaded PM")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := placer.ScoreOn(pm, probe); !ok {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkPlaceLookup(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchPlaceLookup(b) })
	b.Run("legacy", func(b *testing.B) { benchPlaceLookup(b, placement.WithoutFastPath()) })
}

// scanShard is one churn-2048 serving shard in steady state: 512 PMs
// per Table II type and ~2,000 resident Table I VMs drawn with
// experiments.VMMix weights, reached by seeded mean-reverting churn
// (the servebench churn mix), so ~300 used PMs hold fragmented
// profiles and each place scans all of them.
type scanShard struct {
	cat      *experiments.Catalog
	placer   *placement.PageRankVM
	cluster  *placement.Cluster
	rng      *rand.Rand
	names    []string
	mix      map[string]float64
	resident []*placement.VM
	nextID   int
}

// scanTarget is the shard's resident population: a quarter of
// churn-2048's 8,000 VMs over four shards.
const scanTarget = 2000

func newScanShard(tb testing.TB) *scanShard {
	tb.Helper()
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		tb.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	s := &scanShard{
		cat:     cat,
		placer:  placement.NewPageRankVM(reg, placement.WithSeed(3)),
		cluster: cat.BuildCluster(512),
		rng:     rand.New(rand.NewSource(3)),
		mix:     experiments.VMMix(),
	}
	for _, vm := range cat.VMs {
		s.names = append(s.names, vm.Name)
	}
	sort.Strings(s.names)
	for len(s.resident) < scanTarget {
		s.host(tb, s.next(tb))
	}
	// Mean-reverting churn: place with probability 0.5 at the target,
	// more below it and less above it.
	for i := 0; i < 4*scanTarget; i++ {
		p := 0.5 + 8*float64(scanTarget-len(s.resident))/scanTarget
		if s.rng.Float64() < p {
			s.host(tb, s.next(tb))
		} else {
			s.release(tb)
		}
	}
	return s
}

// next draws the next VM request from the mix.
func (s *scanShard) next(tb testing.TB) *placement.VM {
	s.nextID++
	vm, err := s.cat.NewVM(s.nextID, experiments.SampleVMType(s.mix, s.names, s.rng.Float64()))
	if err != nil {
		tb.Fatal(err)
	}
	return vm
}

// host places vm with Algorithm 2 and commits the decision.
func (s *scanShard) host(tb testing.TB, vm *placement.VM) {
	pm, assign, err := s.placer.Place(s.cluster, vm, nil)
	if err != nil {
		tb.Fatal(err)
	}
	s.commit(tb, pm, vm, assign)
}

func (s *scanShard) commit(tb testing.TB, pm *placement.PM, vm *placement.VM, assign resource.Assignment) {
	if err := s.cluster.Host(pm, vm, assign); err != nil {
		tb.Fatal(err)
	}
	s.resident = append(s.resident, vm)
}

// release removes a uniformly drawn resident VM.
func (s *scanShard) release(tb testing.TB) {
	k := s.rng.Intn(len(s.resident))
	if _, err := s.cluster.Release(s.resident[k].ID); err != nil {
		tb.Fatal(err)
	}
	s.resident[k] = s.resident[len(s.resident)-1]
	s.resident = s.resident[:len(s.resident)-1]
}

// BenchmarkPlaceScan times Algorithm 2's scan where serving spends it:
// one op is one place plus one release on a churn-2048 shard in steady
// state, so every place scans ~300 used PMs of which only the ones the
// previous op touched changed profile.
func BenchmarkPlaceScan(b *testing.B) {
	s := newScanShard(b)
	b.ReportMetric(float64(s.cluster.NumUsed()), "used_pms")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.host(b, s.next(b))
		s.release(b)
	}
}

// BenchmarkRecordOverhead measures one full Place decision against the
// production catalog with decision recording off and on. "off" is the
// acceptance bar: a disabled recorder must cost nothing measurable
// (one nil check) relative to the pre-recording hot path; "on" prices
// the candidate capture + JSONL encode for capacity planning. The
// ~25ns ScoreOn path itself carries no recording branch at all — see
// BenchmarkPlaceLookup for its unchanged numbers.
func BenchmarkRecordOverhead(b *testing.B) {
	run := func(b *testing.B, rec *record.Recorder) {
		b.Helper()
		cat, err := experiments.AmazonCatalog()
		if err != nil {
			b.Fatal(err)
		}
		reg, err := cat.BuildRegistry(ranktable.Options{})
		if err != nil {
			b.Fatal(err)
		}
		placer := placement.NewPageRankVM(reg,
			placement.WithSeed(1), placement.WithRecorder(rec))
		cluster := cat.BuildCluster(4)
		for id := 0; id < 6; id++ {
			vm, err := cat.NewVM(id, "m3.large")
			if err != nil {
				b.Fatal(err)
			}
			pm, assign, err := placer.Place(cluster, vm, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := cluster.Host(pm, vm, assign); err != nil {
				b.Fatal(err)
			}
		}
		probe, err := cat.NewVM(10_000, "c3.xlarge")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Place without Host: a pure decision, repeatable each
			// iteration against the same cluster state.
			if _, _, err := placer.Place(cluster, probe, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) {
		rec, err := record.NewWriter(io.Discard, record.RunMeta{Kind: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		run(b, rec)
	})
}

// BenchmarkSpaceWire builds the heaviest production sub-lattice (the
// M3 disk group: C(35,4) = 52360 nodes) serially and with all cores.
func BenchmarkSpaceWire(b *testing.B) {
	shape := resource.MustShape(resource.Group{Name: "disk", Dims: 4, Cap: 31})
	types := []resource.VMType{
		resource.NewVMType("m3.large", resource.Demand{Group: "disk", Units: []int{5}}),
		resource.NewVMType("m3.xlarge", resource.Demand{Group: "disk", Units: []int{5, 5}}),
		resource.NewVMType("m3.2xlarge", resource.Demand{Group: "disk", Units: []int{10, 10}}),
	}
	run := func(b *testing.B, workers int) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := lattice.NewSpace(shape, types, lattice.Options{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			if s.Edges() == 0 {
				b.Fatal("no edges wired")
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// BenchmarkTableCache prices the shape-keyed table cache: "hit" is the
// steady-state lookup of an already-built table (key assembly in a
// stack buffer + map probe + closed-channel receive; must be
// zero-alloc, see alloc_gate_test.go), "miss" is a cold build through
// the cache on a small lattice — the cost a heterogeneous fleet pays
// once per distinct (shape, VM types, options) key.
func BenchmarkTableCache(b *testing.B) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	types := []resource.VMType{
		resource.NewVMType("[1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1}}),
		resource.NewVMType("[2]", resource.Demand{Group: "cpu", Units: []int{2}}),
	}
	b.Run("hit", func(b *testing.B) {
		c := ranktable.NewCache(0, nil)
		opts := ranktable.Options{Cache: c}
		if _, err := ranktable.NewJoint(shape, types, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ranktable.NewJoint(shape, types, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opts := ranktable.Options{Cache: ranktable.NewCache(0, nil)}
			if _, err := ranktable.NewJoint(shape, types, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRanksCSR compares the PageRank iteration over a prebuilt
// CSR graph with the per-node-slice entry point (which must flatten
// per call) on the paper's example lattice scaled up.
func BenchmarkRanksCSR(b *testing.B) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 6, Cap: 6})
	types := []resource.VMType{
		resource.NewVMType("[1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1}}),
		resource.NewVMType("[2,2,2]", resource.Demand{Group: "cpu", Units: []int{2, 2, 2}}),
	}
	s, err := lattice.NewSpace(shape, types, lattice.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g := pagerank.CSR{Offsets: s.SuccOffsets(), Edges: s.SuccArena()}
	succ := make([][]int32, s.Len())
	for i := range succ {
		succ[i] = s.Succ(i)
	}
	b.Run("slices", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pagerank.Ranks(succ, pagerank.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pagerank.RanksCSR(g, pagerank.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
