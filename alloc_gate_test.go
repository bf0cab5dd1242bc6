//go:build !race

package pagerankvm_test

// Allocation gate for the ScoreOn fast path (a ~24ns memo read) and
// the steady-state Algorithm 2 decision: the hotalloc analyzer holds
// the annotated functions allocation-free statically, and these tests
// hold them there at runtime. Excluded under -race because the race
// runtime instruments allocations and skews the counts.

import (
	"runtime"
	"testing"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

func TestScoreOnZeroAllocs(t *testing.T) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	placer := placement.NewPageRankVM(reg, placement.WithSeed(1))
	cluster := cat.BuildCluster(4)
	for id := 0; id < 6; id++ {
		vm, err := cat.NewVM(id, "m3.large")
		if err != nil {
			t.Fatal(err)
		}
		pm, assign, err := placer.Place(cluster, vm, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.Host(pm, vm, assign); err != nil {
			t.Fatal(err)
		}
	}
	pm := cluster.UsedPMs()[0]
	probe, err := cat.NewVM(10_000, "c3.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	// Warm the per-PM node-id cache so the measured loop is pure
	// steady state — exactly what BenchmarkPlaceLookup/fast times.
	if _, ok := placer.ScoreOn(pm, probe); !ok {
		t.Fatal("probe does not fit the loaded PM")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := placer.ScoreOn(pm, probe); !ok {
			t.Fatal("lookup failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("ScoreOn fast path allocates %.1f times per op, want 0", allocs)
	}
}

// TestCacheHitZeroAllocs holds the table-cache hit path allocation-free:
// the key is assembled in a stack buffer, the probe goes through the
// compiler's map[string(bytes)] optimization, and waiting on the
// completed build is a receive from an already-closed channel.
func TestCacheHitZeroAllocs(t *testing.T) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	cache := ranktable.NewCache(0, nil)
	opts := ranktable.Options{Cache: cache}
	// Warm the cache with the production heterogeneous fleet: every
	// factored key and every per-group joint key lands in the cache.
	if _, err := cat.BuildRegistry(opts); err != nil {
		t.Fatal(err)
	}
	pm := cat.PMs[0]
	shape, ok := cat.Shape(pm.Name)
	if !ok {
		t.Fatalf("no shape for %s", pm.Name)
	}
	var types []resource.VMType
	for _, vm := range cat.VMs {
		d, ok := cat.Demand(pm.Name, vm.Name)
		if ok && d.Validate(shape) == nil {
			types = append(types, d)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ranktable.NewFactored(shape, types, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit table lookup allocates %.1f times per op, want 0", allocs)
	}
}

// TestPlaceSteadyStateAllocs holds a full Algorithm 2 decision on a
// churn-2048 shard at no more than 3 allocations: the winner's
// materialized assignment, nothing per scanned PM. The PM-side memo
// allocates only on a PM's first scoring; after warm-up every PM the
// churn touches has been scored, so a profile change re-fills the
// memo in place. Only Place is counted — the request's VM and the
// cluster commit allocate outside it.
func TestPlaceSteadyStateAllocs(t *testing.T) {
	s := newScanShard(t)
	const ops = 300
	var before, after runtime.MemStats
	var allocs uint64
	for i := 0; i < ops; i++ {
		vm := s.next(t)
		runtime.ReadMemStats(&before)
		pm, assign, err := s.placer.Place(s.cluster, vm, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs += after.Mallocs - before.Mallocs
		s.commit(t, pm, vm, assign)
		s.release(t)
	}
	perOp := float64(allocs) / ops
	t.Logf("Place allocates %.2f times per decision", perOp)
	if perOp > 3 {
		t.Fatalf("Place allocates %.2f times per decision in steady state, want <= 3", perOp)
	}
}
