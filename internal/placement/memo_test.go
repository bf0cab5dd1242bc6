package placement_test

// Tests for the fast path's PM-side memo (rankCache in pagerankvm.go):
// the memo stands in for a feasibility check, so BestMove must find a
// move exactly when resource.Fits holds, and a memoised answer must
// never outlive the profile or the ranker it was computed for.

import (
	"math"
	"math/rand"
	"testing"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

// setProfile loads an empty PM to exactly profile by hosting one
// filler VM whose assignment covers every dimension's units.
func setProfile(t *testing.T, pm *placement.PM, profile resource.Vec, id int) {
	t.Helper()
	var assign resource.Assignment
	for d, u := range profile {
		if u > 0 {
			assign = append(assign, resource.DimUnits{Dim: d, Units: u})
		}
	}
	c := placement.NewCluster([]*placement.PM{pm})
	if err := c.Host(pm, &placement.VM{ID: id, Type: "filler"}, assign); err != nil {
		t.Fatal(err)
	}
}

// randomProfile draws a valid profile at a random fill level, so both
// near-empty and near-full PMs come up.
func randomProfile(rng *rand.Rand, shape *resource.Shape) resource.Vec {
	caps := shape.Capacity()
	level := rng.Float64()
	p := make(resource.Vec, len(caps))
	for d, c := range caps {
		p[d] = rng.Intn(int(level*float64(c)) + 1)
	}
	return p
}

// TestBestMoveOKIffFits is the proof that the fast path needs no
// feasibility check: over seeded random in-lattice profiles of every
// PM type × VM type of the Table II catalog, ScoreOn (the memoised
// fast path) succeeds exactly when PM.Fits holds, and so does the
// ranker's BestMove. TestBestMoveOKIffFits16Core repeats it on a
// 16-core host.
func TestBestMoveOKIffFits(t *testing.T) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	checkBestMoveOKIffFits(t, cat, 14)
}

func checkBestMoveOKIffFits(t *testing.T, cat *experiments.Catalog, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	placer := placement.NewPageRankVM(reg)
	for _, spec := range cat.PMs {
		shape, _ := cat.Shape(spec.Name)
		ranker, _ := reg.Get(spec.Name)
		fr, ok := ranker.(ranktable.FastRanker)
		if !ok || !fr.Fast() {
			t.Fatalf("%s: ranker offers no fast path", spec.Name)
		}
		var fits, misses int
		for trial := 0; trial < 200; trial++ {
			pm := placement.NewPM(trial, spec.Name, shape)
			setProfile(t, pm, randomProfile(rng, shape), -1)
			ids, ok := fr.NodeIDs(pm.Used(), nil)
			if !ok {
				t.Fatalf("%s: profile %v outside the lattice", spec.Name, pm.Used())
			}
			for i, vmSpec := range cat.VMs {
				vm, err := cat.NewVM(i, vmSpec.Name)
				if err != nil {
					t.Fatal(err)
				}
				want := pm.Fits(vm)
				if _, got := placer.ScoreOn(pm, vm); got != want {
					t.Fatalf("%s %v + %s: ScoreOn ok=%v, Fits=%v", spec.Name, pm.Used(), vmSpec.Name, got, want)
				}
				demand, _ := vm.DemandOn(spec.Name)
				if demand.Validate(shape) != nil {
					continue // never fits; not in the ranker's type set
				}
				ref, ok := fr.ResolveType(demand)
				if !ok {
					t.Fatalf("%s: %s does not resolve", spec.Name, vmSpec.Name)
				}
				if _, _, got := fr.BestMove(ids, ref); got != want {
					t.Fatalf("%s %v + %s: BestMove ok=%v, Fits=%v", spec.Name, pm.Used(), vmSpec.Name, got, want)
				}
				if want {
					fits++
				} else {
					misses++
				}
			}
		}
		if fits == 0 || misses == 0 {
			t.Fatalf("%s: %d fitting and %d non-fitting cases; the draw must cover both", spec.Name, fits, misses)
		}
	}
}

// memoWorld is a seeded cluster driven by the memoised fast path, with
// a mirror cluster driven in lockstep by an enumeration-path placer
// (which has no memo) as the reference.
type memoWorld struct {
	t       *testing.T
	cat     *experiments.Catalog
	rng     *rand.Rand
	c, mc   *placement.Cluster
	mirror  map[int]*placement.PM
	fast    *placement.PageRankVM
	slow    *placement.PageRankVM
	live    []*placement.VM
	nextID  int
	retired int
}

func newMemoWorld(t *testing.T, cat *experiments.Catalog, reg *ranktable.Registry, seed int64) *memoWorld {
	w := &memoWorld{
		t:      t,
		cat:    cat,
		rng:    rand.New(rand.NewSource(seed)),
		c:      cat.BuildCluster(6),
		mc:     cat.BuildCluster(6),
		mirror: make(map[int]*placement.PM),
		fast:   placement.NewPageRankVM(reg, placement.WithSeed(seed)),
		slow:   placement.NewPageRankVM(reg, placement.WithSeed(seed), placement.WithoutFastPath()),
	}
	for _, pm := range w.mc.PMs() {
		w.mirror[pm.ID] = pm
	}
	return w
}

// step applies one seeded random mutation to both clusters.
func (w *memoWorld) step() {
	t := w.t
	switch r := w.rng.Intn(20); {
	case r < 9 || len(w.live) == 0: // place, sometimes excluding a used PM
		vm, err := w.cat.NewVM(w.nextID, w.cat.VMs[w.rng.Intn(len(w.cat.VMs))].Name)
		if err != nil {
			t.Fatal(err)
		}
		w.nextID++
		var exclude, mexclude *placement.PM
		if used := w.c.UsedPMs(); len(used) > 0 && w.rng.Intn(4) == 0 {
			exclude = used[w.rng.Intn(len(used))]
			mexclude = w.mirror[exclude.ID]
		}
		pm, assign, err := w.fast.Place(w.c, vm, exclude)
		mpm, massign, merr := w.slow.Place(w.mc, vm, mexclude)
		if (err == nil) != (merr == nil) {
			t.Fatalf("place vm %d: memo err %v, enumeration err %v", vm.ID, err, merr)
		}
		if err != nil {
			return
		}
		if pm.ID != mpm.ID || !sameAssign(assign, massign) {
			t.Fatalf("place vm %d: memo chose pm %d %v, enumeration pm %d %v", vm.ID, pm.ID, assign, mpm.ID, massign)
		}
		if err := w.c.Host(pm, vm, assign); err != nil {
			t.Fatal(err)
		}
		if err := w.mc.Host(mpm, vm, massign); err != nil {
			t.Fatal(err)
		}
		w.live = append(w.live, vm)
	case r < 14: // release
		k := w.rng.Intn(len(w.live))
		for _, c := range []*placement.Cluster{w.c, w.mc} {
			if _, err := c.Release(w.live[k].ID); err != nil {
				t.Fatal(err)
			}
		}
		w.live = append(w.live[:k], w.live[k+1:]...)
	case r < 16: // cordon toggle
		pm := w.c.PMs()[w.rng.Intn(len(w.c.PMs()))]
		pm.SetCordoned(!pm.Cordoned())
		w.mirror[pm.ID].SetCordoned(pm.Cordoned())
	case r < 17: // retire an unused PM, keeping most of the fleet
		unused := w.c.UnusedPMs()
		if w.retired >= 3 || len(unused) == 0 {
			return
		}
		pm := unused[w.rng.Intn(len(unused))]
		if err := w.c.Retire(pm); err != nil {
			t.Fatal(err)
		}
		if err := w.mc.Retire(w.mirror[pm.ID]); err != nil {
			t.Fatal(err)
		}
		w.retired++
	default: // reorder both lists
		used, unused := ids(w.c.UsedPMs()), ids(w.c.UnusedPMs())
		w.rng.Shuffle(len(used), func(i, j int) { used[i], used[j] = used[j], used[i] })
		w.rng.Shuffle(len(unused), func(i, j int) { unused[i], unused[j] = unused[j], unused[i] })
		for _, c := range []*placement.Cluster{w.c, w.mc} {
			if err := c.Reorder(used, unused); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkScores compares, for every used PM × VM type, the memoised
// ScoreOn of p against ref's on the mirror PM, bitwise. It returns the
// memoised scores in scan order.
func (w *memoWorld) checkScores(p, ref *placement.PageRankVM, probes []*placement.VM) []float64 {
	var scores []float64
	for _, pm := range w.c.UsedPMs() {
		for _, vm := range probes {
			got, gotOK := p.ScoreOn(pm, vm)
			want, wantOK := ref.ScoreOn(w.mirror[pm.ID], vm)
			if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				w.t.Fatalf("pm %d %v + %s: memo ScoreOn = %v,%v, fresh = %v,%v", pm.ID, pm.Used(), vm.Type, got, gotOK, want, wantOK)
			}
			scores = append(scores, got)
		}
	}
	return scores
}

func ids(pms []*placement.PM) []int {
	out := make([]int, len(pms))
	for i, pm := range pms {
		out[i] = pm.ID
	}
	return out
}

func sameAssign(a, b resource.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func probeVMs(t *testing.T, cat *experiments.Catalog) []*placement.VM {
	t.Helper()
	var probes []*placement.VM
	for i, spec := range cat.VMs {
		vm, err := cat.NewVM(-1-i, spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, vm)
	}
	return probes
}

// TestMemoTracksEveryMutation drives seeded random host, release,
// cordon, Retire and Reorder steps. After every step each used PM ×
// VM type must score through the memo exactly as through a placer with
// no memo, and every Place must agree with an enumeration-path placer
// on a mirror cluster. A mutation path that skipped PM.gen++ would
// leave a stale memo entry and fail here.
func TestMemoTracksEveryMutation(t *testing.T) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	probes := probeVMs(t, cat)
	for seed := int64(1); seed <= 3; seed++ {
		w := newMemoWorld(t, cat, reg, seed)
		for i := 0; i < 200; i++ {
			w.step()
			w.checkScores(w.fast, w.slow, probes)
		}
		if w.c.NumUsed() == 0 {
			t.Fatalf("seed %d: no used PMs at the end; the walk exercised nothing", seed)
		}
	}
}

// TestMemoOwnerSwitch alternates two registries — same lattices,
// different scores — on the same PMs: each placer's memoised answers
// must be its own registry's, never the other's left behind.
func TestMemoOwnerSwitch(t *testing.T) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	regA, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	regB, err := cat.BuildRegistry(ranktable.Options{Mode: ranktable.ModeForwardPR})
	if err != nil {
		t.Fatal(err)
	}
	probes := probeVMs(t, cat)
	w := newMemoWorld(t, cat, regA, 5)
	b := placement.NewPageRankVM(regB)
	bRef := placement.NewPageRankVM(regB, placement.WithoutFastPath())
	differ := 0
	for i := 0; i < 200; i++ {
		w.step()
		a := w.checkScores(w.fast, w.slow, probes)
		bs := w.checkScores(b, bRef, probes)
		for k := range a {
			if math.Float64bits(a[k]) != math.Float64bits(bs[k]) {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatal("the two registries scored every case alike; the owner switch was not exercised")
	}
}
