package deschedule

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

// Fixtures mirror the placement package's testbed: one "small" PM type
// with 4 cores of capacity 4 and two VM shapes.

const pmSmall = "small"

func smallShape() *resource.Shape {
	return resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
}

func smallVMTypes() []resource.VMType {
	return []resource.VMType{
		resource.NewVMType("[1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1}}),
		resource.NewVMType("[1,1,1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1, 1, 1}}),
	}
}

func newVM(id int, typeName string) *placement.VM {
	var vt resource.VMType
	for _, t := range smallVMTypes() {
		if t.Name == typeName {
			vt = t
		}
	}
	return &placement.VM{ID: id, Type: typeName, Req: map[string]resource.VMType{pmSmall: vt}}
}

func newCluster(n int) *placement.Cluster {
	shape := smallShape()
	pms := make([]*placement.PM, n)
	for i := range pms {
		pms[i] = placement.NewPM(i, pmSmall, shape)
	}
	return placement.NewCluster(pms)
}

func smallRegistry(t *testing.T) *ranktable.Registry {
	t.Helper()
	table, err := ranktable.NewJoint(smallShape(), smallVMTypes(), ranktable.Options{})
	if err != nil {
		t.Fatalf("NewJoint: %v", err)
	}
	reg := ranktable.NewRegistry()
	reg.Add(pmSmall, table)
	return reg
}

// mustHost pins a VM onto a specific PM with a greedy assignment.
func mustHost(t *testing.T, c *placement.Cluster, pm *placement.PM, vm *placement.VM) {
	t.Helper()
	demand, ok := vm.DemandOn(pm.Type)
	if !ok {
		t.Fatalf("vm %d has no demand for pm type %s", vm.ID, pm.Type)
	}
	assign := resource.GreedyAssign(pm.Shape, pm.Used(), demand)
	if assign == nil {
		t.Fatalf("vm %d does not fit pm %d", vm.ID, pm.ID)
	}
	if err := c.Host(pm, vm, assign); err != nil {
		t.Fatal(err)
	}
}

// vmSet snapshots vm id -> hosting PM id for conservation checks.
func vmSet(c *placement.Cluster) map[int]int {
	out := map[int]int{}
	for _, pm := range c.UsedPMs() {
		for id := range pm.VMs() {
			out[id] = pm.ID
		}
	}
	return out
}

func TestDrainPassConsolidates(t *testing.T) {
	c := newCluster(4)
	p := placement.NewPageRankVM(smallRegistry(t), placement.WithSeed(1))
	// Three PMs each hosting one [1,1]: fill 2/16 = 0.125, all under a
	// 0.3 drain threshold. A round must pack them onto fewer PMs.
	for i := 0; i < 3; i++ {
		mustHost(t, c, c.PMs()[i], newVM(i, "[1,1]"))
	}
	before := vmSet(c)

	e := New(p, Config{DrainBelow: 0.3})
	st := e.Rebalance(c)

	if st.DrainMoves == 0 || st.PMsFreed < 1 {
		t.Fatalf("stats %+v: drain pass freed nothing", st)
	}
	if c.NumUsed() >= 3 {
		t.Fatalf("still %d active PMs after drain round", c.NumUsed())
	}
	after := vmSet(c)
	if len(after) != len(before) {
		t.Fatalf("VM count changed: %d -> %d", len(before), len(after))
	}
	for id := range before {
		if _, ok := after[id]; !ok {
			t.Fatalf("vm %d lost during rebalance", id)
		}
	}
}

func TestRebalanceNeverOpensFreshPM(t *testing.T) {
	c := newCluster(6)
	p := placement.NewPageRankVM(smallRegistry(t), placement.WithSeed(1))
	rng := rand.New(rand.NewSource(7))
	id := 0
	for i := 0; i < 4; i++ {
		pm := c.PMs()[i]
		for j := 0; j <= rng.Intn(3); j++ {
			mustHost(t, c, pm, newVM(id, "[1,1]"))
			id++
		}
	}
	used := c.NumUsed()

	e := New(p, Config{DrainBelow: 0.5})
	for round := 0; round < 3; round++ {
		e.Rebalance(c)
		if c.NumUsed() > used {
			t.Fatalf("round %d grew active PMs %d -> %d", round, used, c.NumUsed())
		}
		used = c.NumUsed()
	}
}

func TestRebalanceBudget(t *testing.T) {
	c := newCluster(4)
	p := placement.NewPageRankVM(smallRegistry(t), placement.WithSeed(1))
	for i := 0; i < 3; i++ {
		mustHost(t, c, c.PMs()[i], newVM(i, "[1,1]"))
	}

	e := New(p, Config{DrainBelow: 0.5, MaxMovesPerRound: 1})
	st := e.Rebalance(c)
	if st.Moves > 1 {
		t.Fatalf("budget 1 but %d moves committed", st.Moves)
	}
	if !st.BudgetExhausted {
		t.Fatalf("stats %+v: spent budget not reported", st)
	}
}

func TestDrainIsAllOrNothing(t *testing.T) {
	c := newCluster(3)
	p := placement.NewPageRankVM(smallRegistry(t), placement.WithSeed(1))
	// The drain candidate hosts two VMs but the per-PM cap is 1: a
	// partial drain would strand one VM on a PM that stays powered, so
	// the engine must leave both in place and flag the skipped work.
	src := c.PMs()[0]
	mustHost(t, c, src, newVM(0, "[1,1]"))
	mustHost(t, c, src, newVM(1, "[1,1]"))
	// The destination sits at fill 0.5, above the threshold, so it is
	// never itself a drain candidate.
	mustHost(t, c, c.PMs()[1], newVM(2, "[1,1,1,1]"))
	mustHost(t, c, c.PMs()[1], newVM(3, "[1,1,1,1]"))

	e := New(p, Config{DrainBelow: 0.3, MaxMovesPerPM: 1, MinGainFrac: 1000})
	st := e.Rebalance(c)
	if st.DrainMoves != 0 {
		t.Fatalf("stats %+v: partial drain committed", st)
	}
	if !st.BudgetExhausted {
		t.Fatalf("stats %+v: skipped drain not reported as budget pressure", st)
	}
	if src.NumVMs() != 2 {
		t.Fatalf("source lost VMs: %d left", src.NumVMs())
	}
}

func TestRebalanceSkipsCordonedPM(t *testing.T) {
	c := newCluster(3)
	p := placement.NewPageRankVM(smallRegistry(t), placement.WithSeed(1))
	src := c.PMs()[0]
	mustHost(t, c, src, newVM(0, "[1,1]"))
	mustHost(t, c, c.PMs()[1], newVM(1, "[1,1]"))
	src.SetCordoned(true)

	e := New(p, Config{DrainBelow: 0.9})
	e.Rebalance(c)
	if src.NumVMs() != 1 {
		t.Fatal("cordoned PM was rebalanced; the drain endpoint owns it")
	}
	if !c.PMs()[1].Active() && !src.Active() {
		t.Fatal("both PMs emptied")
	}
}

func TestRebalanceDeterministic(t *testing.T) {
	run := func() ([]Move, string) {
		c := newCluster(8)
		p := placement.NewPageRankVM(smallRegistry(t), placement.WithSeed(3))
		// Admit 24 mixed VMs through the placer, then release every
		// third to fragment the packing.
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 24; i++ {
			typ := "[1,1]"
			if rng.Intn(3) == 0 {
				typ = "[1,1,1,1]"
			}
			vm := newVM(i, typ)
			pm, assign, err := p.Place(c, vm, nil)
			if err != nil {
				continue
			}
			if err := c.Host(pm, vm, assign); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 24; i += 3 {
			_, _ = c.Release(i)
		}

		var moves []Move
		e := New(p, Config{DrainBelow: 0.4, OnMove: func(m Move) { moves = append(moves, m) }})
		for round := 0; round < 3; round++ {
			e.Rebalance(c)
		}
		// Deterministic fingerprint: the sorted final placement.
		final := vmSet(c)
		ids := make([]int, 0, len(final))
		for id := range final {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fp := ""
		for _, id := range ids {
			fp += fmt.Sprintf("%d:%d;", id, final[id])
		}
		return moves, fp
	}

	m1, fp1 := run()
	m2, fp2 := run()
	if fp1 != fp2 {
		t.Fatalf("final placements diverged:\n%s\n%s", fp1, fp2)
	}
	if len(m1) != len(m2) {
		t.Fatalf("move counts diverged: %d vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		a, b := m1[i], m2[i]
		if a.VM != b.VM || a.From != b.From || a.To != b.To || a.Drain != b.Drain {
			t.Fatalf("move %d diverged: %+v vs %+v", i, a, b)
		}
	}
	if len(m1) == 0 {
		t.Fatal("scenario produced no moves; determinism not exercised")
	}
}

func TestMovesRecordedAsReleasePlacePairs(t *testing.T) {
	c := newCluster(4)
	p := placement.NewPageRankVM(smallRegistry(t), placement.WithSeed(1))
	for i := 0; i < 3; i++ {
		mustHost(t, c, c.PMs()[i], newVM(i, "[1,1]"))
	}
	rec := record.NewCollector()
	var moves []Move
	e := New(p, Config{DrainBelow: 0.3, Recorder: rec, OnMove: func(m Move) { moves = append(moves, m) }})
	st := e.Rebalance(c)
	if st.Moves == 0 {
		t.Fatal("no moves; recording not exercised")
	}
	ops := rec.Ops()
	if len(ops) != 2*st.Moves {
		t.Fatalf("%d ops for %d moves; want release+place per move", len(ops), st.Moves)
	}
	for i := 0; i < len(ops); i += 2 {
		rel, pl := ops[i], ops[i+1]
		if rel.Kind != record.OpRelease || pl.Kind != record.OpPlace {
			t.Fatalf("op pair %d: kinds %q,%q", i/2, rel.Kind, pl.Kind)
		}
		if rel.VM != pl.VM {
			t.Fatalf("op pair %d: release vm %d, place vm %d", i/2, rel.VM, pl.VM)
		}
		if rel.PM == pl.PM {
			t.Fatalf("op pair %d: vm %d 'moved' to its own source pm %d", i/2, rel.VM, pl.PM)
		}
		if len(pl.Assign) == 0 {
			t.Fatalf("op pair %d: place op has no assignment", i/2)
		}
		if pl.Seq != rel.Seq+1 {
			t.Fatalf("op pair %d: seqs %d,%d not adjacent", i/2, rel.Seq, pl.Seq)
		}
		// The OnMove hook (the serve daemon's WAL path) sees the same
		// encoding the recorder logged.
		wantRel, wantPl := moves[i/2].Ops()
		wantRel.Seq, wantPl.Seq = rel.Seq, pl.Seq
		if !reflect.DeepEqual(rel, wantRel) || !reflect.DeepEqual(pl, wantPl) {
			t.Fatalf("op pair %d: recorded %+v %+v, Move.Ops %+v %+v", i/2, rel, pl, wantRel, wantPl)
		}
	}
}

func TestRankPassRequiresGainMargin(t *testing.T) {
	c := newCluster(4)
	p := placement.NewPageRankVM(smallRegistry(t), placement.WithSeed(1))
	for i := 0; i < 6; i++ {
		pm, assign, err := p.Place(c, newVM(i, "[1,1]"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Host(pm, newVM(i, "[1,1]"), assign); err != nil {
			t.Fatal(err)
		}
	}
	// An impossible margin turns every rank move unprofitable; with the
	// drain pass off the round must be a pure no-op.
	e := New(p, Config{MinGainFrac: 1e9})
	before := vmSet(c)
	st := e.Rebalance(c)
	if st.Moves != 0 {
		t.Fatalf("stats %+v: moves committed against an impossible margin", st)
	}
	after := vmSet(c)
	for id, pm := range before {
		if after[id] != pm {
			t.Fatalf("vm %d moved %d -> %d in a no-op round", id, pm, after[id])
		}
	}
}
