package resource

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// paperShape is the paper's running example: 4 dimensions, capacity 4
// each (Figure 2 and the GENI testbed configuration).
func paperShape(t *testing.T) *Shape {
	t.Helper()
	return MustShape(Group{Name: "cpu", Dims: 4, Cap: 4})
}

func vm11() VMType   { return NewVMType("[1,1]", Demand{Group: "cpu", Units: []int{1, 1}}) }
func vm1111() VMType { return NewVMType("[1,1,1,1]", Demand{Group: "cpu", Units: []int{1, 1, 1, 1}}) }

func TestPlacementsPaperExample(t *testing.T) {
	s := paperShape(t)

	// [3,3,2,2] + [1,1]: distinct canonical outcomes are
	// [4,4,2,2], [4,3,3,2], [3,3,3,3].
	p := Vec{3, 3, 2, 2}
	got := Placements(s, p, vm11())
	keys := make(map[string]bool, len(got))
	for _, pl := range got {
		keys[pl.Key] = true
	}
	wantProfiles := []Vec{{4, 4, 2, 2}, {4, 3, 3, 2}, {3, 3, 3, 3}}
	if len(got) != len(wantProfiles) {
		t.Fatalf("got %d placements, want %d: %v", len(got), len(wantProfiles), got)
	}
	for _, w := range wantProfiles {
		if !keys[s.Key(w)] {
			t.Errorf("missing outcome %v", w)
		}
	}
}

func TestPlacementsFourWide(t *testing.T) {
	s := paperShape(t)
	// [3,3,3,3] + [1,1,1,1] -> only [4,4,4,4].
	got := Placements(s, Vec{3, 3, 3, 3}, vm1111())
	if len(got) != 1 {
		t.Fatalf("got %d placements, want 1", len(got))
	}
	if !got[0].Result.Equal(Vec{4, 4, 4, 4}) {
		t.Fatalf("result = %v", got[0].Result)
	}
	// Assignment touches 4 distinct dims.
	seen := make(map[int]bool)
	for _, du := range got[0].Assign {
		if seen[du.Dim] {
			t.Fatalf("anti-collocation violated: dim %d reused", du.Dim)
		}
		seen[du.Dim] = true
	}
}

func TestPlacementsNoFit(t *testing.T) {
	s := paperShape(t)
	// [4,4,4,3] cannot accommodate [1,1].
	if got := Placements(s, Vec{4, 4, 4, 3}, vm11()); got != nil {
		t.Fatalf("expected no placements, got %v", got)
	}
	// Full profile accommodates nothing.
	if got := Placements(s, Vec{4, 4, 4, 4}, vm11()); got != nil {
		t.Fatalf("expected no placements on full profile, got %v", got)
	}
}

func TestPlacementsMultiGroup(t *testing.T) {
	s := MustShape(
		Group{Name: "cpu", Dims: 2, Cap: 2},
		Group{Name: "mem", Dims: 1, Cap: 4},
		Group{Name: "disk", Dims: 2, Cap: 2},
	)
	vt := NewVMType("t",
		Demand{Group: "cpu", Units: []int{1, 1}},
		Demand{Group: "mem", Units: []int{2}},
		Demand{Group: "disk", Units: []int{1}},
	)
	got := Placements(s, s.Zero(), vt)
	// cpu has a single multiset outcome {1,1}; mem one; disk one
	// canonical outcome (either disk yields [0,1]).
	if len(got) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(got))
	}
	if !got[0].Result.Equal(Vec{1, 1, 2, 1, 0}) && !got[0].Result.Equal(Vec{1, 1, 2, 0, 1}) {
		t.Fatalf("result = %v", got[0].Result)
	}
}

func TestPlacementsUnequalUnits(t *testing.T) {
	s := MustShape(Group{Name: "disk", Dims: 2, Cap: 4})
	vt := NewVMType("t", Demand{Group: "disk", Units: []int{3, 1}})
	// From [1,0]: 3 can go on the 0-dim (->[1+?]) etc. Feasible
	// assignments: 3 on dim1 & 1 on dim0 => [2,3]; 3 on dim0? 1+3=4 ok,
	// 1 on dim1 => [4,1]. Two canonical outcomes.
	got := Placements(s, Vec{1, 0}, vt)
	if len(got) != 2 {
		t.Fatalf("got %d outcomes, want 2: %v", len(got), got)
	}
}

func TestFitsMatchesPlacements(t *testing.T) {
	s := MustShape(
		Group{Name: "cpu", Dims: 3, Cap: 3},
		Group{Name: "disk", Dims: 2, Cap: 2},
	)
	types := []VMType{
		NewVMType("a", Demand{Group: "cpu", Units: []int{1, 1}}),
		NewVMType("b", Demand{Group: "cpu", Units: []int{2, 2, 2}}),
		NewVMType("c", Demand{Group: "cpu", Units: []int{3}}, Demand{Group: "disk", Units: []int{1, 1}}),
		NewVMType("d", Demand{Group: "disk", Units: []int{2, 2}}),
	}
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := make(Vec, s.NumDims())
		caps := s.Capacity()
		for i := range p {
			p[i] = r.Intn(caps[i] + 1)
		}
		vt := types[r.Intn(len(types))]
		fits := Fits(s, p, vt)
		placements := Placements(s, p, vt)
		return fits == (len(placements) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: every enumerated placement stays within capacity, uses
// distinct dims per demand, and adds exactly the demanded units.
func TestPlacementsInvariants(t *testing.T) {
	s := MustShape(
		Group{Name: "cpu", Dims: 4, Cap: 3},
		Group{Name: "mem", Dims: 1, Cap: 6},
	)
	vt := NewVMType("t",
		Demand{Group: "cpu", Units: []int{2, 1, 1}},
		Demand{Group: "mem", Units: []int{2}},
	)
	caps := s.Capacity()
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := make(Vec, s.NumDims())
		for i := range p {
			p[i] = r.Intn(caps[i] + 1)
		}
		for _, pl := range Placements(s, p, vt) {
			if !pl.Result.LE(caps) {
				return false
			}
			if pl.Result.Sum()-p.Sum() != vt.TotalUnits() {
				return false
			}
			if !pl.Result.Equal(p.Add(pl.Assign.Vec(s))) {
				return false
			}
			// Distinct dims per demand: total assignment entries must
			// equal total unit count and no dim may appear twice within
			// the entries of one demand. Since demands target disjoint
			// groups here, global uniqueness suffices.
			seen := make(map[int]bool)
			for _, du := range pl.Assign {
				if seen[du.Dim] {
					return false
				}
				seen[du.Dim] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestGreedyAssignSpreads(t *testing.T) {
	s := paperShape(t)
	p := Vec{3, 1, 0, 2}
	a := GreedyAssign(s, p, vm11())
	if a == nil {
		t.Fatal("GreedyAssign returned nil for feasible placement")
	}
	// Most headroom dims are 2 (head 4) and 1 (head 3).
	got := map[int]bool{a[0].Dim: true, a[1].Dim: true}
	if !got[2] || !got[1] {
		t.Fatalf("GreedyAssign chose dims %v, want {1,2}", got)
	}
}

func TestGreedyAssignInfeasible(t *testing.T) {
	s := paperShape(t)
	if a := GreedyAssign(s, Vec{4, 4, 4, 3}, vm11()); a != nil {
		t.Fatalf("GreedyAssign = %v, want nil", a)
	}
}

func TestPackAssignTightens(t *testing.T) {
	s := paperShape(t)
	p := Vec{3, 1, 0, 2}
	a := PackAssign(s, p, vm11())
	if a == nil {
		t.Fatal("PackAssign returned nil for feasible placement")
	}
	// Tightest feasible dims are 0 (head 1) then 3 (head 2).
	got := map[int]bool{a[0].Dim: true, a[1].Dim: true}
	if !got[0] || !got[3] {
		t.Fatalf("PackAssign chose dims %v, want {0,3}", got)
	}
}

func TestPackAssignInfeasible(t *testing.T) {
	s := MustShape(Group{Name: "disk", Dims: 2, Cap: 4})
	vt := NewVMType("t", Demand{Group: "disk", Units: []int{3, 3}})
	if a := PackAssign(s, Vec{2, 0}, vt); a != nil {
		t.Fatalf("PackAssign = %v, want nil", a)
	}
}

func TestQuantize(t *testing.T) {
	tests := []struct {
		amount, quantum float64
		want            int
	}{
		{amount: 0.6, quantum: 0.65, want: 1},
		{amount: 0.7, quantum: 0.65, want: 2},
		{amount: 1.3, quantum: 0.65, want: 2},
		{amount: 0, quantum: 1, want: 0},
		{amount: 1, quantum: 0, want: 0},
		{amount: 7.5, quantum: 3.75, want: 2},
	}
	for _, tt := range tests {
		if got := Quantize(tt.amount, tt.quantum); got != tt.want {
			t.Errorf("Quantize(%v,%v) = %d, want %d", tt.amount, tt.quantum, got, tt.want)
		}
	}
}

func TestQuantizeCap(t *testing.T) {
	tests := []struct {
		amount, quantum float64
		want            int
	}{
		{amount: 2.6, quantum: 0.65, want: 4},
		{amount: 2.8, quantum: 0.65, want: 4},
		{amount: 64, quantum: 3.75, want: 17},
		{amount: 7.5, quantum: 3.75, want: 2},
		{amount: 0, quantum: 1, want: 0},
	}
	for _, tt := range tests {
		if got := QuantizeCap(tt.amount, tt.quantum); got != tt.want {
			t.Errorf("QuantizeCap(%v,%v) = %d, want %d", tt.amount, tt.quantum, got, tt.want)
		}
	}
}

// FuzzFits checks the Hall-counting feasibility test against brute
// force: on small fuzzed shapes, profiles and demands, Fits must hold
// exactly when Placements finds at least one anti-collocating
// placement. The fuzzed demands may ask for more units than a group
// has dimensions, or more units than a dimension holds, and may name
// a group the shape lacks.
func FuzzFits(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(2), uint8(2), uint64(0x0102), uint32(0x0211), uint32(0x11), false)
	f.Add(uint8(4), uint8(4), uint8(1), uint8(4), uint64(0x4444), uint32(0x1111), uint32(0), false)
	f.Add(uint8(1), uint8(1), uint8(3), uint8(1), uint64(0), uint32(0x0022), uint32(0x0111), true)
	f.Fuzz(func(t *testing.T, cpuDims, cpuCap, diskDims, diskCap uint8, profile uint64, cpuDemand, diskDemand uint32, foreign bool) {
		s := MustShape(
			Group{Name: "cpu", Dims: 1 + int(cpuDims%4), Cap: 1 + int(cpuCap%4)},
			Group{Name: "disk", Dims: 1 + int(diskDims%3), Cap: 1 + int(diskCap%4)},
		)
		caps := s.Capacity()
		p := make(Vec, s.NumDims())
		for d := range p {
			p[d] = int(profile>>(4*d)&0xf) % (caps[d] + 1)
		}
		// units decodes up to five nibbles of a demand word: the low
		// nibble is the unit count, the next ones the unit sizes.
		units := func(w uint32, capUnits int) []int {
			n := int(w & 0xf % 6)
			out := make([]int, n)
			for i := range out {
				out[i] = 1 + int(w>>(4*(i+1))&0xf)%(capUnits+1)
			}
			return out
		}
		diskGroup := "disk"
		if foreign {
			diskGroup = "gpu"
		}
		vt := NewVMType("fuzz",
			Demand{Group: "cpu", Units: units(cpuDemand, s.Group(0).Cap)},
			Demand{Group: diskGroup, Units: units(diskDemand, s.Group(1).Cap)},
		)
		fits := Fits(s, p, vt)
		if brute := len(Placements(s, p, vt)) > 0; fits != brute {
			t.Fatalf("shape %v profile %v demand %+v: Fits = %v, Placements found a placement = %v", caps, p, vt.Demands, fits, brute)
		}
	})
}
