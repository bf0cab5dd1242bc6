package placement

import (
	"fmt"
	"math/rand"
	"time"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

// PageRankVM is the paper's Algorithm 2: for a given VM it derives, on
// every used PM with sufficient resources, the set of possible PM
// profiles after accommodating every permutation of the VM's demands,
// looks the resulting profiles up in the Profile→PageRank score table,
// and places the VM where the best resulting profile scores highest.
//
// Score ties (PMs whose resulting profiles coincide) are broken
// uniformly at random with a seeded generator: the paper does not
// specify tie-breaking, and always taking the first candidate would
// pile consecutive same-tenant requests onto one PM.
type PageRankVM struct {
	rankers *ranktable.Registry
	rng     *rand.Rand

	// twoChoice enables the Section V-C variant: instead of scanning
	// the whole used list, sample two random used PMs and pick the
	// better one.
	twoChoice bool

	// noFast disables the id-indexed fast path (WithoutFastPath),
	// forcing the string-key enumeration on every candidate. Both
	// paths make identical decisions (see TestFastPathEquivalence);
	// the switch exists for that test and for A/B benchmarking.
	noFast bool

	// binds caches per-PM-type ranker/demand/fast-path resolutions for
	// the VM currently being placed (bindVM); reset when the VM changes.
	binds  []binding
	bindVM *VM

	// obs and the pre-resolved met counters are nil without
	// WithObserver; every instrument call is then a no-op branch.
	obs *obs.Observer
	met placeMetrics

	// rec is the decision recorder (WithRecorder). When nil — the
	// default — Place skips candidate-set assembly and phase timing
	// entirely behind one boolean check, leaving the hot path intact.
	// recCands and recTied are scratch reused across decisions.
	rec      *record.Recorder
	recCands []record.Candidate
	recTied  []int
}

// binding is the per-(PM type, VM) resolution Algorithm 2's candidate
// loop would otherwise redo per PM: the ranker, the VM's quantized
// demand on the PM type, and — when the ranker supports it — the
// id-indexed fast-path handles.
type binding struct {
	pmType    string
	ranker    ranktable.Ranker
	demand    resource.VMType
	hasDemand bool
	fr        ranktable.FastRanker
	ref       ranktable.TypeRef
	fast      bool
}

// placeMetrics holds the placer's pre-resolved instruments so the
// Algorithm 2 hot path never does name lookups.
type placeMetrics struct {
	placeCalls      *obs.Counter // placement.place_calls
	pmsScanned      *obs.Counter // placement.pms_scanned
	profilesScored  *obs.Counter // placement.profiles_enumerated
	tiesBroken      *obs.Counter // placement.ties_broken
	twoChoiceDraws  *obs.Counter // placement.two_choice_samples
	pmsOpened       *obs.Counter // placement.pms_opened
	noCapacity      *obs.Counter // placement.no_capacity
	evictionsScored *obs.Counter // placement.evictions_scored
	victimsSelected *obs.Counter // placement.victims_selected

	// Per-decision phase latency histograms, observed only while a
	// recorder is attached (phase timing is not free).
	phaseScan  *obs.Histogram // placement.phase_scan_seconds
	phaseCheck *obs.Histogram // placement.phase_check_seconds
	phaseBind  *obs.Histogram // placement.phase_bind_seconds
}

// phaseBuckets spans 10ns..~1.3s exponentially — per-decision phases
// sit far below the DefSecondsBuckets floor of 1µs.
func phaseBuckets() []float64 { return obs.ExpBuckets(1e-8, 2, 28) }

func newPlaceMetrics(o *obs.Observer) placeMetrics {
	return placeMetrics{
		placeCalls:      o.Counter("placement.place_calls"),
		pmsScanned:      o.Counter("placement.pms_scanned"),
		profilesScored:  o.Counter("placement.profiles_enumerated"),
		tiesBroken:      o.Counter("placement.ties_broken"),
		twoChoiceDraws:  o.Counter("placement.two_choice_samples"),
		pmsOpened:       o.Counter("placement.pms_opened"),
		noCapacity:      o.Counter("placement.no_capacity"),
		evictionsScored: o.Counter("placement.evictions_scored"),
		victimsSelected: o.Counter("placement.victims_selected"),
		phaseScan:       o.Histogram("placement.phase_scan_seconds", phaseBuckets()),
		phaseCheck:      o.Histogram("placement.phase_check_seconds", phaseBuckets()),
		phaseBind:       o.Histogram("placement.phase_bind_seconds", phaseBuckets()),
	}
}

var _ Placer = (*PageRankVM)(nil)

// scoreEpsilon is the relative tolerance within which two placement
// scores count as tied.
const scoreEpsilon = 1e-12

// PageRankOption configures the PageRankVM placer.
type PageRankOption interface{ apply(*PageRankVM) }

type twoChoiceOption struct{}

func (twoChoiceOption) apply(p *PageRankVM) { p.twoChoice = true }

// WithTwoChoice enables 2-choice candidate sampling.
func WithTwoChoice() PageRankOption { return twoChoiceOption{} }

type seedOption struct{ seed int64 }

func (o seedOption) apply(p *PageRankVM) { p.rng = rand.New(rand.NewSource(o.seed)) }

// WithSeed sets the seed of the tie-breaking (and 2-choice sampling)
// generator; the default seed is 1.
func WithSeed(seed int64) PageRankOption { return seedOption{seed: seed} }

type noFastOption struct{}

func (noFastOption) apply(p *PageRankVM) { p.noFast = true }

// WithoutFastPath forces the string-key enumeration path even when the
// rankers support id-indexed scoring. Decisions are identical either
// way; this exists for equivalence testing and A/B benchmarks.
func WithoutFastPath() PageRankOption { return noFastOption{} }

type observerOption struct{ o *obs.Observer }

func (o observerOption) apply(p *PageRankVM) {
	p.obs = o.o
	p.met = newPlaceMetrics(o.o)
}

// WithObserver attaches a telemetry observer recording the placement.*
// decision counters, and — when the observer has an event sink — a
// structured trace event per Place call. A nil observer (the default)
// keeps the instrumentation disabled at ~zero cost.
func WithObserver(o *obs.Observer) PageRankOption { return observerOption{o: o} }

type recorderOption struct{ r *record.Recorder }

func (o recorderOption) apply(p *PageRankVM) { p.rec = o.r }

// WithRecorder attaches a decision recorder: every Place call appends
// one record.Decision — the full candidate set with scores and
// rejection reasons, the tie-break path, and scan/check/bind phase
// timings (also observed into the placement.phase_*_seconds histograms
// when an observer is attached). A nil recorder (the default) keeps
// recording disabled behind a single branch.
func WithRecorder(r *record.Recorder) PageRankOption { return recorderOption{r: r} }

// NewPageRankVM builds the placer over a registry holding one ranker
// per PM type in the inventory.
func NewPageRankVM(rankers *ranktable.Registry, opts ...PageRankOption) *PageRankVM {
	p := &PageRankVM{
		rankers: rankers,
		rng:     rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o.apply(p)
	}
	return p
}

// Ranker returns the ranker registered for a PM type — extensions
// (e.g. the network-aware decorator) evaluate candidate profiles with
// the same tables the placer uses.
func (p *PageRankVM) Ranker(pmType string) (ranktable.Ranker, bool) {
	return p.rankers.Get(pmType)
}

// Name implements Placer.
func (p *PageRankVM) Name() string {
	if p.twoChoice {
		return "PageRankVM-2choice"
	}
	return "PageRankVM"
}

// Place implements Placer (Algorithm 2).
func (p *PageRankVM) Place(c *Cluster, vm *VM, exclude *PM) (*PM, resource.Assignment, error) {
	p.met.placeCalls.Inc()
	candidates := c.UsedPMs()
	if p.twoChoice && len(candidates) > 2 {
		candidates = p.sample(candidates)
		p.met.twoChoiceDraws.Inc()
	}

	// s.rec gates every recording expense — candidate-set assembly,
	// tie-path tracking, phase clocks — behind one branch, so the
	// disabled path stays the bare scan.
	s := scan{vm: vm, exclude: exclude, rec: p.rec.Active()}
	if s.rec {
		s.cands, s.tied, s.start = p.recCands[:0], p.recTied[:0], time.Now()
	}
	var (
		bestPM     *PM
		bestAssign resource.Assignment
		bestBind   *binding
		bestScore  = -1.0
	)
	for _, pm := range candidates {
		s.scanned++
		b, score, assign, v, err := p.candidate(&s, pm, false)
		if err != nil {
			return nil, nil, err
		}
		if v != scored {
			continue
		}
		switch {
		case score > bestScore*(1+scoreEpsilon):
			bestScore, bestPM, bestAssign, bestBind = score, pm, assign, b
			s.ties = 1
			if s.rec {
				s.tied = append(s.tied[:0], pm.ID)
			}
		case score >= bestScore*(1-scoreEpsilon):
			// Tie: reservoir-sample uniformly among tied candidates.
			s.ties++
			if p.rng.Intn(s.ties) == 0 {
				bestPM, bestAssign, bestBind = pm, assign, b
			}
			if s.rec {
				s.tied = append(s.tied, pm.ID)
			}
		}
	}
	p.met.pmsScanned.Add(int64(s.scanned))
	if bestPM != nil {
		if s.ties > 1 {
			p.met.tiesBroken.Add(int64(s.ties - 1))
		}
		assign := p.bind(&s, bestPM, bestBind, bestAssign, bestScore, false)
		if assign == nil {
			return nil, nil, fmt.Errorf("placement: cannot materialize assignment on pm %d", bestPM.ID)
		}
		return bestPM, assign, nil
	}
	// Lines 17-24: fall back to the first unused PM that can host the
	// VM, choosing the best-scoring accommodation on the fresh profile.
	for _, pm := range c.UnusedPMs() {
		b, _, assign, v, err := p.candidate(&s, pm, true)
		if err != nil {
			return nil, nil, err
		}
		if v != scored {
			continue
		}
		if assign = p.bind(&s, pm, b, assign, 0, true); assign != nil {
			return pm, assign, nil
		}
	}
	p.met.profilesScored.Add(int64(s.profiles))
	p.met.noCapacity.Inc()
	if s.rec {
		s.ph.ScanNs = int64(time.Since(s.start))
		p.recordPlace(&s, nil, 0, false, false)
	}
	return nil, nil, ErrNoCapacity
}

// scan is one Place call's bookkeeping: the request, the scan counters
// and — when a recorder is attached — the candidate set, the tie path
// and the phase clocks.
type scan struct {
	vm       *VM
	exclude  *PM
	scanned  int
	profiles int
	ties     int

	rec   bool
	cands []record.Candidate
	tied  []int
	ph    record.Phases
	start time.Time
}

// verdict is the outcome of one candidate evaluation.
type verdict uint8

const (
	scored    verdict = iota // feasible, best accommodation scored
	noFit                    // no demand on the PM type, or the VM does not fit
	noProfile                // fits, but no accommodation left a scored profile
	excluded                 // the exclude argument (a migration source)
	cordoned                 // cordoned for a maintenance drain
)

// verdictStatus maps each verdict to its recorded candidate status.
var verdictStatus = [...]string{
	scored:    record.StatusScored,
	noFit:     record.StatusNoFit,
	noProfile: record.StatusNoProfile,
	excluded:  record.StatusExcluded,
	cordoned:  record.StatusCordoned,
}

// candidate is Algorithm 2's one candidate evaluator, shared by the
// used-PM scan (lines 3-16) and the unused-PM fallback (lines 17-24):
// it skips the excluded and cordoned PMs, scores the VM's best
// accommodation on pm (evaluate) and, when recording, notes the
// outcome. A missing ranker for pm's type is a configuration error.
func (p *PageRankVM) candidate(s *scan, pm *PM, unused bool) (*binding, float64, resource.Assignment, verdict, error) {
	var (
		b      *binding
		score  float64
		assign resource.Assignment
		n      int
		v      verdict
	)
	switch {
	case pm == s.exclude:
		v = excluded
	case pm.Cordoned():
		v = cordoned
	default:
		var err error
		if b, err = p.binding(pm.Type, s.vm); err != nil {
			return nil, 0, nil, 0, err
		}
		var ph *record.Phases
		if s.rec {
			ph = &s.ph
		}
		score, assign, n, v = p.evaluate(b, pm, ph)
		s.profiles += n
	}
	if s.rec {
		rc := record.Candidate{PM: pm.ID, Status: verdictStatus[v], Profiles: n, Unused: unused}
		if v == scored && !unused {
			rc.Score = score
		}
		s.cands = append(s.cands, rc)
	}
	return b, score, assign, v, nil
}

// bind produces the winner's assignment — once per decision instead of
// once per candidate: fast-path winners materialize from the move
// table, slow-path winners translate their canonical-coordinate
// assignment to the PM's actual dimension order — then counts,
// records and traces the decision. It returns nil when the move cannot
// be realized.
func (p *PageRankVM) bind(s *scan, pm *PM, b *binding, assign resource.Assignment, score float64, opened bool) resource.Assignment {
	var bindStart time.Time
	if s.rec {
		s.ph.ScanNs = int64(time.Since(s.start))
		bindStart = time.Now()
	}
	if assign == nil {
		assign = p.materialize(b, pm)
	} else {
		assign = alignAssign(pm.Shape, pm.used, assign)
	}
	if assign == nil {
		return nil
	}
	p.met.profilesScored.Add(int64(s.profiles))
	if opened {
		p.met.pmsOpened.Inc()
	}
	if s.rec {
		s.ph.BindNs = int64(time.Since(bindStart))
		p.recordPlace(s, pm, score, b.fast, opened)
	}
	p.tracePlace(s, pm, score, opened)
	return assign
}

// recordPlace assembles and appends one record.Decision, feeds the
// phase histograms, and stashes the candidate scratch for reuse.
func (p *PageRankVM) recordPlace(s *scan, pm *PM, score float64, fast, opened bool) {
	d := record.Decision{
		VM:         s.vm.ID,
		VMType:     s.vm.Type,
		PM:         -1,
		Score:      score,
		Scanned:    s.scanned,
		Profiles:   s.profiles,
		Ties:       s.ties,
		Opened:     opened,
		Candidates: s.cands,
		Fast:       fast,
	}
	// A copy, so the scan itself stays on Place's stack.
	ph := s.ph
	d.Phases = &ph
	if pm != nil {
		d.PM = pm.ID
		d.PMType = pm.Type
	} else {
		d.Rejected = true
	}
	if s.ties > 1 {
		d.TiedPMs = s.tied
	}
	p.rec.RecordDecision(d)
	p.met.phaseScan.Observe(float64(ph.ScanNs) / 1e9)
	p.met.phaseCheck.Observe(float64(ph.CheckNs) / 1e9)
	p.met.phaseBind.Observe(float64(ph.BindNs) / 1e9)
	// RecordDecision copied (collector) or serialized (JSONL) the
	// slices, so the scratch can be handed back for the next decision.
	p.recCands = s.cands[:0]
	p.recTied = s.tied[:0]
}

// tracePlace emits one structured decision event; field assembly is
// skipped entirely unless the observer has a sink attached.
func (p *PageRankVM) tracePlace(s *scan, pm *PM, score float64, opened bool) {
	if !p.obs.TraceActive() {
		return
	}
	p.obs.Emit(obs.Event{Name: "placement.place", Fields: []obs.Field{
		obs.F("vm", s.vm.ID),
		obs.F("vm_type", s.vm.Type),
		obs.F("pm", pm.ID),
		obs.F("pm_type", pm.Type),
		obs.F("score", score),
		obs.F("pms_scanned", s.scanned),
		obs.F("profiles", s.profiles),
		obs.F("ties", s.ties),
		obs.F("opened_fresh_pm", opened),
	}})
}

// binding resolves (and caches, for the VM currently being placed) the
// ranker, demand and fast-path handles for one PM type. The returned
// pointer is valid until the VM changes.
func (p *PageRankVM) binding(pmType string, vm *VM) (*binding, error) {
	if p.bindVM != vm {
		p.binds = p.binds[:0]
		p.bindVM = vm
	}
	for i := range p.binds {
		if p.binds[i].pmType == pmType {
			return &p.binds[i], nil
		}
	}
	b, err := p.resolveBinding(pmType, vm)
	if err != nil {
		return nil, err
	}
	p.binds = append(p.binds, b)
	return &p.binds[len(p.binds)-1], nil
}

func (p *PageRankVM) resolveBinding(pmType string, vm *VM) (binding, error) {
	ranker, ok := p.rankers.Get(pmType)
	if !ok {
		return binding{}, fmt.Errorf("placement: no ranker registered for PM type %q", pmType)
	}
	b := binding{pmType: pmType, ranker: ranker}
	b.demand, b.hasDemand = vm.DemandOn(pmType)
	if b.hasDemand && !p.noFast {
		if fr, ok := ranker.(ranktable.FastRanker); ok && fr.Fast() {
			if ref, ok := fr.ResolveType(b.demand); ok {
				b.fr, b.ref, b.fast = fr, ref, true
			}
		}
	}
	return b, nil
}

// rankCache is a PM's memo of fast-path answers for one ranker and one
// profile generation: the profile's lattice node ids and, per VM type
// of the ranker (TypeRef.Index), the best move BestMove returned. Only
// host and remove change a profile, and both bump PM.gen; so between
// two decisions only the PMs the first one touched are scored again,
// and a scan over unchanged PMs is one memo read per candidate.
type rankCache struct {
	owner ranktable.FastRanker
	gen   uint64
	ids   []int32
	idsOK bool
	moves []bestMove
}

// bestMove is one memoised BestMove answer; known is false until the
// entry is first read after a reset.
type bestMove struct {
	score     float64
	count     int
	known, ok bool
}

// nodeIDs returns pm's lattice node ids under fr, refilling the memo
// first when the profile or the ranker changed since it was filled.
// ok is false when the profile is outside fr's lattice.
//
//prvm:hotpath
func (rc *rankCache) nodeIDs(pm *PM, fr ranktable.FastRanker) ([]int32, bool) {
	if rc.owner != fr || rc.gen != pm.gen {
		rc.reset(pm, fr)
	}
	return rc.ids, rc.idsOK
}

// reset resolves pm's current profile under fr and forgets every
// memoised move. The buffers are sized on a PM's first scoring and
// reused afterwards.
func (rc *rankCache) reset(pm *PM, fr ranktable.FastRanker) {
	ids, ok := fr.NodeIDs(pm.used, rc.ids)
	if ok {
		rc.ids = ids
	}
	rc.idsOK, rc.owner, rc.gen = ok, fr, pm.gen
	if n := fr.NumTypes(); cap(rc.moves) < n {
		rc.moves = make([]bestMove, n)
	} else {
		rc.moves = rc.moves[:n]
		clear(rc.moves)
	}
}

// move returns pm's memoised best move for the bound VM type, scoring
// it on first use after a profile change. ok is false when the profile
// is outside the ranker's lattice.
//
//prvm:hotpath
func (rc *rankCache) move(pm *PM, b *binding) (*bestMove, bool) {
	ids, ok := rc.nodeIDs(pm, b.fr)
	if !ok {
		return nil, false
	}
	m := &rc.moves[b.ref.Index()]
	if !m.known {
		m.score, m.count, m.ok = b.fr.BestMove(ids, b.ref)
		m.known = true
	}
	return m, true
}

// evaluate scores the best accommodation of the bound VM on pm (lines
// 6-7 of Algorithm 2) plus the number of candidate profiles. The fast
// path reads pm's memo and runs no feasibility check: BestMove finds a
// move exactly when resource.Fits holds (TestBestMoveOKIffFits), so
// "no move" is reported as noFit — the status Fits gave it before. Its
// assignment is nil; bind materializes the winner's only. The slow
// path checks Fits (timed into ph.CheckNs when ph is non-nil), then
// enumerates.
//
//prvm:hotpath
func (p *PageRankVM) evaluate(b *binding, pm *PM, ph *record.Phases) (float64, resource.Assignment, int, verdict) {
	if !b.hasDemand {
		return 0, nil, 0, noFit
	}
	if b.fast {
		if m, ok := pm.rank.move(pm, b); ok {
			if !m.ok {
				return 0, nil, 0, noFit
			}
			return m.score, nil, m.count, scored
		}
	}
	var t0 time.Time
	if ph != nil {
		t0 = time.Now()
	}
	fits := resource.Fits(pm.Shape, pm.used, b.demand)
	if ph != nil {
		ph.CheckNs += int64(time.Since(t0))
	}
	if !fits {
		return 0, nil, 0, noFit
	}
	score, assign, n := p.enumerate(b, pm)
	if assign == nil {
		return 0, nil, n, noProfile
	}
	return score, assign, n, scored
}

// enumerate is the slow path: it enumerates resource.Placements from
// the PM's canonical profile — the same sequence the lattice's typed
// successor lists were wired from, so both paths break score ties
// identically — and string-key scores each result. The returned
// assignment (nil when nothing scored) is therefore in canonical
// coordinates; callers translate with alignAssign.
func (p *PageRankVM) enumerate(b *binding, pm *PM) (float64, resource.Assignment, int) {
	var (
		bestScore  = -1.0
		bestAssign resource.Assignment
	)
	placements := resource.Placements(pm.Shape, pm.Shape.Canon(pm.used), b.demand)
	for _, pl := range placements {
		score, ok := b.ranker.Score(pl.Result)
		if !ok {
			continue
		}
		if score > bestScore {
			bestScore, bestAssign = score, pl.Assign
		}
	}
	return bestScore, bestAssign, len(placements)
}

// materialize produces the concrete assignment realizing the fast
// path's best move on pm, translated from canonical to the PM's actual
// dimension order. Returns nil if the move cannot be realized (which a
// successful evaluate on the same profile rules out; the enumeration
// fallback is defensive).
func (p *PageRankVM) materialize(b *binding, pm *PM) resource.Assignment {
	if b.fast {
		if ids, ok := pm.rank.nodeIDs(pm, b.fr); ok {
			if canon, ok := b.fr.Materialize(ids, b.ref); ok {
				return alignAssign(pm.Shape, pm.used, canon)
			}
		}
	}
	_, assign, _ := p.enumerate(b, pm)
	if assign == nil {
		return nil
	}
	return alignAssign(pm.Shape, pm.used, assign)
}

// alignAssign translates an assignment expressed in canonical
// coordinates (positions within each group's sorted profile) to the
// PM's actual dimension order: canonical position k of a group maps to
// the actual dimension holding the k-th smallest used value, ties by
// dimension index — the same stable order the canonical sort applies.
// The aligned assignment is valid against used and yields a profile
// whose canonical form is exactly the lattice successor the move was
// scored on.
func alignAssign(shape *resource.Shape, used resource.Vec, canon resource.Assignment) resource.Assignment {
	out := make(resource.Assignment, len(canon))
	copy(out, canon)
	var perm [16]int
	for gi := 0; gi < shape.NumGroups(); gi++ {
		lo, hi := shape.GroupRange(gi)
		sorted := true
		for d := lo + 1; d < hi; d++ {
			if used[d] < used[d-1] {
				sorted = false
				break
			}
		}
		if sorted {
			continue
		}
		// Stable insertion sort of the group's dimension indices by
		// used value: p[k] = in-group index of the k-th smallest.
		n := hi - lo
		pp := perm[:0]
		if n > len(perm) {
			pp = make([]int, 0, n)
		}
		for d := 0; d < n; d++ {
			pp = append(pp, d)
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && used[lo+pp[j]] < used[lo+pp[j-1]]; j-- {
				pp[j], pp[j-1] = pp[j-1], pp[j]
			}
		}
		for i := range out {
			if out[i].Dim >= lo && out[i].Dim < hi {
				out[i].Dim = lo + pp[out[i].Dim-lo]
			}
		}
	}
	return out
}

// ScoreOn returns the best accommodation score of vm on pm — one
// candidate evaluation of Algorithm 2's inner loop, exposed for
// benchmarking the id-indexed fast path against the enumeration path
// and for callers re-scoring a chosen PM. On the fast path, once pm's
// profile has been scored for vm's type, it is one memo read: ~24ns
// and zero allocations on a 2-vCPU Xeon (BenchmarkPlaceLookup/fast;
// ~65ns there when only node ids were cached) — the alloc_gate test
// and the hotalloc analyzer both hold it allocation-free.
//
//prvm:hotpath
func (p *PageRankVM) ScoreOn(pm *PM, vm *VM) (float64, bool) {
	b, err := p.binding(pm.Type, vm)
	if err != nil {
		return 0, false
	}
	score, _, _, v := p.evaluate(b, pm, nil)
	return score, v == scored
}

// sample draws two distinct random used PMs (the 2-choice method).
func (p *PageRankVM) sample(used []*PM) []*PM {
	i := p.rng.Intn(len(used))
	j := p.rng.Intn(len(used) - 1)
	if j >= i {
		j++
	}
	return []*PM{used[i], used[j]}
}

// ScoreVictim returns the rank of pm's residual profile after removing
// the hosted VM — the paper's overload handling picks the VM whose
// removal yields the highest residual score. ok is false when the PM
// type has no ranker or the profile is outside the table.
func (p *PageRankVM) ScoreVictim(pm *PM, h Hosted) (float64, bool) {
	p.met.evictionsScored.Inc()
	ranker, ok := p.rankers.Get(pm.Type)
	if !ok {
		return 0, false
	}
	residual := pm.Used().Sub(h.Assign.Vec(pm.Shape))
	return ranker.Score(residual)
}
