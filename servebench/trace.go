package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/lattice"
	"pagerankvm/internal/obs"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/pagerank"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

// Tracing lives entirely in the benchmark: a handler wrapper around
// serve.Server.ServeHTTP, an engine pass that replays the run's op
// sequence through the library calls the daemon makes, a build pass
// over the rank-table builders, and the daemon's own obs instruments.

// span is one handler call, keyed by the client's request.
type span struct {
	vm         int64
	start, end int64 // ns since the run's base time
	kind       uint8
}

// spanRecorder wraps the daemon's handler and keeps one span per API
// request in memory.
type spanRecorder struct {
	h     http.Handler
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder(h http.Handler, base time.Time) *spanRecorder {
	return &spanRecorder{h: h, base: base, spans: make([]span, 0, 1<<16)}
}

// ServeHTTP times the wrapped handler. The body is read up front to
// key the span by VM id, then handed on unchanged.
func (s *spanRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Since(s.base)
	var kind uint8
	switch r.URL.Path {
	case "/v1/place":
		kind = kindPlace
	case "/v1/release":
		kind = kindRelease
	default:
		s.h.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	s.h.ServeHTTP(w, r)
	end := time.Since(s.base)
	vm, _ := intField(body, "vm")
	s.mu.Lock()
	s.spans = append(s.spans, span{vm: vm, start: int64(start), end: int64(end), kind: kind})
	s.mu.Unlock()
}

// engineStats holds the engine pass's per-call timings (ns) over the
// timed phase's ops.
type engineStats struct {
	place, reject, scoreOn, host, release, appendOp, flush []int64
	// perPlace is the library time of each place request: every Place
	// call, ScoreOn, Host, RecordOp and Flush.
	perPlace              []int64
	fitsTrue, fitsChecked int64
	same, compared        int
}

// buildStats holds the build pass's totals over distinct group tables.
type buildStats struct {
	latticeS, solveS, movetableS float64
	nodes, edges                 int
}

// traceData is what a traced run adds to a runResult.
type traceData struct {
	// before and after are the daemon's instruments at the start and
	// end of the timed phase.
	before, after obs.Snapshot
	spans         []span
	engine        engineStats
	build         buildStats
}

// engShard mirrors one daemon shard: the same PM partition, inventory
// order and placer seed.
type engShard struct {
	cluster *placement.Cluster
	placer  *placement.PageRankVM
}

// hashID is the daemon's shard hash (FNV-1a over the little-endian
// bytes of the id).
func hashID(id int) uint32 {
	h := uint32(2166136261)
	v := uint64(id)
	for i := 0; i < 8; i++ {
		h ^= uint32(v & 0xff)
		h *= 16777619
		v >>= 8
	}
	return h
}

// engineOp is one op of the sequence the engine pass replays.
type engineOp struct {
	kind   uint8
	vm     int
	vmType string
	// pm is the daemon's answer: the host of an accepted place, -1 for
	// a refusal.
	pm     int
	assign []record.OpAssign // WAL order only: the daemon's assignment
	timed  bool
}

// enginePass replays the run's op sequence through PageRankVM.Place,
// ScoreOn, Cluster.Host/Release and a record.Writer, shard by shard,
// timing each call. Single-connection runs replay the client's stream
// (refusals included) and let the engine choose; multi-connection runs
// replay the WAL order and follow the daemon's choices.
func enginePass(w workload, d *daemon, res *runResult) error {
	pms := d.cat.BuildCluster(w.perType).PMs()
	byID := make(map[int]*placement.PM, len(pms))
	parts := make([][]*placement.PM, benchShards)
	for _, pm := range pms {
		byID[pm.ID] = pm
		i := hashID(pm.ID) % benchShards
		parts[i] = append(parts[i], pm)
	}
	shards := make([]*engShard, benchShards)
	for i := range shards {
		shards[i] = &engShard{
			cluster: placement.NewCluster(parts[i]),
			placer:  placement.NewPageRankVM(d.reg, placement.WithSeed(1+int64(i))),
		}
	}
	path := filepath.Join(filepath.Dir(d.cfg.DataDir), "engine-wal.jsonl")
	wr, err := record.Create(path, record.RunMeta{Kind: "servebench-engine"})
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer wr.Close()

	ops, err := engineOps(w, d, res)
	if err != nil {
		return err
	}
	st := &res.trace.engine
	loc := map[int]int{} // vm -> engine shard
	for _, op := range ops {
		if op.kind == kindRelease {
			i, ok := loc[op.vm]
			if !ok {
				return fmt.Errorf("release of vm %d the engine never placed", op.vm)
			}
			t0 := time.Now()
			h, err := shards[i].cluster.Release(op.vm)
			tRel := time.Since(t0)
			if err != nil {
				return err
			}
			delete(loc, op.vm)
			t1 := time.Now()
			wr.RecordOp(record.Op{Kind: record.OpRelease, VM: op.vm, VMType: h.VM.Type, PM: -1})
			tApp := time.Since(t1)
			t2 := time.Now()
			err = wr.Flush()
			tFl := time.Since(t2)
			if err != nil {
				return err
			}
			if op.timed {
				st.release = append(st.release, int64(tRel))
				st.appendOp = append(st.appendOp, int64(tApp))
				st.flush = append(st.flush, int64(tFl))
			}
			continue
		}

		vm, err := d.cat.NewVM(op.vm, op.vmType)
		if err != nil {
			return err
		}
		// The shards to try, in the daemon's forwarding order.
		var order []int
		if op.assign != nil {
			order = []int{int(hashID(op.pm) % benchShards)}
		} else {
			home := int(hashID(op.vm) % benchShards)
			for t := 0; t < benchShards; t++ {
				order = append(order, (home+t)%benchShards)
			}
		}
		var (
			total  time.Duration
			placed *placement.PM
			assign resource.Assignment
			shard  int
		)
		for _, i := range order {
			sh := shards[i]
			if op.timed {
				for _, pm := range sh.cluster.UsedPMs() {
					st.fitsChecked++
					if pm.Fits(vm) {
						st.fitsTrue++
					}
				}
			}
			t0 := time.Now()
			pm, a, err := sh.placer.Place(sh.cluster, vm, nil)
			dt := time.Since(t0)
			total += dt
			if err == nil {
				placed, assign, shard = pm, a, i
				break
			}
			if !errors.Is(err, placement.ErrNoCapacity) {
				return err
			}
		}
		got := -1
		if placed != nil {
			got = placed.ID
		}
		if op.timed {
			st.compared++
			if got == op.pm {
				st.same++
			}
		}
		if op.assign != nil {
			// WAL order: commit what the daemon committed.
			placed, shard = byID[op.pm], int(hashID(op.pm)%benchShards)
			assign = make(resource.Assignment, len(op.assign))
			for i, a := range op.assign {
				assign[i] = resource.DimUnits{Dim: a.Dim, Units: a.Units}
			}
		}
		if placed == nil {
			if op.timed {
				st.reject = append(st.reject, int64(total))
				st.perPlace = append(st.perPlace, int64(total))
			}
			continue
		}
		sh := shards[shard]
		var tScore time.Duration
		scored := placed.Active()
		if scored {
			t0 := time.Now()
			sh.placer.ScoreOn(placed, vm)
			tScore = time.Since(t0)
		}
		t0 := time.Now()
		err = sh.cluster.Host(placed, vm, assign)
		tHost := time.Since(t0)
		if err != nil {
			return fmt.Errorf("engine host vm %d on pm %d: %w", op.vm, placed.ID, err)
		}
		loc[op.vm] = shard
		t1 := time.Now()
		wr.RecordOp(record.Op{Kind: record.OpPlace, VM: op.vm, VMType: op.vmType, PM: placed.ID, PMType: placed.Type, Assign: toOpAssign(assign)})
		tApp := time.Since(t1)
		t2 := time.Now()
		err = wr.Flush()
		tFl := time.Since(t2)
		if err != nil {
			return err
		}
		if op.timed {
			st.place = append(st.place, int64(total))
			if scored {
				st.scoreOn = append(st.scoreOn, int64(tScore))
			}
			st.host = append(st.host, int64(tHost))
			st.appendOp = append(st.appendOp, int64(tApp))
			st.flush = append(st.flush, int64(tFl))
			st.perPlace = append(st.perPlace, int64(total+tScore+tHost+tApp+tFl))
		}
	}
	return nil
}

// toOpAssign converts an assignment to its WAL encoding.
func toOpAssign(a resource.Assignment) []record.OpAssign {
	out := make([]record.OpAssign, len(a))
	for i, du := range a {
		out[i] = record.OpAssign{Dim: du.Dim, Units: du.Units}
	}
	return out
}

// engineOps assembles the op sequence the daemon applied: the client's
// stream for a single connection, the WAL order otherwise.
func engineOps(w workload, d *daemon, res *runResult) ([]engineOp, error) {
	var ops []engineOp
	if w.conns == 1 {
		types := w.vmTypes()
		vmType := map[int64]string{}
		res.conns[0].log.each(func(q *reqRec) {
			if q.phase == phaseTail {
				return // after the timed phase; nothing to compare
			}
			op := engineOp{kind: q.kind, vm: int(q.vm), pm: int(q.pm), timed: q.phase == phaseTimed}
			if q.kind == kindPlace {
				op.vmType = types[q.vtype]
				vmType[q.vm] = op.vmType
			} else {
				op.vmType = vmType[q.vm]
			}
			ops = append(ops, op)
		})
		return ops, nil
	}
	segs, err := walSegments(d.cfg.DataDir)
	if err != nil {
		return nil, err
	}
	for _, path := range segs {
		r, err := record.Open(path)
		if err != nil {
			return nil, err
		}
		for {
			e, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				_ = r.Close() // read-only; the decode error is the story
				return nil, err
			}
			if e.Op == nil {
				continue
			}
			op := engineOp{vm: e.Op.VM, vmType: e.Op.VMType, pm: e.Op.PM, timed: e.Op.Seq >= res.seqFrom && e.Op.Seq < res.seqTo}
			if e.Op.Kind == record.OpRelease {
				op.kind = kindRelease
			} else {
				op.kind = kindPlace
				op.assign = e.Op.Assign
				if op.assign == nil {
					op.assign = []record.OpAssign{}
				}
			}
			ops = append(ops, op)
		}
		_ = r.Close() // read-only
	}
	return ops, nil
}

// buildPass times the rank-table build calls once per distinct group
// table of the catalog's PM types: lattice.NewSpace, the default
// absorption solve, and ranktable.NewJoint, whose remainder over the
// first two is the move-table build.
func buildPass(cat *experiments.Catalog) (buildStats, error) {
	var bs buildStats
	seen := map[string]bool{}
	for _, spec := range cat.PMs {
		shape, _ := cat.Shape(spec.Name)
		var types []resource.VMType
		for _, vm := range cat.VMs {
			dm, _ := cat.Demand(spec.Name, vm.Name)
			if dm.Validate(shape) == nil {
				types = append(types, dm)
			}
		}
		for gi := 0; gi < shape.NumGroups(); gi++ {
			g := shape.Group(gi)
			sub := shape.SubShape(gi)
			var projected []resource.VMType
			for _, vt := range types {
				if p, ok := vt.Project(g.Name); ok {
					projected = append(projected, p)
				}
			}
			key := fmt.Sprint(g, projected)
			if seen[key] {
				continue
			}
			seen[key] = true

			// Each call runs twice and its faster run counts: the first
			// run also warms the lattice's pooled scratch, and the
			// move-table time is a difference that noise in either
			// term would swamp.
			var build, solve, joint time.Duration
			for rep := 0; rep < 2; rep++ {
				t0 := time.Now()
				space, err := lattice.NewSpace(sub, projected, lattice.Options{})
				b := time.Since(t0)
				if err != nil {
					return bs, err
				}
				csr := pagerank.CSR{Offsets: space.SuccOffsets(), Edges: space.SuccArena()}
				t1 := time.Now()
				_, err = pagerank.AbsorptionValuesCSR(csr, space.Utils(), pagerank.DefaultDamping, ranktable.DefaultRewardExponent)
				sv := time.Since(t1)
				if err != nil {
					return bs, err
				}
				t2 := time.Now()
				if _, err := ranktable.NewJoint(sub, projected, ranktable.Options{}); err != nil {
					return bs, err
				}
				j := time.Since(t2)
				if rep == 0 {
					bs.nodes += space.Len()
					bs.edges += space.Edges()
					build, solve, joint = b, sv, j
				}
				build, solve, joint = min(build, b), min(solve, sv), min(joint, j)
			}
			bs.latticeS += build.Seconds()
			bs.solveS += solve.Seconds()
			bs.movetableS += (joint - build - solve).Seconds()
		}
	}
	return bs, nil
}

// snapshot returns a copy of the recorded spans.
func (s *spanRecorder) snapshot() []span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span(nil), s.spans...)
}
