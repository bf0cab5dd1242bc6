package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/resource"
	"pagerankvm/internal/serve"
)

// checkResident compares the clients' resident sets with the daemon's
// listing: the same VM ids, each once.
func checkResident(conns []*conn, list serve.ClusterResponse) []string {
	want := map[int64]bool{}
	for _, c := range conns {
		for _, vm := range c.gen.resident {
			want[vm] = true
		}
	}
	var bad []string
	if len(list.Placements) != len(want) || list.VMs != len(want) {
		bad = append(bad, fmt.Sprintf("resident set: clients hold %d VMs, daemon lists %d (vms=%d)", len(want), len(list.Placements), list.VMs))
	}
	for _, p := range list.Placements {
		if !want[int64(p.VM)] {
			bad = append(bad, fmt.Sprintf("resident set: daemon lists vm %d the clients do not hold", p.VM))
			break
		}
	}
	return bad
}

// checkRecovered compares the listing after kill and recovery with the
// listing before the kill.
func checkRecovered(before, after serve.ClusterResponse) []string {
	if reflect.DeepEqual(before, after) {
		return nil
	}
	return []string{fmt.Sprintf("recovery: listing differs after kill (before: %d VMs on %d PMs, next seq %d; after: %d VMs on %d PMs, next seq %d)",
		before.VMs, before.UsedPMs, before.NextSeq, after.VMs, after.UsedPMs, after.NextSeq)}
}

// foldPM is one PM's state in the WAL fold.
type foldPM struct {
	pm   *placement.PM
	used resource.Vec
}

// foldState is the result of folding the WAL from the empty fleet.
type foldState struct {
	host   map[int]int // vm -> pm
	assign map[int]resource.Assignment
	pms    map[int]*foldPM
	bad    []string
	// staleRelease counts release ops whose PM is not the VM's host
	// in the fold.
	staleRelease int
}

// foldWAL replays every WAL segment in dir from the empty fleet,
// checking each op as it goes: seqs are gapless from 0, no dimension
// ever exceeds its capacity, and a place assigns the VM's demand on
// its PM type group by group with no two units on one dimension (the
// anti-collocation rule). It records the decode time and op count in
// res.
func foldWAL(dir string, cat *experiments.Catalog, pms []*placement.PM, res *runResult) (*foldState, error) {
	st := &foldState{host: map[int]int{}, assign: map[int]resource.Assignment{}, pms: map[int]*foldPM{}}
	for _, pm := range pms {
		st.pms[pm.ID] = &foldPM{pm: pm, used: pm.Shape.Zero()}
	}
	segs, err := walSegments(dir)
	if err != nil {
		return nil, err
	}
	next := int64(0)
	var decode time.Duration
	for _, path := range segs {
		name := filepath.Base(path)
		if fi, err := os.Stat(path); err == nil {
			res.walBytes += fi.Size()
		}
		t0 := time.Now()
		r, err := record.Open(path)
		decode += time.Since(t0)
		if err != nil {
			return nil, err
		}
		for {
			t0 := time.Now()
			e, err := r.Next()
			decode += time.Since(t0)
			if err == io.EOF {
				break
			}
			if err != nil {
				_ = r.Close() // read-only; the decode error is the story
				return nil, fmt.Errorf("wal %s: %w", name, err)
			}
			if e.Op == nil {
				continue
			}
			if e.Op.Seq != next {
				st.bad = append(st.bad, fmt.Sprintf("wal: seq %d where %d was due", e.Op.Seq, next))
			}
			next = e.Op.Seq + 1
			res.walOps++
			st.apply(cat, *e.Op)
		}
		_ = r.Close() // read-only
	}
	res.decodeS = decode.Seconds()
	return st, nil
}

// apply folds one op into the state, noting every violation.
func (st *foldState) apply(cat *experiments.Catalog, op record.Op) {
	fail := func(format string, args ...any) {
		if len(st.bad) < 10 {
			st.bad = append(st.bad, fmt.Sprintf("wal seq %d: ", op.Seq)+fmt.Sprintf(format, args...))
		}
	}
	fp, ok := st.pms[op.PM]
	if !ok {
		fail("unknown pm %d", op.PM)
		return
	}
	shape := fp.pm.Shape
	switch op.Kind {
	case record.OpPlace:
		if _, dup := st.host[op.VM]; dup {
			fail("vm %d placed twice", op.VM)
			return
		}
		demand, ok := cat.Demand(fp.pm.Type, op.VMType)
		if !ok {
			fail("vm type %q has no demand on %s", op.VMType, fp.pm.Type)
			return
		}
		capv := shape.Capacity()
		assign := make(resource.Assignment, len(op.Assign))
		seen := map[int]bool{}
		got := map[string][]int{}
		for i, a := range op.Assign {
			if a.Dim < 0 || a.Dim >= shape.NumDims() {
				fail("dimension %d out of range", a.Dim)
				return
			}
			if seen[a.Dim] {
				fail("anti-collocation: two units of vm %d on dimension %d of pm %d", op.VM, a.Dim, op.PM)
			}
			seen[a.Dim] = true
			fp.used[a.Dim] += a.Units
			if fp.used[a.Dim] > capv[a.Dim] {
				fail("capacity: dimension %d of pm %d at %d > %d", a.Dim, op.PM, fp.used[a.Dim], capv[a.Dim])
			}
			assign[i] = resource.DimUnits{Dim: a.Dim, Units: a.Units}
			got[groupOf(shape, a.Dim)] = append(got[groupOf(shape, a.Dim)], a.Units)
		}
		for _, d := range demand.Demands {
			want := append([]int(nil), d.Units...)
			have := got[d.Group]
			sort.Ints(want)
			sort.Ints(have)
			if !reflect.DeepEqual(want, have) && !(len(want) == 0 && len(have) == 0) {
				fail("vm %d (%s) group %s assigned %v, demand %v", op.VM, op.VMType, d.Group, have, want)
			}
			delete(got, d.Group)
		}
		for g := range got {
			fail("vm %d assigned units in group %s it does not demand", op.VM, g)
		}
		st.host[op.VM] = op.PM
		st.assign[op.VM] = assign
	case record.OpRelease:
		on, placed := st.host[op.VM]
		if !placed {
			fail("release of unplaced vm %d", op.VM)
			return
		}
		if on != op.PM {
			// Recovery releases by VM id, so the state stays right; the
			// op's PM field is stale. Counted, not failed: see README.
			st.staleRelease++
		}
		host := st.pms[on]
		for _, a := range st.assign[op.VM] {
			host.used[a.Dim] -= a.Units
		}
		delete(st.host, op.VM)
		delete(st.assign, op.VM)
	default:
		fail("unexpected op kind %q", op.Kind)
	}
}

// groupOf names the resource group holding dimension dim.
func groupOf(s *resource.Shape, dim int) string {
	for i := 0; i < s.NumGroups(); i++ {
		if lo, hi := s.GroupRange(i); dim >= lo && dim < hi {
			return s.Group(i).Name
		}
	}
	return ""
}

// checkFold reports the fold's violations and compares its final
// vm -> pm map with the daemon's listing.
func checkFold(st *foldState, list serve.ClusterResponse) []string {
	bad := append([]string(nil), st.bad...)
	if len(st.host) != len(list.Placements) {
		bad = append(bad, fmt.Sprintf("wal fold: %d VMs placed, daemon lists %d", len(st.host), len(list.Placements)))
	}
	for _, p := range list.Placements {
		if pm, ok := st.host[p.VM]; !ok || pm != p.PM {
			bad = append(bad, fmt.Sprintf("wal fold: vm %d on pm %d, daemon lists pm %d", p.VM, pm, p.PM))
			break
		}
	}
	return bad
}
