package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pagerankvm/internal/serve"
)

// Phases of a run, in order.
const (
	phasePrefill uint8 = iota
	phaseWarmup
	phaseTimed
	phaseTail
	numPhases
)

var phaseNames = [numPhases]string{"prefill", "warmup", "timed", "tail"}

// reqRec is one request as the client saw it.
type reqRec struct {
	vm    int64
	start int64 // ns since the run's base time, at request write
	dur   int64 // ns from request write to parsed response
	pm    int32 // hosting PM of an accepted place, else -1
	kind  uint8
	vtype uint8
	code  uint8
	phase uint8
}

// reqLog is an append-only request log in fixed-size chunks, so a long
// run never copies its whole history to grow.
type reqLog struct{ chunks [][]reqRec }

const logChunk = 1 << 14

func (l *reqLog) add(r reqRec) {
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == logChunk {
		l.chunks = append(l.chunks, make([]reqRec, 0, logChunk))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, r)
}

func (l *reqLog) each(fn func(*reqRec)) {
	for _, c := range l.chunks {
		for i := range c {
			fn(&c[i])
		}
	}
}

// counts tallies one phase's requests.
type counts struct{ sent, ok, refused, failed int }

func (c *counts) add(o counts) {
	c.sent += o.sent
	c.ok += o.ok
	c.refused += o.refused
	c.failed += o.failed
}

// conn is one client connection with its generator and log.
type conn struct {
	cl  *client
	gen *generator
	log reqLog
	// target is this connection's share of the churn population.
	target int
}

// phaseSpec says how long a phase runs and which mix it sends.
type phaseSpec struct {
	id       uint8
	ops      int       // per connection; 0 = unbounded
	deadline time.Time // zero = none
	// pPlace gives the place probability for a connection holding n
	// resident VMs.
	pPlace func(c *conn, n int) float64
	// stop, when set, ends the connection's phase after a response.
	stop func(c *conn, code uint8) bool
	// band, when set, is the allowed resident count per connection;
	// leaving it fails the run.
	band func(c *conn) (lo, hi int)
}

// runPhase drives every connection through one phase concurrently and
// returns the per-phase counts.
func runPhase(conns []*conn, ps phaseSpec, base time.Time) (counts, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		tot  counts
		errs []error
	)
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			cnt, err := c.drive(ps, base)
			mu.Lock()
			defer mu.Unlock()
			tot.add(cnt)
			if err != nil {
				errs = append(errs, err)
			}
		}(c)
	}
	wg.Wait()
	if len(errs) > 0 {
		return tot, fmt.Errorf("%s phase: %w", phaseNames[ps.id], errs[0])
	}
	return tot, nil
}

// drive runs one connection's closed loop for a phase.
func (c *conn) drive(ps phaseSpec, base time.Time) (counts, error) {
	var cnt counts
	for i := 0; ps.ops == 0 || i < ps.ops; i++ {
		if !ps.deadline.IsZero() && !time.Now().Before(ps.deadline) {
			break
		}
		req := c.gen.next(ps.pPlace(c, len(c.gen.resident)))
		t0 := time.Now()
		code, pm, err := c.cl.do(req)
		dur := time.Since(t0)
		cnt.sent++
		c.log.add(reqRec{
			vm: req.vm, start: int64(t0.Sub(base)), dur: int64(dur), pm: int32(pm),
			kind: req.kind, vtype: req.vtype, code: code, phase: ps.id,
		})
		switch code {
		case codeOK:
			cnt.ok++
			if req.kind == kindPlace {
				c.gen.accepted(req.vm)
			}
		case codeRefused:
			cnt.refused++
		default:
			cnt.failed++
			return cnt, err
		}
		if ps.band != nil {
			lo, hi := ps.band(c)
			if n := len(c.gen.resident); n < lo || n > hi {
				return cnt, fmt.Errorf("stationarity: %d resident VMs on a connection, outside [%d, %d]", n, lo, hi)
			}
		}
		if ps.stop != nil && ps.stop(c, code) {
			break
		}
	}
	return cnt, nil
}

// runResult is everything one run of a workload measured.
type runResult struct {
	setupS    []float64
	newS      []float64
	recoverS  []float64
	phases    [numPhases]counts
	timedDur  time.Duration
	timedFrom int64 // ns since base
	conns     []*conn
	endList   serve.ClusterResponse
	replayed  int
	walBytes  int64
	walOps    int
	snapBytes int64
	// staleRelease counts WAL release ops naming a PM other than the
	// VM's host (a daemon defect; see README).
	staleRelease int
	decodeS      float64
	seqFrom      int64 // first WAL seq of the timed phase
	seqTo        int64 // first WAL seq after the timed phase
	rssMB        float64
	vmsPerPM     []float64 // sampled during the timed phase
	checks       []string  // failed output checks
	daemon       *daemon
	trace        *traceData // traced runs only
}

// runWorkload runs one workload end to end: set-up, prefill, warm-up,
// the timed phase, output checks, the snapshot cut and WAL tail, kill
// and recovery.
func runWorkload(w workload, seed int64, seconds int, traced bool, workdir string) (*runResult, error) {
	base := time.Now()
	res := &runResult{}
	if traced {
		res.trace = &traceData{}
	}

	// Set-up, repeated; the last daemon serves the run.
	var d *daemon
	for i := 0; i < w.setups; i++ {
		// Every set-up starts from a collected heap, so the previous
		// one's garbage is not collected on this one's clock.
		runtime.GC()
		dir := filepath.Join(workdir, "setup-"+strconv.Itoa(i))
		nd, took, err := startDaemon(w, dir, traced, base)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, took.Seconds())
		res.newS = append(res.newS, nd.newDur.Seconds())
		if d != nil {
			d.stop()
			if err := os.RemoveAll(d.cfg.DataDir); err != nil {
				return nil, err
			}
		}
		d = nd
	}
	res.daemon = d
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	types := w.vmTypes()
	for i := 0; i < w.conns; i++ {
		cl, err := dial(d.addr, types)
		if err != nil {
			return nil, err
		}
		defer cl.close()
		c := &conn{cl: cl, gen: newGenerator(seed, i, types)}
		c.gen.lifo = w.target == 0
		if w.target > 0 {
			c.target = w.target / w.conns
		}
		res.conns = append(res.conns, c)
	}

	// The mix every non-prefill phase sends.
	mix := func(c *conn, n int) float64 {
		if w.target > 0 {
			return churnPlace(n, c.target)
		}
		return w.holdPlace
	}
	always := func(*conn, int) float64 { return 1 }

	// Prefill, untimed: to the target, or until the first refusal.
	pre := phaseSpec{id: phasePrefill, pPlace: always}
	if w.target > 0 {
		pre.stop = func(c *conn, _ uint8) bool { return len(c.gen.resident) >= c.target }
	} else {
		pre.stop = func(_ *conn, code uint8) bool { return code == codeRefused }
	}
	var err error
	if res.phases[phasePrefill], err = runPhase(res.conns, pre, base); err != nil {
		return nil, err
	}
	if w.warmup > 0 {
		if res.phases[phaseWarmup], err = runPhase(res.conns, phaseSpec{id: phaseWarmup, ops: w.warmup, pPlace: mix}, base); err != nil {
			return nil, err
		}
	}

	// The timed phase, stationary by construction; the band check
	// fails the run if the population drifts.
	ref := make(map[*conn]int, len(res.conns))
	for _, c := range res.conns {
		ref[c] = c.target
		if w.target == 0 {
			ref[c] = len(c.gen.resident)
		}
	}
	band := func(c *conn) (int, int) {
		return int(w.band[0] * float64(ref[c])), int(w.band[1]*float64(ref[c]) + 0.999)
	}
	// Set-up and prefill garbage is neither the timed phase's work nor
	// its memory: collect it and hand the pages back to the OS.
	debug.FreeOSMemory()
	res.seqFrom = d.srv.NextSeq()
	if traced {
		res.trace.before = d.cfg.Obs.Snapshot()
	}
	start := time.Now()
	res.timedFrom = int64(start.Sub(base))
	timed := phaseSpec{id: phaseTimed, deadline: start.Add(time.Duration(seconds) * time.Second), pPlace: mix, band: band}
	stopSampling := res.sample(d.srv)
	res.phases[phaseTimed], err = runPhase(res.conns, timed, base)
	res.timedDur = time.Since(start)
	stopSampling()
	if err != nil {
		return nil, err
	}
	res.seqTo = d.srv.NextSeq()
	if traced {
		res.trace.after = d.cfg.Obs.Snapshot()
	}
	// The resident set holding the workload's state: collected, with
	// free pages returned, so GC timing does not move it.
	debug.FreeOSMemory()
	res.rssMB = rssMB()

	// The resident set is checked on the live daemon: a background
	// rebalancer moves VMs between PMs but never adds or drops one.
	if res.endList, err = listing(d.srv); err != nil {
		return nil, err
	}
	res.checks = append(res.checks, checkResident(res.conns, res.endList)...)
	if traced {
		res.trace.spans = d.spans.snapshot()
	}

	// Cut a snapshot, apply a fixed WAL tail, then crash the daemon.
	// The pre-cut segments are hard-linked first so the fold below
	// still sees every op from the empty start after the cut's GC.
	if err := keepSegments(d.cfg.DataDir); err != nil {
		return nil, err
	}
	if err := d.srv.Snapshot(); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if res.snapBytes, err = snapshotBytes(d.cfg.DataDir); err != nil {
		return nil, err
	}
	if res.phases[phaseTail], err = runPhase(res.conns, phaseSpec{id: phaseTail, ops: w.tail, pPlace: mix}, base); err != nil {
		return nil, err
	}
	d.stop()
	cfg := d.cfg
	srv := d.srv
	d = nil

	// With the daemon stopped its state and WAL are final: fold the
	// whole WAL and compare it with the killed daemon's listing.
	final, err := listing(srv)
	if err != nil {
		return nil, err
	}
	res.checks = append(res.checks, checkResident(res.conns, final)...)
	fold, err := foldWAL(cfg.DataDir, res.daemon.cat, cfg.PMs, res)
	if err != nil {
		res.checks = append(res.checks, err.Error())
	} else {
		res.checks = append(res.checks, checkFold(fold, final)...)
		res.staleRelease = fold.staleRelease
	}
	if traced {
		if err := enginePass(w, res.daemon, res); err != nil {
			return nil, fmt.Errorf("engine pass: %w", err)
		}
	}

	// Recovery, repeated on fresh inventories: snapshot load plus the
	// tail's replay. No rebalancer, so the recovered listing holds
	// still for the comparison.
	cfg.Obs = nil
	cfg.RebalanceEvery = 0
	for i := 0; i < w.recoveries; i++ {
		cfg.PMs = res.daemon.cat.BuildCluster(w.perType).PMs()
		runtime.GC()
		t0 := time.Now()
		srv, err := serve.New(cfg)
		took := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		res.recoverS = append(res.recoverS, took.Seconds())
		res.replayed = srv.Recovery().ReplayedOps
		if i == 0 {
			got, err := listing(srv)
			if err != nil {
				srv.Kill()
				return nil, err
			}
			res.checks = append(res.checks, checkRecovered(final, got)...)
		}
		srv.Kill()
	}
	if err := os.RemoveAll(cfg.DataDir); err != nil {
		return nil, err
	}
	return res, nil
}

// sample records resident VMs per active PM every 100 ms until the
// returned stop function is called.
func (r *runResult) sample(h http.Handler) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if c, err := cluster(h, "/v1/cluster"); err == nil && c.UsedPMs > 0 {
					r.vmsPerPM = append(r.vmsPerPM, float64(c.VMs)/float64(c.UsedPMs))
				}
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// rssMB returns the process's current resident set in MiB, or 0 when
// /proc is unavailable.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// timedSamples returns the sorted client latencies (ns) of the timed
// phase's places and releases.
func (r *runResult) timedSamples() (place, release []int64) {
	for _, c := range r.conns {
		c.log.each(func(q *reqRec) {
			if q.phase != phaseTimed || q.code == codeFailed {
				return
			}
			if q.kind == kindPlace {
				place = append(place, q.dur)
			} else {
				release = append(release, q.dur)
			}
		})
	}
	sort.Slice(place, func(i, j int) bool { return place[i] < place[j] })
	sort.Slice(release, func(i, j int) bool { return release[i] < release[j] })
	return place, release
}

// keptPrefix names the hard links keepSegments makes; recovery reads
// only wal- segments and ignores them.
const keptPrefix = "kept-"

// keepSegments hard-links every WAL segment in dir under keptPrefix.
func keepSegments(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			if err := os.Link(filepath.Join(dir, e.Name()), filepath.Join(dir, keptPrefix+e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// walSegments returns the WAL segment paths of dir in seq order: the
// kept pre-cut segments, then the live ones. A live segment that is
// also kept is listed once.
func walSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	kept := map[string]bool{}
	var names []string
	for _, e := range entries {
		if n, ok := strings.CutPrefix(e.Name(), keptPrefix); ok {
			kept[n] = true
			names = append(names, n)
		}
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && !kept[e.Name()] {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // fixed-width seq digits: name order is seq order
	paths := make([]string, len(names))
	for i, n := range names {
		if kept[n] {
			n = keptPrefix + n
		}
		paths[i] = filepath.Join(dir, n)
	}
	return paths, nil
}

// snapshotBytes returns the size of the snapshot file in dir.
func snapshotBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snapshot-") {
			fi, err := e.Info()
			if err != nil {
				return 0, err
			}
			return fi.Size(), nil
		}
	}
	return 0, fmt.Errorf("no snapshot in %s", dir)
}
