package main

import (
	"fmt"
	"io"
	"time"

	"pagerankvm/internal/obs"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a --trace 0 run reports, in order.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"decisions_per_s", "1/s"},
	{"place_p50_ms", "ms"},
	{"place_p90_ms", "ms"},
	{"release_p50_ms", "ms"},
	{"release_p90_ms", "ms"},
	{"place_accept_frac", "ratio"},
	{"vms_per_pm", "count"},
	{"recover_s", "s"},
	{"rss_mb", "MiB"},
}

// perLayerDefs are the metrics a --trace 1 run reports, in order.
var perLayerDefs = []metricDef{
	{"serve.handler_place_us_p50", "us"},
	{"serve.handler_release_us_p50", "us"},
	{"serve.admit_us_mean", "us"},
	{"serve.http_json_us", "us"},
	{"serve.unattributed_us", "us"},
	{"serve.batch_size_mean", "count"},
	{"serve.forwards_per_place", "count"},
	{"serve.wal_bytes_per_op", "B"},
	{"serve.snapshot_bytes", "B"},
	{"serve.stale_release_ops", "count"},
	{"serve.recover_ops_per_s", "1/s"},
	{"serve.new_s", "s"},
	{"transport.place_us_p50", "us"},
	{"transport.release_us_p50", "us"},
	{"client.place_us_p99", "us"},
	{"client.release_us_p99", "us"},
	{"client.rate_half_ratio", "ratio"},
	{"placement.place_us_p50", "us"},
	{"placement.place_us_p90", "us"},
	{"placement.reject_us_p50", "us"},
	{"placement.scanned_per_place", "count"},
	{"placement.fit_frac", "ratio"},
	{"placement.profiles_per_place", "count"},
	{"placement.scoreon_us_p50", "us"},
	{"placement.ties_per_place", "count"},
	{"placement.opened_per_place", "count"},
	{"placement.host_us_p50", "us"},
	{"placement.release_us_p50", "us"},
	{"record.append_us_p50", "us"},
	{"record.flush_us_p50", "us"},
	{"record.decode_ops_per_s", "1/s"},
	{"deschedule.round_ms_mean", "ms"},
	{"deschedule.round_ms_max", "ms"},
	{"deschedule.moves", "count"},
	{"deschedule.pms_freed", "count"},
	{"lattice.build_s", "s"},
	{"lattice.nodes", "count"},
	{"lattice.edges", "count"},
	{"pagerank.solve_s", "s"},
	{"ranktable.movetable_s", "s"},
	{"ranktable.cache_hits", "count"},
	{"engine.same_pm_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// metric is one measured value.
type metric struct {
	name, unit string
	value      float64
}

// metricSet is an ordered list of measured values.
type metricSet []metric

// build fills defs from values, which must hold every name.
func build(defs []metricDef, values map[string]float64) metricSet {
	out := make(metricSet, 0, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("servebench: metric " + d.name + " not computed")
		}
		out = append(out, metric{name: d.name, unit: d.unit, value: v})
	}
	return out
}

// get returns the named value (0 when absent).
func (m metricSet) get(name string) float64 {
	for _, v := range m {
		if v.name == name {
			return v.value
		}
	}
	return 0
}

// json shapes the set as the result line's "metrics" object.
func (m metricSet) json() map[string]any {
	out := make(map[string]any, len(m))
	for _, v := range m {
		out[v.name] = map[string]any{"value": v.value, "unit": v.unit}
	}
	return out
}

const (
	nsPerMS = 1e6
	nsPerUS = 1e3
)

// endToEnd computes a run's end-to-end metrics.
func endToEnd(r *runResult) metricSet {
	place, release := r.timedSamples()
	places := 0
	refused := 0
	for _, c := range r.conns {
		c.log.each(func(q *reqRec) {
			if q.phase == phaseTimed && q.kind == kindPlace {
				places++
				if q.code == codeRefused {
					refused++
				}
			}
		})
	}
	return build(endToEndDefs, map[string]float64{
		"setup_s":           median(r.setupS),
		"decisions_per_s":   median(windowRates(r)),
		"place_p50_ms":      float64(percentile(place, 50)) / nsPerMS,
		"place_p90_ms":      float64(percentile(place, 90)) / nsPerMS,
		"release_p50_ms":    float64(percentile(release, 50)) / nsPerMS,
		"release_p90_ms":    float64(percentile(release, 90)) / nsPerMS,
		"place_accept_frac": ratio(float64(places-refused), float64(places)),
		"vms_per_pm":        vmsPerPM(r),
		"recover_s":         median(r.recoverS),
		"rss_mb":            r.rssMB,
	})
}

// histDiff is the change of one histogram over the timed phase.
type histDiff struct{ count, sum float64 }

func (h histDiff) mean() float64 { return ratio(h.sum, h.count) }

// obsDiff reads the daemon's instruments over the timed phase.
type obsDiff struct{ before, after obs.Snapshot }

func (o obsDiff) counter(name string) float64 {
	return float64(o.after.Counters[name] - o.before.Counters[name])
}

func (o obsDiff) hist(name string) histDiff {
	a, b := o.after.Histograms[name], o.before.Histograms[name]
	return histDiff{count: float64(a.Count - b.Count), sum: a.Sum - b.Sum}
}

// joined pairs each timed-phase client request with its handler span.
type joined struct {
	client, handler, transport []int64 // ns, by kind
}

// joinSpans pairs client requests and handler spans by (kind, vm) and
// splits each client span into handler time and transport self time.
func joinSpans(r *runResult) [2]joined {
	type key struct {
		kind uint8
		vm   int64
	}
	handlers := make(map[key]span, len(r.trace.spans))
	for _, s := range r.trace.spans {
		handlers[key{s.kind, s.vm}] = s
	}
	var out [2]joined
	for _, c := range r.conns {
		c.log.each(func(q *reqRec) {
			if q.phase != phaseTimed || q.code == codeFailed {
				return
			}
			s, ok := handlers[key{q.kind, q.vm}]
			if !ok {
				return
			}
			parent := interval{q.start, q.start + q.dur}
			j := &out[q.kind]
			j.client = append(j.client, q.dur)
			j.handler = append(j.handler, s.end-s.start)
			j.transport = append(j.transport, selfTime(parent, []interval{{s.start, s.end}}))
		})
	}
	return out
}

// perLayer computes a traced run's per-layer metrics; plain is the
// untraced run of the same seed and length.
func perLayer(plain, traced *runResult, plainE2E, tracedE2E metricSet) metricSet {
	tr := traced.trace
	od := obsDiff{before: tr.before, after: tr.after}
	js := joinSpans(traced)
	pl, jr := js[kindPlace], js[kindRelease]
	admit := od.hist("serve.place_seconds").mean() * 1e9 // ns
	placeReqs := od.counter("serve.place_requests")
	en := tr.engine
	p50 := func(xs []int64) float64 { return float64(percentile(sortedCopy(xs), 50)) / nsPerUS }
	plainPlace, plainRelease := plain.timedSamples()
	round := od.hist("deschedule.round_seconds")
	roundMax := tr.after.Histograms["deschedule.round_seconds"].Max
	first, second := halves(plain)

	return build(perLayerDefs, map[string]float64{
		"serve.handler_place_us_p50":   p50(pl.handler),
		"serve.handler_release_us_p50": p50(jr.handler),
		"serve.admit_us_mean":          admit / nsPerUS,
		"serve.http_json_us":           (mean(pl.handler) - admit) / nsPerUS,
		"serve.unattributed_us":        (admit - mean(en.perPlace)) / nsPerUS,
		"serve.batch_size_mean":        od.hist("serve.batch_size").mean(),
		"serve.forwards_per_place":     ratio(od.counter("serve.place_forwards"), placeReqs),
		"serve.wal_bytes_per_op":       ratio(float64(traced.walBytes), float64(traced.walOps)),
		"serve.snapshot_bytes":         float64(traced.snapBytes),
		"serve.stale_release_ops":      float64(traced.staleRelease),
		"serve.recover_ops_per_s":      ratio(float64(traced.replayed), median(traced.recoverS)),
		"serve.new_s":                  median(traced.newS),
		"transport.place_us_p50":       p50(pl.transport),
		"transport.release_us_p50":     p50(jr.transport),
		"client.place_us_p99":          float64(percentile(plainPlace, 99)) / nsPerUS,
		"client.release_us_p99":        float64(percentile(plainRelease, 99)) / nsPerUS,
		"client.rate_half_ratio":       ratio(float64(second), float64(first)),
		"placement.place_us_p50":       p50(en.place),
		"placement.place_us_p90":       float64(percentile(sortedCopy(en.place), 90)) / nsPerUS,
		"placement.reject_us_p50":      p50(en.reject),
		"placement.scanned_per_place":  ratio(od.counter("placement.pms_scanned"), placeReqs),
		"placement.fit_frac":           ratio(float64(en.fitsTrue), float64(en.fitsChecked)),
		"placement.profiles_per_place": ratio(od.counter("placement.profiles_enumerated"), placeReqs),
		"placement.scoreon_us_p50":     p50(en.scoreOn),
		"placement.ties_per_place":     ratio(od.counter("placement.ties_broken"), placeReqs),
		"placement.opened_per_place":   ratio(od.counter("placement.pms_opened"), placeReqs),
		"placement.host_us_p50":        p50(en.host),
		"placement.release_us_p50":     p50(en.release),
		"record.append_us_p50":         p50(en.appendOp),
		"record.flush_us_p50":          p50(en.flush),
		"record.decode_ops_per_s":      ratio(float64(traced.walOps), traced.decodeS),
		"deschedule.round_ms_mean":     round.mean() * 1e3,
		"deschedule.round_ms_max":      roundMax * 1e3,
		"deschedule.moves":             od.counter("deschedule.moves"),
		"deschedule.pms_freed":         od.counter("deschedule.pms_freed"),
		"lattice.build_s":              tr.build.latticeS,
		"lattice.nodes":                float64(tr.build.nodes),
		"lattice.edges":                float64(tr.build.edges),
		"pagerank.solve_s":             tr.build.solveS,
		"ranktable.movetable_s":        tr.build.movetableS,
		"ranktable.cache_hits":         float64(traced.daemon.cache.Hits),
		"engine.same_pm_frac":          ratio(float64(en.same), float64(en.compared)),
		"trace.overhead_frac":          1 - ratio(tracedE2E.get("decisions_per_s"), plainE2E.get("decisions_per_s")),
	})
}

// vmsPerPM is the mean of the consolidation samples taken during the
// timed phase, or the end-of-phase value when the phase was too short
// to sample.
func vmsPerPM(r *runResult) float64 {
	if len(r.vmsPerPM) == 0 {
		return ratio(float64(r.endList.VMs), float64(r.endList.UsedPMs))
	}
	sum := 0.0
	for _, v := range r.vmsPerPM {
		sum += v
	}
	return sum / float64(len(r.vmsPerPM))
}

// windowRates returns the decision rate (1/s) of each whole one-second
// window of the timed phase, counting decisions by completion time.
// Its median is decisions_per_s: a stall of a few seconds — a GC cycle,
// a busy neighbour — moves it far less than it moves the phase mean.
func windowRates(r *runResult) []float64 {
	n := int(r.timedDur / time.Second)
	if n == 0 {
		t := r.phases[phaseTimed]
		return []float64{float64(t.ok+t.refused) / r.timedDur.Seconds()}
	}
	counts := make([]float64, n)
	for _, c := range r.conns {
		c.log.each(func(q *reqRec) {
			if q.phase != phaseTimed || q.code == codeFailed {
				return
			}
			if w := int((q.start + q.dur - r.timedFrom) / int64(time.Second)); w >= 0 && w < n {
				counts[w]++
			}
		})
	}
	return counts
}

// halves counts the timed phase's decisions completed in its first and
// second half.
func halves(r *runResult) (first, second int) {
	mid := r.timedFrom + int64(r.timedDur)/2
	for _, c := range r.conns {
		c.log.each(func(q *reqRec) {
			if q.phase != phaseTimed || q.code == codeFailed {
				return
			}
			if q.start+q.dur < mid {
				first++
			} else {
				second++
			}
		})
	}
	return first, second
}

// printReconcile prints the traced run's latency split: per request,
// client time = handler time + transport time, so the means add up.
func printReconcile(w io.Writer, r *runResult) {
	js := joinSpans(r)
	for kind, name := range []string{"place", "release"} {
		j := js[kind]
		fmt.Fprintf(w, "# reconcile %s n=%d client_mean_us=%.2f = handler_mean_us %.2f + transport_mean_us %.2f; p50 client=%.2f handler=%.2f transport=%.2f\n",
			name, len(j.client), mean(j.client)/nsPerUS, mean(j.handler)/nsPerUS, mean(j.transport)/nsPerUS,
			float64(percentile(sortedCopy(j.client), 50))/nsPerUS,
			float64(percentile(sortedCopy(j.handler), 50))/nsPerUS,
			float64(percentile(sortedCopy(j.transport), 50))/nsPerUS)
	}
}
