// Command servebench is the repository's serve benchmark: it runs the
// serve.Server placement daemon in-process behind a loopback net/http
// server, drives it with seeded closed-loop HTTP/1.1 clients, checks
// its outputs, and prints one JSON result line. See README.md.
//
// Usage:
//
//	servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--workdir dir]
//
// With --trace 0 the result carries the end-to-end metrics of one
// untraced run. With --trace 1 the workload runs twice with the same
// seed and length, untraced and then traced, and the result carries
// the per-layer metrics of the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, runs the workload and prints the result; it
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "servebench"), "scratch directory for data dirs and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "servebench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	fmt.Fprintf(stdout, "# machine %s\n", fingerprint())
	fmt.Fprintf(stdout, "# workload %s seed=%d seconds=%d trace=%d conns=%d shards=%d wal=on fsync=off batching=greedy periodic-snapshots=off\n",
		w.name, *seed, *seconds, *trace, w.conns, benchShards)

	plain, err := runWorkload(w, *seed, *seconds, false, filepath.Join(dir, "plain"))
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	e2e := endToEnd(plain)
	printRun(stdout, "untraced", plain, e2e)
	checks := plain.checks
	attempted, failed := plain.phases[phaseTimed].sent, failedRequests(plain)
	metrics := e2e

	if *trace == 1 {
		traced, err := runWorkload(w, *seed, *seconds, true, filepath.Join(dir, "traced"))
		if err != nil {
			fmt.Fprintln(stderr, "servebench:", err)
			return 1
		}
		traced.trace.build, err = buildPass(traced.daemon.cat)
		if err != nil {
			fmt.Fprintln(stderr, "servebench: build pass:", err)
			return 1
		}
		tE2E := endToEnd(traced)
		printRun(stdout, "traced", traced, tE2E)
		metrics = perLayer(plain, traced, e2e, tE2E)
		printReconcile(stdout, traced)
		if err := writeSpans(filepath.Join(*workdir, "traces"), w.name, *seed, traced); err != nil {
			fmt.Fprintln(stderr, "servebench: write spans:", err)
			return 1
		}
		checks = append(checks, traced.checks...)
		attempted += traced.phases[phaseTimed].sent
		failed += failedRequests(traced)
	}

	for _, c := range checks {
		fmt.Fprintln(stdout, "# CHECK FAILED:", c)
	}
	correct := len(checks) == 0 && failed == 0
	out := map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics.json(),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// failedRequests counts failed requests over every phase.
func failedRequests(r *runResult) int {
	n := 0
	for _, p := range r.phases {
		n += p.failed
	}
	return n
}

// printRun prints a run's phase counts and end-to-end metrics.
func printRun(w io.Writer, label string, r *runResult, m metricSet) {
	for i, p := range r.phases {
		fmt.Fprintf(w, "# %s phase=%s sent=%d ok=%d refused=%d failed=%d\n", label, phaseNames[i], p.sent, p.ok, p.refused, p.failed)
	}
	fmt.Fprintf(w, "# %s timed=%.3fs resident=%d active_pms=%d replayed_ops=%d\n",
		label, r.timedDur.Seconds(), r.endList.VMs, r.endList.UsedPMs, r.replayed)
	fmt.Fprintf(w, "# %s window_rates=%s setups_s=%s recoveries_s=%s\n", label,
		fmtFloats(windowRates(r), 0), fmtFloats(r.setupS, 4), fmtFloats(r.recoverS, 4))
	if r.staleRelease > 0 {
		fmt.Fprintf(w, "# %s DEFECT: %d WAL release ops name a PM the VM had already been moved off (see README)\n", label, r.staleRelease)
	}
	for _, v := range m {
		fmt.Fprintf(w, "# %s %s = %.6g %s\n", label, v.name, v.value, v.unit)
	}
}

// fingerprint describes the machine a result was measured on.
func fingerprint() string {
	var uts syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&uts) == nil {
		kernel = utsString(uts.Release[:])
	}
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d cpu=%q kernel=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), kernel)
}

// utsString converts a NUL-terminated utsname field.
func utsString(f []int8) string {
	b := make([]byte, 0, len(f))
	for _, c := range f {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeSpans writes a traced run's client and handler spans as CSV.
func writeSpans(dir, workload string, seed int64, r *runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.csv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, "layer,kind,vm,start_ns,end_ns\n"...)
	kinds := [...]string{"place", "release"}
	flush := func() error {
		_, err := f.Write(buf)
		buf = buf[:0]
		return err
	}
	var werr error
	row := func(layer string, kind uint8, vm, start, end int64) {
		buf = append(buf, layer...)
		buf = append(buf, ',')
		buf = append(buf, kinds[kind]...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, vm, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, start, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, end, 10)
		buf = append(buf, '\n')
		if len(buf) > 1<<15 && werr == nil {
			werr = flush()
		}
	}
	for _, c := range r.conns {
		c.log.each(func(q *reqRec) { row("client", q.kind, q.vm, q.start, q.start+q.dur) })
	}
	for _, s := range r.trace.spans {
		row("serve.handler", s.kind, s.vm, s.start, s.end)
	}
	if werr == nil {
		werr = flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// fmtFloats renders xs compactly, comma-separated.
func fmtFloats(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(parts, ",")
}
