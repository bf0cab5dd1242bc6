package main

import (
	"fmt"
	"sort"
	"time"

	"pagerankvm/internal/experiments"
)

// workload is one traffic mix against one fleet.
type workload struct {
	name string
	why  string
	// pmTypes and perType define the fleet: perType PMs of each type,
	// interleaved in type order.
	pmTypes []experiments.PMTypeSpec
	perType int
	// conns is the number of closed-loop client connections.
	conns int
	// target is the resident population the churn mix reverts to
	// (split evenly over connections). Zero selects hold-full mode:
	// prefill until the first refusal, then place with probability
	// holdPlace and release the most recently accepted VM. Releasing
	// last-in-first-out keeps the prefill's type composition in place,
	// so the population is stationary from the first op; random
	// releases would let small VM types, which fit more often, crowd
	// out large ones for minutes.
	target    int
	holdPlace float64
	// warmup is the number of untimed ops per connection between
	// prefill and the timed phase.
	warmup int
	// band is the allowed resident population during the timed phase,
	// as fractions of the reference population (target, or the
	// population at the start of the timed phase in hold-full mode).
	band [2]float64
	// rebalanceEvery and drainBelow configure the daemon's background
	// rebalancer; zero rebalanceEvery leaves it off.
	rebalanceEvery time.Duration
	drainBelow     float64
	// setups and recoveries are how many times set-up and recovery are
	// repeated per run (their medians are reported).
	setups     int
	recoveries int
	// tail is the number of untimed ops per connection applied after
	// the benchmark's own snapshot cut and before the kill: the WAL
	// tail recovery replays.
	tail int
}

// h16 is a benchmark-only host type: an M3 with 16 cores and 128 GiB,
// where the CPU group's anti-collocation lattice is much larger than on
// the 8-core Table II hosts. The repository catalog does not carry it.
var h16 = experiments.PMTypeSpec{Name: "H16", Cores: 16, CoreGHz: 2.6, MemGiB: 128, Disks: 4, DiskGB: 250, Power: "E5-2670"}

// workloads lists every workload the benchmark runs.
var workloads = []workload{
	{
		name:           "churn-64-rebalance",
		why:            "short scans, two connections and a background rebalancer: HTTP/JSON, admission batching, WAL and rebalance lock holds dominate",
		pmTypes:        experiments.AmazonPMTypes(),
		perType:        64,
		conns:          2,
		target:         500,
		band:           [2]float64{0.9, 1.1},
		rebalanceEvery: 50 * time.Millisecond,
		drainBelow:     0.3,
		setups:         21,
		recoveries:     21,
		tail:           8192,
	},
	{
		name:       "churn-2048",
		why:        "8000 resident VMs on 4096 PMs, one connection: the Algorithm 2 scan over used PMs dominates",
		pmTypes:    experiments.AmazonPMTypes(),
		perType:    2048,
		conns:      1,
		target:     8000,
		band:       [2]float64{0.9, 1.1},
		setups:     21,
		recoveries: 21,
		tail:       16384,
	},
	{
		name:       "reject-512-h16",
		why:        "a full fleet with 16-core hosts: most places are refused after every shard is scanned, and set-up wires the 16-core lattice",
		pmTypes:    append(experiments.AmazonPMTypes(), h16),
		perType:    512,
		conns:      1,
		holdPlace:  0.75,
		warmup:     4000,
		band:       [2]float64{0.98, 1.02},
		setups:     3,
		recoveries: 21,
		tail:       16384,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// vmTypes returns the workload's VM type names, sorted: the order the
// generators index and sample them in.
func (w workload) vmTypes() []string {
	var names []string
	for _, vm := range experiments.AmazonVMTypes() {
		names = append(names, vm.Name)
	}
	sort.Strings(names)
	return names
}

// catalog builds the workload's catalog: Table I VMs on its PM types.
func (w workload) catalog() (*experiments.Catalog, error) {
	return experiments.NewCatalog(experiments.AmazonVMTypes(), w.pmTypes)
}

// churnPlace is the mean-reverting churn mix: place with probability
// 0.5 at the target population, more below it and less above it.
func churnPlace(n, target int) float64 {
	p := 0.5 + 8*float64(target-n)/float64(target)
	if p < 0.05 {
		return 0.05
	}
	if p > 0.95 {
		return 0.95
	}
	return p
}
