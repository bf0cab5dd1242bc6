//go:build !race

package placement_test

// Wiring a 16-core host's CPU-group lattice takes seconds natively and
// about a minute under the race detector, which adds nothing to this
// single-goroutine property; race runs check the Table II hosts only
// (TestBestMoveOKIffFits).

import (
	"testing"

	"pagerankvm/internal/experiments"
)

// TestBestMoveOKIffFits16Core is TestBestMoveOKIffFits on a 16-core
// host, whose CPU-group lattice is far larger than the 8-core Table II
// hosts'.
func TestBestMoveOKIffFits16Core(t *testing.T) {
	h16 := experiments.PMTypeSpec{Name: "H16", Cores: 16, CoreGHz: 2.6, MemGiB: 128, Disks: 4, DiskGB: 250, Power: "E5-2670"}
	cat, err := experiments.NewCatalog(experiments.AmazonVMTypes(), []experiments.PMTypeSpec{h16})
	if err != nil {
		t.Fatal(err)
	}
	checkBestMoveOKIffFits(t, cat, 16)
}
