package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/placement"
)

// A release must name the PM the VM actually leaves. A rebalance can
// move a VM between PMs of its shard after a release has read the VM
// directory but before it takes the shard lock; the WAL op and the
// reply must then name the new host, not the one the directory
// remembered.
func TestReleaseNamesHostResolvedUnderLock(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, 1, 4)
	defer func() { _ = s.Close() }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	var pr PlaceResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/place", PlaceRequest{VM: 1, Type: "m3.large"}, &pr); code != http.StatusOK {
		t.Fatalf("place: status %d", code)
	}

	// Move the VM inside the cluster only, as a rebalance round does
	// between the directory read and the lock: the directory goes stale.
	sh := s.shards[0]
	sh.mu.Lock()
	src, _ := sh.cluster.Locate(1)
	var dest *placement.PM
	for _, pm := range sh.cluster.UnusedPMs() {
		if pm.Type == src.Type {
			dest = pm
			break
		}
	}
	h, err := sh.cluster.Release(1)
	if err == nil && dest != nil {
		err = sh.cluster.Host(dest, h.VM, h.Assign)
	}
	sh.mu.Unlock()
	if err != nil || dest == nil {
		t.Fatalf("move vm 1 off pm %d: dest %v, err %v", src.ID, dest, err)
	}

	var rr ReleaseResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/release", ReleaseRequest{VM: 1}, &rr); code != http.StatusOK {
		t.Fatalf("release: status %d", code)
	}
	if rr.PM != dest.ID {
		t.Errorf("release reply names pm %d; the vm left pm %d", rr.PM, dest.ID)
	}
	var logged []record.Op
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range segs {
		if _, err := readSegmentOps(filepath.Join(dir, name), false, func(op record.Op) error {
			if op.Kind == record.OpRelease {
				logged = append(logged, op)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(logged) != 1 || logged[0].PM != dest.ID || logged[0].Seq != rr.Seq {
		t.Fatalf("WAL release ops %+v; want one naming pm %d at seq %d", logged, dest.ID, rr.Seq)
	}
}

// decodeBody accepts exactly one JSON object of bounded size.
func TestDecodeBodyLimits(t *testing.T) {
	s := newTestServer(t, "", 1, 2)
	defer func() { _ = s.Close() }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"valid", `{"vm":1,"type":"m3.medium"}`, http.StatusOK, ""},
		{"valid trailing whitespace", "{\"vm\":2,\"type\":\"m3.medium\"}\n\t ", http.StatusOK, ""},
		{"trailing object", `{"vm":3,"type":"m3.medium"}{"vm":4}`, http.StatusBadRequest, "bad_request"},
		{"trailing garbage", `{"vm":5,"type":"m3.medium"}x`, http.StatusBadRequest, "bad_request"},
		{"trailing brace", `{"vm":6,"type":"m3.medium"}}`, http.StatusBadRequest, "bad_request"},
		{"oversize object", `{"vm":7,"type":"` + strings.Repeat("m", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge, "body_too_large"},
		{"oversize trailer", `{"vm":8,"type":"m3.medium"}` + strings.Repeat(" ", maxBodyBytes), http.StatusRequestEntityTooLarge, "body_too_large"},
		{"empty", ``, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/place", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = resp.Body.Close() }()
			var er ErrorResponse
			_ = json.NewDecoder(resp.Body).Decode(&er) // success bodies carry no code
			if resp.StatusCode != tc.status || er.Code != tc.code {
				t.Fatalf("status %d code %q; want %d %q", resp.StatusCode, er.Code, tc.status, tc.code)
			}
		})
	}
}

// Sharding costs a little packing quality: each shard runs Algorithm 2
// over its own slice of the fleet and forwards only when full, so every
// shard keeps its own partly filled PMs. The bound pins that tax so a
// routing or forwarding change cannot silently fragment the fleet.
// Measured on this workload (6,000 Table I placements drawn with seed
// 1, no releases, 1,024 PMs per Table II type): 890 active PMs at 1
// shard, 919 at 2, 922 at 4, 924 at 8 (+3.8%); seeds 2-5 give +2.7% to
// +3.1% at 8 shards.
func TestShardingTaxBound(t *testing.T) {
	one := activePMsAfterPlacements(t, 1)
	eight := activePMsAfterPlacements(t, 8)
	t.Logf("active PMs after 6000 placements: 1 shard %d, 8 shards %d", one, eight)
	if limit := one + one/20; eight > limit {
		t.Fatalf("8 shards use %d active PMs, 1 shard %d: more than the 5%% margin allows (%d)", eight, one, limit)
	}
}

// activePMsAfterPlacements places 6,000 VMs drawn from the Table I mix
// (seed 1) on a fresh in-memory server and returns the active PM count.
func activePMsAfterPlacements(t *testing.T, shards int) int {
	t.Helper()
	cat, _ := testEnv(t)
	s := newTestServer(t, "", shards, 1024)
	defer func() { _ = s.Close() }()
	mix := experiments.VMMix()
	names := make([]string, 0, len(mix))
	for n := range mix {
		names = append(names, n)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(1))
	for id := 0; id < 6000; id++ {
		vm, err := cat.NewVM(id, experiments.SampleVMType(mix, names, rng.Float64()))
		if err != nil {
			t.Fatal(err)
		}
		if res := s.submitPlace(vm, nil); res.err != nil {
			t.Fatalf("place vm %d: %v", id, res.err)
		}
	}
	used := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		used += sh.cluster.NumUsed()
		sh.mu.Unlock()
	}
	return used
}
