package service

import (
	"strconv"
	"testing"
	"time"
)

// TestTenantRowsBounded: 10,000 tenant names leave at most maxTenants
// rows, the one tenant that keeps sending keeps its row, and the server
// totals still count every request.
func TestTenantRowsBounded(t *testing.T) {
	s := newServerStats()
	const names = 10_000
	for i := 0; i < names; i++ {
		s.submitted("steady", 1)
		s.submitted("once-"+strconv.Itoa(i), 2)
		s.served("once-"+strconv.Itoa(i), i%2 == 0, true, time.Millisecond, 0)
		s.rejected("once-" + strconv.Itoa(i))
	}
	var snap Snapshot
	s.fill(&snap)
	if len(snap.Tenants) > maxTenants || len(s.tenants) > maxTenants {
		t.Fatalf("%d tenant rows (%d in the map), want at most %d", len(snap.Tenants), len(s.tenants), maxTenants)
	}
	if snap.Submitted != 3*names || snap.Served != names || snap.Errors != names/2 || snap.Rejected != names {
		t.Fatalf("totals submitted=%d served=%d errors=%d rejected=%d, want %d, %d, %d, %d",
			snap.Submitted, snap.Served, snap.Errors, snap.Rejected, 3*names, names, names/2, names)
	}
	steady, last := s.tenants["steady"], s.tenants["once-"+strconv.Itoa(names-1)]
	if steady == nil || steady.Submitted != names {
		t.Fatalf("the steady tenant's row is %+v, want its %d submissions", steady, names)
	}
	if last == nil || last.Submitted != 2 || last.Served != 1 || last.Rejected != 1 {
		t.Fatalf("the newest tenant's row is %+v", last)
	}
	if _, ok := s.tenants["once-0"]; ok {
		t.Fatal("the least recently active tenant kept its row")
	}
	// Recording for a tenant that has a row, or for a new one that takes
	// over the oldest row, allocates nothing.
	if allocs := testing.AllocsPerRun(100, func() { s.served("steady", false, true, 0, 0) }); allocs != 0 {
		t.Errorf("recording a known tenant allocates %v times", allocs)
	}
	fresh := make([]string, 101)
	for i := range fresh {
		fresh[i] = "fresh-" + strconv.Itoa(i)
	}
	next := 0
	if allocs := testing.AllocsPerRun(100, func() { s.rejected(fresh[next]); next++ }); allocs != 0 {
		t.Errorf("recording a new tenant at the bound allocates %v times", allocs)
	}
}
