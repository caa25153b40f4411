package bench

import (
	"runtime"
	"testing"

	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
)

// heapAlloc returns the live heap after a full collection.
func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestComputeStatsMatchesHeap pins Table 8's figures to the heap: the MVCC
// total ComputeStats reports for a 250-person load must be within ±25% of
// the heap the loaded store retains, measured as the live heap with the
// store minus the live heap once it is dropped. Interned strings outlive
// the store (they are reported as InternBytes, not under the tables), and
// no view is built, so the difference is the MVCC store's.
func TestComputeStatsMatchesHeap(t *testing.T) {
	env := testEnv(t)
	st := store.New()
	schema.RegisterIndexes(st)
	if err := schema.LoadDimensions(st); err != nil {
		t.Fatal(err)
	}
	if err := schema.LoadParallel(st, env.Bulk, env.Cfg.Workers); err != nil {
		t.Fatal(err)
	}
	stats := st.ComputeStats()
	with := heapAlloc()
	runtime.KeepAlive(st)
	retained := with - heapAlloc()

	reported := stats.MVCCBytes()
	ratio := float64(reported) / float64(retained)
	t.Logf("ComputeStats MVCC total %d B, heap retained by the store %d B (ratio %.3f, %d nodes)",
		reported, retained, ratio, stats.Nodes)
	if ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("ComputeStats reports %d B for a store that retains %d B (ratio %.3f, want within ±25%%)",
			reported, retained, ratio)
	}
}
