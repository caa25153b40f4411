package store

import (
	"testing"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/xrand"
)

// Tests for incremental snapshot-view maintenance: the delta-refreshed
// CurrentView chain must be indistinguishable from full rebuilds at every
// epoch, ordinals must stay stable within an era, and the maintenance
// counters must prove which path ran.

// assertViewMatchesRebuild compares a (possibly delta-refreshed) view
// against a from-scratch compaction at the same timestamp: same node set,
// consistent ordinal<->ID mapping, identical adjacency rows, props and
// kind lists. Ordinal values themselves may differ (refresh appends, a
// rebuild sorts), so the comparison is keyed by node ID.
func assertViewMatchesRebuild(t *testing.T, v, ref *SnapshotView) {
	t.Helper()
	if v.Timestamp() != ref.Timestamp() {
		t.Fatalf("timestamps diverge: %d vs %d", v.Timestamp(), ref.Timestamp())
	}
	if v.NumNodes() != ref.NumNodes() {
		t.Fatalf("node counts diverge: %d vs %d", v.NumNodes(), ref.NumNodes())
	}
	for o := int32(0); o < int32(ref.NumNodes()); o++ {
		id := ref.IDAt(o)
		vo, ok := v.Ord(id)
		if !ok {
			t.Fatalf("node %v missing from refreshed view", id)
		}
		if back := v.IDAt(vo); back != id {
			t.Fatalf("ordinal mapping broken: Ord(%v)=%d but IDAt(%d)=%v", id, vo, vo, back)
		}
		for _, et := range viewEdgeTypes {
			if got, want := v.Out(id, et), ref.Out(id, et); !edgesEqual(got, want) {
				t.Fatalf("Out(%v, %v): refreshed %v rebuild %v", id, et, got, want)
			}
			if got, want := v.In(id, et), ref.In(id, et); !edgesEqual(got, want) {
				t.Fatalf("In(%v, %v): refreshed %v rebuild %v", id, et, got, want)
			}
		}
		gotPs, _ := v.Props(id)
		wantPs, _ := ref.Props(id)
		if !propsEqual(gotPs, wantPs) {
			t.Fatalf("Props(%v): refreshed %v rebuild %v", id, gotPs, wantPs)
		}
	}
	for _, kind := range []ids.Kind{ids.KindPerson, ids.KindPost, ids.KindComment} {
		got, want := v.NodesOfKind(kind), ref.NodesOfKind(kind)
		if len(got) != len(want) {
			t.Fatalf("NodesOfKind(%v): refreshed %d rebuild %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("NodesOfKind(%v)[%d]: refreshed %v rebuild %v", kind, i, got[i], want[i])
			}
		}
	}
}

// refreshEquivalenceSweep grows a random graph one committed transaction at
// a time and, after every commit, checks the delta-refreshed CurrentView
// against both a full rebuild (ViewAt) and an MVCC transaction at the same
// snapshot, and — while the era holds — that every node of the previous
// view kept its ordinal. The store's maintenance knobs are set by the
// caller so the sweep can run refresh-heavy, fold-heavy, or overflow-heavy.
func refreshEquivalenceSweep(t *testing.T, seed uint64, steps int, tune func(*Store)) ViewStatsSnapshot {
	t.Helper()
	r := xrand.New(seed)
	s := New()
	if tune != nil {
		tune(s)
	}
	var pop []ids.ID
	var prev *SnapshotView
	for step := 1; step <= steps; step++ {
		pop = randomGraphStep(t, s, r, pop, step)
		v := s.CurrentView()
		assertViewMatchesRebuild(t, v, s.ViewAt(v.Timestamp()))
		tx := s.Begin()
		tx.readonly = true
		assertViewMatchesTxn(t, s, v, tx, pop)
		if prev != nil && prev.Era() == v.Era() {
			assertOrdinalsKept(t, prev, v)
		}
		assertBaseInvariants(t, v.base)
		prev = v
	}
	return s.ViewStats()
}

// assertBaseInvariants checks a viewBase's derived state against its
// slabs: the ordinal map maps every node to its ordinal, every csr's
// entry count matches its rows, and ends holds exactly the rows of at
// least longRow entries, each with the coding state its entries end in.
func assertBaseInvariants(t *testing.T, b *viewBase) {
	t.Helper()
	if b.ord.len() != len(b.nodes) {
		t.Fatalf("ordinal map holds %d nodes, the base %d", b.ord.len(), len(b.nodes))
	}
	for o, id := range b.nodes {
		if got, ok := b.ord.get(id); !ok || got != int32(o) {
			t.Fatalf("ordinal map: %v -> %d, %v; want %d", id, got, ok, o)
		}
	}
	long := 0
	for et := EdgeType(1); et < edgeTypeMax; et++ {
		for dir, c := range [2]*csr{&b.out[et], &b.in[et]} {
			entries := 0
			for i := 0; i+1 < len(c.offsets); i++ {
				ord := c.lo + int32(i)
				count, raw := rowHead(c.data[c.offsets[i]:c.offsets[i+1]])
				entries += count
				end, ok := b.ends[makeEdgeKey(ord, et, dir == 1)]
				if count < longRow {
					if ok {
						t.Fatalf("ends holds a short row: ordinal %d %v dir %d (%d entries)", ord, et, dir, count)
					}
					continue
				}
				long++
				if want := walkEnd(raw, count); !ok || end != want {
					t.Fatalf("ends of ordinal %d %v dir %d: %v (%v), want %v", ord, et, dir, end, ok, want)
				}
			}
			if entries != c.entries {
				t.Fatalf("csr %v dir %d: %d entries counted, %d recorded", et, dir, entries, c.entries)
			}
		}
	}
	if long != len(b.ends) {
		t.Fatalf("ends has %d rows, %d long rows exist", len(b.ends), long)
	}
}

// assertOrdinalsKept checks the era contract between two views of one
// era: every node of prev has the same ordinal in next.
func assertOrdinalsKept(t *testing.T, prev, next *SnapshotView) {
	t.Helper()
	if prev.Era() != next.Era() {
		t.Fatalf("era changed: %d -> %d", prev.Era(), next.Era())
	}
	for o := int32(0); o < int32(prev.NumNodes()); o++ {
		id := prev.IDAt(o)
		if o2, ok := next.Ord(id); !ok || o2 != o {
			t.Fatalf("ordinal of %v moved within era %d: %d -> %d (ok=%v)", id, next.Era(), o, o2, ok)
		}
	}
}

// TestViewRefreshEquivalenceRandomised is the delta-vs-full equivalence
// property: under an interleaved update stream (creations, property
// updates, edge insertions and deletions), the refreshed view chain must
// be indistinguishable from from-scratch compactions and from the MVCC
// read path at every epoch.
func TestViewRefreshEquivalenceRandomised(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		st := refreshEquivalenceSweep(t, seed, 30, nil)
		if st.Refreshes == 0 {
			t.Fatalf("sweep never exercised the refresh path: %+v", st)
		}
		if st.EraBumps != 0 || st.Folds != 0 {
			t.Fatalf("sweep unexpectedly compacted under the default threshold: %+v", st)
		}
	}
}

// TestViewRefreshEquivalenceAcrossFolds forces frequent compactions (a
// tiny compaction threshold) so the sweep crosses folds: refresh chains,
// folds and the transitions between them must all stay equivalent, and a
// fold keeps the era and every ordinal.
func TestViewRefreshEquivalenceAcrossFolds(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		st := refreshEquivalenceSweep(t, seed, 30, func(s *Store) {
			s.SetViewCompactThreshold(20)
		})
		if st.Folds == 0 {
			t.Fatalf("sweep never folded: %+v", st)
		}
		if st.Refreshes == 0 {
			t.Fatalf("sweep never refreshed between folds: %+v", st)
		}
		if st.Rebuilds != 1 || st.EraBumps != 0 {
			t.Fatalf("folds rescanned the store: %+v", st)
		}
	}
}

// TestViewFoldEquivalenceSweep is the fold-heavy sweep: with threshold 1
// every view advance folds, so each step's view is a fold of a fold, and
// must match a rescan and the Txn path after every commit.
func TestViewFoldEquivalenceSweep(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		st := refreshEquivalenceSweep(t, seed, 40, func(s *Store) {
			s.SetViewCompactThreshold(1)
		})
		if st.Folds < 39 || st.Refreshes != 0 || st.Rebuilds != 1 || st.EraBumps != 0 {
			t.Fatalf("want a fold on every advance after the first build: %+v", st)
		}
	}
}

// TestViewRefreshEquivalenceRingOverflow shrinks the delta ring so commit
// bursts overflow it: overflowed epochs must fall back to a correct full
// rebuild.
func TestViewRefreshEquivalenceRingOverflow(t *testing.T) {
	r := xrand.New(5)
	s := New()
	s.SetViewDeltaCap(2)
	var pop []ids.ID
	step := 1
	for round := 0; round < 8; round++ {
		// A burst of commits larger than the ring, then one view advance.
		for i := 0; i < 4; i++ {
			pop = randomGraphStep(t, s, r, pop, step)
			step++
		}
		v := s.CurrentView()
		assertViewMatchesRebuild(t, v, s.ViewAt(v.Timestamp()))
	}
	if st := s.ViewStats(); st.Overflows == 0 {
		t.Fatalf("ring never overflowed: %+v", st)
	}
}

// TestRingOverflowDoesNotAliasPendingDeltas is a regression test for the
// overflow path: dropping the ring must abandon the backing array, because
// a refresh may hold a pendingLocked subslice while commits keep landing —
// reusing the slots would hand that refresh foreign (future) deltas.
func TestRingOverflowDoesNotAliasPendingDeltas(t *testing.T) {
	s := New()
	s.SetViewDeltaCap(2)
	for i := 0; i < 2; i++ {
		tx := s.Begin()
		if err := tx.CreateNode(personID(830+uint32(i)), nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s.deltaMu.Lock()
	ds, ok := s.pendingLocked(0, 2)
	s.deltaMu.Unlock()
	if !ok || len(ds) != 2 {
		t.Fatalf("pending range: ok=%v len=%d", ok, len(ds))
	}
	// This commit overflows the 2-slot ring while ds is still held.
	tx := s.Begin()
	if err := tx.CreateNode(personID(832), nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if ds[0].ts != 1 || ds[1].ts != 2 {
		t.Fatalf("held delta range mutated by overflow: ts %d, %d", ds[0].ts, ds[1].ts)
	}
}

// TestViewRefreshOrdinalStability pins the era contract: a delta refresh
// never reassigns an existing node's ordinal — new nodes get appended
// ordinals — while a rescan bumps the era and may reassign.
func TestViewRefreshOrdinalStability(t *testing.T) {
	s := New()
	r := xrand.New(11)
	var pop []ids.ID
	pop = randomGraphStep(t, s, r, pop, 1)
	v1 := s.CurrentView()
	n1 := v1.NumNodes()

	pop = randomGraphStep(t, s, r, pop, 2)
	v2 := s.CurrentView()
	if v2.Era() != v1.Era() {
		t.Fatalf("sparse commit bumped the era: %d -> %d", v1.Era(), v2.Era())
	}
	for o := int32(0); o < int32(n1); o++ {
		id := v1.IDAt(o)
		o2, ok := v2.Ord(id)
		if !ok || o2 != o {
			t.Fatalf("refresh moved ordinal of %v: %d -> %d (ok=%v)", id, o, o2, ok)
		}
	}
	for o := int32(n1); o < int32(v2.NumNodes()); o++ {
		id := v2.IDAt(o)
		if v1.Exists(id) {
			t.Fatalf("appended ordinal %d holds pre-existing node %v", o, id)
		}
		if back, ok := v2.Ord(id); !ok || back != o {
			t.Fatalf("appended ordinal round trip: Ord(IDAt(%d)) = %d, %v", o, back, ok)
		}
	}

	// Force a rescan: the era must bump and ordinals return to ascending
	// ID order.
	s.SetViewCompactThreshold(0)
	pop = randomGraphStep(t, s, r, pop, 3)
	v3 := s.CurrentView()
	if v3.Era() == v2.Era() {
		t.Fatal("forced rescan kept the era")
	}
	var prev ids.ID
	for o := int32(0); o < int32(v3.NumNodes()); o++ {
		id := v3.IDAt(o)
		if o > 0 && id <= prev {
			t.Fatal("rescanned ordinals not in ascending ID order")
		}
		prev = id
	}
	_ = pop
}

// TestViewRefreshCounters pins the acceptance contract that the refresh
// path — not a rebuild — is what CurrentView takes after a sparse commit,
// observable through the maintenance counters.
func TestViewRefreshCounters(t *testing.T) {
	s := New()
	tx := s.Begin()
	if err := tx.CreateNode(personID(800), Props{{PropFirstName, String("a")}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ev := s.AcquireView(); ev != ViewRebuilt {
		t.Fatalf("first acquisition: %v, want rebuild", ev)
	}
	if _, ev := s.AcquireView(); ev != ViewHit {
		t.Fatalf("repeat acquisition: %v, want hit", ev)
	}

	tx = s.Begin()
	tx.CreateNode(personID(801), nil)
	tx.AddKnows(personID(800), personID(801), 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ev := s.AcquireView(); ev != ViewRefreshed {
		t.Fatalf("post-sparse-commit acquisition: %v, want refresh", ev)
	}

	st := s.ViewStats()
	if st.Refreshes != 1 || st.Rebuilds != 1 || st.EraBumps != 0 {
		t.Fatalf("counters after sparse commit: %+v", st)
	}

	// Threshold 0 disables refreshing and folding: the next advance must
	// rescan and bump the era.
	s.SetViewCompactThreshold(0)
	tx = s.Begin()
	tx.SetProp(personID(800), PropFirstName, String("b"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ev := s.AcquireView(); ev != ViewRebuilt {
		t.Fatalf("acquisition with threshold 0: want rebuild")
	}
	st = s.ViewStats()
	if st.Rebuilds != 2 || st.EraBumps != 1 {
		t.Fatalf("counters after forced rescan: %+v", st)
	}
}

// TestDeleteEdgeVisibility pins tombstone semantics on both read paths:
// the deleting commit hides the edge from later snapshots while earlier
// snapshots and retained views keep seeing it.
func TestDeleteEdgeVisibility(t *testing.T) {
	s := New()
	a, b := personID(810), personID(811)
	m := ids.Compose(ids.KindPost, 810, 0)
	tx := s.Begin()
	tx.CreateNode(a, nil)
	tx.CreateNode(b, nil)
	tx.CreateNode(m, nil)
	tx.AddKnows(a, b, 5)
	tx.AddEdge(a, EdgeLikes, m, 7)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	oldView := s.CurrentView()
	oldTxn := s.Begin()

	tx = s.Begin()
	tx.DeleteEdge(a, EdgeLikes, m)
	tx.DeleteEdge(a, EdgeKnows, b)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Old snapshots still see both edges.
	if len(oldView.Out(a, EdgeLikes)) != 1 || len(oldView.Out(a, EdgeKnows)) != 1 {
		t.Fatal("retained view lost a tombstoned edge")
	}
	if len(oldTxn.Out(a, EdgeLikes)) != 1 || len(oldTxn.In(m, EdgeLikes)) != 1 {
		t.Fatal("old snapshot lost a tombstoned edge")
	}

	// New snapshots see neither, on either path, in either direction.
	cur := s.CurrentView()
	s.View(func(rt *Txn) {
		for name, got := range map[string]int{
			"txn Out likes":   len(rt.Out(a, EdgeLikes)),
			"txn In likes":    len(rt.In(m, EdgeLikes)),
			"txn Out knows a": len(rt.Out(a, EdgeKnows)),
			"txn Out knows b": len(rt.Out(b, EdgeKnows)),
			"view Out likes":  len(cur.Out(a, EdgeLikes)),
			"view In likes":   len(cur.In(m, EdgeLikes)),
			"view knows a":    len(cur.Out(a, EdgeKnows)),
			"view knows b":    len(cur.Out(b, EdgeKnows)),
		} {
			if got != 0 {
				t.Fatalf("%s = %d after delete", name, got)
			}
		}
	})

	// Deleting a non-existent edge is a committed no-op.
	tx = s.Begin()
	tx.DeleteEdge(a, EdgeLikes, m)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteEdgeNewestOfDuplicates pins which duplicate a delete removes:
// the newest live insertion, on both read paths (the refresh path removes
// the last row occurrence, which must match the txn path's tombstone).
func TestDeleteEdgeNewestOfDuplicates(t *testing.T) {
	s := New()
	a, m := personID(820), ids.Compose(ids.KindPost, 820, 0)
	tx := s.Begin()
	tx.CreateNode(a, nil)
	tx.CreateNode(m, nil)
	tx.AddEdge(a, EdgeLikes, m, 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = s.Begin()
	tx.AddEdge(a, EdgeLikes, m, 2)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v0 := s.CurrentView() // chain root so the delete arrives via refresh
	if len(v0.Out(a, EdgeLikes)) != 2 {
		t.Fatal("setup: want 2 duplicate edges")
	}

	tx = s.Begin()
	tx.DeleteEdge(a, EdgeLikes, m)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []Edge{{To: m, Stamp: 1}}
	cur := s.CurrentView()
	if got := cur.Out(a, EdgeLikes); !edgesEqual(got, want) {
		t.Fatalf("refreshed view after delete: %v, want %v", got, want)
	}
	s.View(func(rt *Txn) {
		if got := rt.Out(a, EdgeLikes); !edgesEqual(got, want) {
			t.Fatalf("txn after delete: %v, want %v", got, want)
		}
		if got := rt.In(m, EdgeLikes); !edgesEqual(got, []Edge{{To: a, Stamp: 1}}) {
			t.Fatalf("txn reverse after delete: %v", got)
		}
	})
	if ev := func() ViewEvent { _, e := s.AcquireView(); return e }(); ev != ViewHit {
		t.Fatalf("expected cached view, got %v", ev)
	}
	if st := s.ViewStats(); st.Refreshes == 0 {
		t.Fatalf("delete was not served by refresh: %+v", st)
	}
}
