package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/xrand"
)

// Targeted tests for folds (fold.go): each shape of touched row — appends
// only, tombstoned, overlay-held, spilled — plus appended nodes, ordinal
// and era preservation, and the cases that must still rescan.

// commitOrDie runs fn in one transaction and commits it.
func commitOrDie(t *testing.T, s *Store, fn func(tx *Txn) error) {
	t.Helper()
	tx := s.Begin()
	if err := fn(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// foldNow advances the cached view and requires the advance to be a fold.
func foldNow(t *testing.T, s *Store) *SnapshotView {
	t.Helper()
	v, ev := s.AcquireView()
	if ev != ViewFolded {
		t.Fatalf("view advance: %v, want fold (%+v)", ev, s.ViewStats())
	}
	return v
}

// assertFoldEquivalent checks a folded view against a rescan at the same
// timestamp and against the Txn path over the probed IDs.
func assertFoldEquivalent(t *testing.T, s *Store, v *SnapshotView, probe []ids.ID) {
	t.Helper()
	assertViewMatchesRebuild(t, v, s.ViewAt(v.Timestamp()))
	tx := s.Begin()
	tx.readonly = true
	assertViewMatchesTxn(t, s, v, tx, probe)
}

// rowBytes returns one encoded slab row of a view's base.
func rowBytes(v *SnapshotView, id ids.ID, et EdgeType, in bool) []byte {
	o, _ := v.Ord(id)
	c := &v.base.out[et]
	if in {
		c = &v.base.in[et]
	}
	i := int(o) - int(c.lo)
	if i < 0 || i+1 >= len(c.offsets) {
		return nil
	}
	return c.data[c.offsets[i]:c.offsets[i+1]]
}

// hubStore builds a post liked by n persons and takes the first (rescanned)
// view; every later advance folds (threshold 1).
func hubStore(t *testing.T, n int) (*Store, ids.ID, []ids.ID) {
	t.Helper()
	s := New()
	hub := postID(1)
	var pop []ids.ID
	commitOrDie(t, s, func(tx *Txn) error {
		if err := tx.CreateNode(hub, Props{{PropCreationDate, Int64(1)}}); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			p := personID(uint32(100 + i))
			pop = append(pop, p)
			if err := tx.CreateNode(p, Props{{PropFirstName, String("p")}}); err != nil {
				return err
			}
			if err := tx.AddEdge(p, EdgeLikes, hub, int64(1000+7*i)); err != nil {
				return err
			}
		}
		return nil
	})
	if _, ev := s.AcquireView(); ev != ViewRebuilt {
		t.Fatalf("first acquisition: %v", ev)
	}
	s.SetViewCompactThreshold(1)
	return s, hub, append(pop, hub)
}

// TestFoldAppendOnlyRowKeepsEncodedBytes pins the tail fast path: a hub
// row that only grew keeps its old encoded entries byte for byte, with the
// new entries coded after them.
func TestFoldAppendOnlyRowKeepsEncodedBytes(t *testing.T) {
	s, hub, pop := hubStore(t, 300)
	v0 := s.CurrentView()
	count0, entries0 := rowHead(rowBytes(v0, hub, EdgeLikes, true))
	if count0 != 300 {
		t.Fatalf("setup: hub in-row has %d entries", count0)
	}
	commitOrDie(t, s, func(tx *Txn) error {
		for i := 0; i < 5; i++ {
			if err := tx.AddEdge(pop[i*10], EdgeLikes, hub, int64(5000+i)); err != nil {
				return err
			}
		}
		return nil
	})
	v1 := foldNow(t, s)
	count1, entries1 := rowHead(rowBytes(v1, hub, EdgeLikes, true))
	if count1 != 305 {
		t.Fatalf("folded hub row has %d entries, want 305", count1)
	}
	if !bytes.HasPrefix(entries1, entries0) {
		t.Fatal("folded hub row did not keep its encoded entries")
	}
	assertFoldEquivalent(t, s, v1, pop)
	assertBaseInvariants(t, v1.base)

	// A second fold extends the row from the end the first one recorded.
	commitOrDie(t, s, func(tx *Txn) error { return tx.AddEdge(pop[1], EdgeLikes, hub, 6000) })
	v2 := foldNow(t, s)
	if count2, entries2 := rowHead(rowBytes(v2, hub, EdgeLikes, true)); count2 != 306 || !bytes.HasPrefix(entries2, entries1) {
		t.Fatalf("second fold: %d entries, prefix kept %v", count2, bytes.HasPrefix(entries2, entries1))
	}
	assertFoldEquivalent(t, s, v2, pop)
	assertBaseInvariants(t, v2.base)
}

// TestFoldHubSweep folds a few long rows through random appends and
// tombstones: every step's view must match a rescan and the Txn path, and
// the coding ends kept for long rows must match their bytes.
func TestFoldHubSweep(t *testing.T) {
	s, _, pop := hubStore(t, 150)
	hubs := []ids.ID{postID(1), postID(2), postID(3)}
	commitOrDie(t, s, func(tx *Txn) error {
		for _, h := range hubs[1:] {
			if err := tx.CreateNode(h, nil); err != nil {
				return err
			}
		}
		return nil
	})
	r := xrand.New(77)
	for step := 0; step < 40; step++ {
		commitOrDie(t, s, func(tx *Txn) error {
			for i := 0; i < 1+r.Intn(40); i++ {
				if err := tx.AddEdge(pop[r.Intn(len(pop)-1)], EdgeLikes, hubs[r.Intn(len(hubs))], int64(step*100+i)); err != nil {
					return err
				}
			}
			if r.Bool(0.5) {
				return tx.DeleteEdge(pop[r.Intn(len(pop)-1)], EdgeLikes, hubs[r.Intn(len(hubs))])
			}
			return nil
		})
		v := foldNow(t, s)
		assertFoldEquivalent(t, s, v, append(pop, hubs...))
		assertBaseInvariants(t, v.base)
	}
}

// TestFoldRepacksProperties covers the property slab: replaced rows are
// appended and counted dead until a fold repacks the slab in ordinal
// order.
func TestFoldRepacksProperties(t *testing.T) {
	s, _, pop := hubStore(t, 20)
	shared, repacked := false, false
	for round := 0; round < 12; round++ {
		commitOrDie(t, s, func(tx *Txn) error {
			for _, p := range pop[round%10*2 : round%10*2+2] {
				if err := tx.SetProp(p, PropLastName, String([]string{"x", "y"}[round%2])); err != nil {
					return err
				}
			}
			return nil
		})
		v := foldNow(t, s)
		if v.base.propDead > 0 {
			shared = true
		} else if shared {
			repacked = true
			for o := 1; o < len(v.base.propRow); o++ {
				if prev, sp := v.base.propRow[o-1], v.base.propRow[o]; sp.start() != prev.start()+prev.len() {
					t.Fatalf("repacked rows not in ordinal order at %d", o)
				}
			}
		}
		assertFoldEquivalent(t, s, v, pop)
	}
	if !shared || !repacked {
		t.Fatalf("want appended rows and a repack: appended %v, repacked %v", shared, repacked)
	}
}

// TestFoldTombstonedRowReencodes covers the full re-encode path: a row
// with a tombstone (plus appends before and after it) is rebuilt from its
// decoded entries.
func TestFoldTombstonedRowReencodes(t *testing.T) {
	s, hub, pop := hubStore(t, 50)
	commitOrDie(t, s, func(tx *Txn) error {
		if err := tx.AddEdge(pop[3], EdgeLikes, hub, 9000); err != nil {
			return err
		}
		if err := tx.DeleteEdge(pop[7], EdgeLikes, hub); err != nil {
			return err
		}
		return tx.AddEdge(pop[9], EdgeLikes, hub, 9001)
	})
	commitOrDie(t, s, func(tx *Txn) error { return tx.DeleteEdge(pop[3], EdgeLikes, hub) })
	v := foldNow(t, s)
	if got := v.InDegree(hub, EdgeLikes); got != 50 {
		t.Fatalf("hub in-degree after fold: %d, want 50", got)
	}
	assertFoldEquivalent(t, s, v, pop)
}

// TestFoldFlattensOverlayRows folds a view whose rows were already
// decoded into the copy-on-write overlay by earlier refreshes.
func TestFoldFlattensOverlayRows(t *testing.T) {
	s, hub, pop := hubStore(t, 40)
	s.SetViewCompactThreshold(8)
	commitOrDie(t, s, func(tx *Txn) error { return tx.AddEdge(pop[1], EdgeLikes, hub, 7000) })
	if _, ev := s.AcquireView(); ev != ViewRefreshed {
		t.Fatalf("small commit: %v, want refresh", ev)
	}
	commitOrDie(t, s, func(tx *Txn) error {
		for i := 0; i < 8; i++ {
			if err := tx.AddEdge(pop[2], EdgeLikes, hub, int64(7100+i)); err != nil {
				return err
			}
		}
		return nil
	})
	v := foldNow(t, s)
	if v.edgeOver != nil || v.propsOver != nil || v.nodesOver != nil {
		t.Fatal("folded view still carries an overlay")
	}
	assertFoldEquivalent(t, s, v, pop)
}

// TestFoldKeepsSpilledRows covers rows kept uncompressed in spill: a
// neighbour whose record is gone has no ordinal, so the rescan spills the
// rows naming it. A fold must carry an untouched spilled row and re-spill
// a touched one, matching the rescan and the Txn path.
func TestFoldKeepsSpilledRows(t *testing.T) {
	s := New()
	s.SetViewCompactThreshold(1)
	a, b, p1, p2 := personID(1), personID(2), postID(1), postID(2)
	ghost := postID(99) // never created: AddEdge makes it a bare record
	commitOrDie(t, s, func(tx *Txn) error {
		for _, id := range []ids.ID{a, b, p1, p2} {
			if err := tx.CreateNode(id, nil); err != nil {
				return err
			}
		}
		if err := tx.AddEdge(a, EdgeLikes, p1, 1); err != nil {
			return err
		}
		if err := tx.AddEdge(a, EdgeLikes, ghost, 2); err != nil {
			return err
		}
		return tx.AddEdge(b, EdgeLikes, ghost, 3)
	})
	sh := s.shardFor(ghost)
	sh.mu.Lock()
	delete(sh.nodes, ghost)
	sh.mu.Unlock()
	v0 := s.CurrentView()
	if len(v0.base.spill) != 2 {
		t.Fatalf("setup: %d spilled rows, want 2", len(v0.base.spill))
	}

	commitOrDie(t, s, func(tx *Txn) error { return tx.AddEdge(a, EdgeLikes, p2, 4) })
	v1 := foldNow(t, s)
	if len(v1.base.spill) != 2 {
		t.Fatalf("folded view has %d spilled rows, want 2", len(v1.base.spill))
	}
	if got := v1.Out(a, EdgeLikes); len(got) != 3 || got[2].To != p2 {
		t.Fatalf("touched spilled row: %v", got)
	}
	assertFoldEquivalent(t, s, v1, []ids.ID{a, b, p1, p2})
}

// TestFoldAppendsNodes covers appended nodes: created nodes join their kind
// list, bare endpoint records get an ordinal but no kind-list entry, and
// both are ordinal-mapped in the folded base's rows.
func TestFoldAppendsNodes(t *testing.T) {
	s, hub, pop := hubStore(t, 20)
	v0 := s.CurrentView()
	n0 := int32(v0.NumNodes())
	fresh := personID(900)
	bare := postID(901)
	commitOrDie(t, s, func(tx *Txn) error {
		if err := tx.CreateNode(fresh, Props{{PropFirstName, String("new")}}); err != nil {
			return err
		}
		if err := tx.AddKnows(fresh, pop[0], 1); err != nil {
			return err
		}
		if err := tx.AddEdge(fresh, EdgeLikes, bare, 2); err != nil {
			return err
		}
		return tx.AddEdge(fresh, EdgeLikes, hub, 3)
	})
	v1 := foldNow(t, s)
	for _, id := range []ids.ID{fresh, bare} {
		if o, ok := v1.Ord(id); !ok || o < n0 {
			t.Fatalf("node %v: ordinal %d ok=%v, want appended at >= %d", id, o, ok, n0)
		}
	}
	for _, id := range v1.NodesOfKind(ids.KindPost) {
		if id == bare {
			t.Fatal("bare endpoint record joined the Post kind list")
		}
	}
	if got := v1.In(bare, EdgeLikes); len(got) != 1 || got[0].To != fresh {
		t.Fatalf("bare node in-row: %v", got)
	}
	assertFoldEquivalent(t, s, v1, append(pop, fresh, bare))
}

// TestFoldKeepsOrdinalsAndEra pins the era contract across refreshes and
// folds: every pre-existing ID keeps its ordinal and Era() is unchanged.
func TestFoldKeepsOrdinalsAndEra(t *testing.T) {
	s := New()
	s.SetViewCompactThreshold(15)
	r := xrand.New(21)
	var pop []ids.ID
	pop = randomGraphStep(t, s, r, pop, 1)
	v0 := s.CurrentView()
	prev := v0
	for step := 2; step <= 25; step++ {
		pop = randomGraphStep(t, s, r, pop, step)
		v := s.CurrentView()
		assertOrdinalsKept(t, v0, v)
		assertOrdinalsKept(t, prev, v)
		prev = v
	}
	if st := s.ViewStats(); st.Folds == 0 || st.Rebuilds != 1 {
		t.Fatalf("want folds and no rescan after the first build: %+v", st)
	}
	assertFoldEquivalent(t, s, prev, pop)
}

// TestFoldedViewHidesLaterNodes: a fold appends to slabs its predecessor
// shares (node list, property slab, ordinal map), so an earlier view must
// not see the nodes a later fold adds.
func TestFoldedViewHidesLaterNodes(t *testing.T) {
	s, hub, _ := hubStore(t, 5)
	late := personID(777)
	commitOrDie(t, s, func(tx *Txn) error { return tx.AddEdge(personID(100), EdgeLikes, hub, 1) })
	v1 := foldNow(t, s)
	commitOrDie(t, s, func(tx *Txn) error {
		if err := tx.CreateNode(late, nil); err != nil {
			return err
		}
		return tx.AddEdge(late, EdgeLikes, hub, 2)
	})
	v2 := foldNow(t, s)
	if !v2.Exists(late) {
		t.Fatal("folded view misses its new node")
	}
	if v1.Exists(late) || v1.Out(late, EdgeLikes) != nil || v1.InDegree(hub, EdgeLikes) != 6 {
		t.Fatal("earlier view sees a node a later fold added")
	}
}

// TestFoldRingGapRescans: a gap in the delta ring still forces a rescan,
// which bumps the era.
func TestFoldRingGapRescans(t *testing.T) {
	s, hub, pop := hubStore(t, 10)
	s.SetViewDeltaCap(3)
	v0 := s.CurrentView()
	for i := 0; i < 4; i++ {
		commitOrDie(t, s, func(tx *Txn) error { return tx.AddEdge(pop[i], EdgeLikes, hub, int64(50+i)) })
	}
	v1, ev := s.AcquireView()
	if ev != ViewRebuilt {
		t.Fatalf("advance over a ring gap: %v, want rebuild", ev)
	}
	if v1.Era() == v0.Era() {
		t.Fatal("rescan kept the era")
	}
	if st := s.ViewStats(); st.Overflows == 0 || st.EraBumps != 1 {
		t.Fatalf("counters after a ring gap: %+v", st)
	}
	assertFoldEquivalent(t, s, v1, pop)
}

// TestHeldRingCatchesUp pins what AcquireView relies on while it
// maintains the view: a held ring takes commits past its bound without
// overflowing, and catchUp then folds them all into the cached view.
func TestHeldRingCatchesUp(t *testing.T) {
	s, hub, pop := hubStore(t, 30)
	s.SetViewDeltaCap(20)
	v0 := s.CurrentView()
	s.holdRing(true)
	for i := 0; i < 30; i++ {
		commitOrDie(t, s, func(tx *Txn) error { return tx.AddEdge(pop[i], EdgeLikes, hub, int64(100+i)) })
	}
	if st := s.ViewStats(); st.Overflows != 0 {
		t.Fatalf("held ring overflowed: %+v", st)
	}
	if !s.ringOverBound() {
		t.Fatal("30 commits did not pass a bound of 20")
	}
	s.viewMu.Lock()
	v := s.catchUp(v0)
	s.viewMu.Unlock()
	s.holdRing(false)
	if v.Timestamp() != s.LastCommit() || s.view.Load() != v || s.ringOverBound() {
		t.Fatalf("catch-up left the view at %d (clock %d)", v.Timestamp(), s.LastCommit())
	}
	if st := s.ViewStats(); st.Folds != 1 || st.Rebuilds != 1 || st.Overflows != 0 {
		t.Fatalf("catch-up counters: %+v", st)
	}
	assertFoldEquivalent(t, s, v, pop)
}

// TestRingBoundScalesWithView pins the default ring bound: a pending cost
// of 1/viewDeltaShare of the cached view's stored entries, never below
// minViewDeltaCost, and SetViewDeltaCap overrides and restores it.
func TestRingBoundScalesWithView(t *testing.T) {
	s, _, _ := hubStore(t, 10)
	s.deltaMu.Lock()
	bound := s.ringBoundLocked()
	s.deltaMu.Unlock()
	if bound != minViewDeltaCost {
		t.Fatalf("small view: bound %d, want the floor %d", bound, minViewDeltaCost)
	}
	big := &SnapshotView{base: &viewBase{entries: 100 * minViewDeltaCost}}
	s.scaleRing(big)
	s.deltaMu.Lock()
	bound = s.ringBoundLocked()
	s.deltaMu.Unlock()
	if want := 100 * minViewDeltaCost / viewDeltaShare; bound != want {
		t.Fatalf("large view: bound %d, want %d", bound, want)
	}
	if prev := s.SetViewDeltaCap(7); prev != 0 {
		t.Fatalf("first override returned %d, want 0", prev)
	}
	if prev := s.SetViewDeltaCap(0); prev != 7 {
		t.Fatalf("restore returned %d, want 7", prev)
	}
}

// TestOrdMapMerges pins the ordinal map a fold derives: appended IDs go
// to a cloned tail over the shared map until the tail would pass a quarter
// of it, then both merge into a new shared map; the map it was derived
// from never changes.
func TestOrdMapMerges(t *testing.T) {
	var m ordMap
	m.shared = map[ids.ID]int32{}
	for i := 0; i < 16; i++ {
		m.shared[personID(uint32(i))] = int32(i)
	}
	m1 := m.with([]ids.ID{personID(16), personID(17)}, 16)
	m2 := m1.with([]ids.ID{personID(18)}, 18)
	if len(m2.tail) != 3 || len(m2.shared) != 16 {
		t.Fatalf("small appends: tail %d shared %d", len(m2.tail), len(m2.shared))
	}
	m3 := m2.with([]ids.ID{personID(19), personID(20)}, 19)
	if m3.tail != nil || len(m3.shared) != 21 {
		t.Fatalf("merging append: tail %d shared %d", len(m3.tail), len(m3.shared))
	}
	if _, ok := m1.get(personID(18)); ok || m1.len() != 18 || m2.len() != 19 || m.len() != 16 {
		t.Fatal("an append changed a map it was derived from")
	}
	for i := 0; i < 21; i++ {
		if o, ok := m3.get(personID(uint32(i))); !ok || o != int32(i) {
			t.Fatalf("get %d: %d, %v", i, o, ok)
		}
	}
}

// TestCheckpointOfFoldedView checkpoints a view that folds built — ordinals
// past the rescan no longer ID-sorted, property rows appended to a shared
// slab — and requires the recovered store to serve the same view.
func TestCheckpointOfFoldedView(t *testing.T) {
	dir := t.TempDir()
	p, _, err := Open(dir, manualOpts(), registerTestIndexes)
	if err != nil {
		t.Fatal(err)
	}
	p.Store.SetViewCompactThreshold(1)
	r := xrand.New(41)
	var pop []ids.ID
	for step := 1; step <= 20; step++ {
		pop = randomGraphStep(t, p.Store, r, pop, step)
		p.Store.CurrentView()
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	v := p.Store.CurrentView()
	if st := p.Store.ViewStats(); st.Folds == 0 || st.Rebuilds != 1 {
		t.Fatalf("checkpointed view was not folded: %+v", st)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re, info := reopen(t, dir, manualOpts())
	if info.CheckpointTS != v.Timestamp() || info.Replayed != 0 {
		t.Fatalf("recovery did not come from the checkpoint alone: %+v", info)
	}
	assertViewMatchesRebuild(t, v, re.Store.CurrentView())
}

// TestFoldTakesNoShardLock runs a fold while every shard is write-locked:
// a fold that read the store would block.
func TestFoldTakesNoShardLock(t *testing.T) {
	s, hub, pop := hubStore(t, 10)
	commitOrDie(t, s, func(tx *Txn) error { return tx.AddEdge(pop[0], EdgeLikes, hub, 77) })
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	done := make(chan ViewEvent, 1)
	go func() {
		_, ev := s.AcquireView()
		done <- ev
	}()
	var ev ViewEvent
	select {
	case ev = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fold blocked on a shard lock")
	}
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	if ev != ViewFolded {
		t.Fatalf("advance: %v, want fold", ev)
	}
}

// TestViewFoldConcurrentCommits runs committers and readers together with a
// small threshold, so acquisitions fold while commits land (run it with
// -race). Writers commit until the readers' acquisitions have folded
// wantFolds times, however many commits that takes on a slow or loaded
// host; only a hang guard on wall-clock time fails the run. The first
// views each reader acquired are checked against a rescan at their
// timestamps once the writers stop.
func TestViewFoldConcurrentCommits(t *testing.T) {
	s := New()
	s.SetViewCompactThreshold(12)
	s.SetViewDeltaCap(1 << 30) // slow readers must not turn folds into rescans
	const writers, readers, wantFolds, checked = 3, 2, 20, 15
	const hangGuard = 2 * time.Minute
	deadline := time.Now().Add(hangGuard)
	var (
		popMu   sync.Mutex
		pop     []ids.ID
		commits atomic.Int64
	)
	commitOrDie(t, s, func(tx *Txn) error {
		for i := 0; i < 8; i++ {
			id := personID(uint32(i + 1))
			pop = append(pop, id)
			if err := tx.CreateNode(id, Props{{PropFirstName, String("seed")}}); err != nil {
				return err
			}
		}
		return nil
	})

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := xrand.New(uint64(100 + w))
			for c := 0; s.ViewStats().Folds < wantFolds; c++ {
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("readers folded %d of %d times in %v while %d commits landed: %+v",
						s.ViewStats().Folds, wantFolds, hangGuard, commits.Load(), s.ViewStats())
					return
				}
				popMu.Lock()
				known := pop
				popMu.Unlock()
				id := ids.Compose(ids.KindPerson, int64(1000+c), uint32(w))
				tx := s.Begin()
				err := tx.CreateNode(id, Props{{PropFirstName, String("w")}})
				for i := 0; err == nil && i < 3; i++ {
					peer := known[r.Intn(len(known))]
					if r.Bool(0.5) {
						err = tx.AddKnows(id, peer, int64(c))
					} else {
						err = tx.AddEdge(peer, EdgeLikes, id, int64(c))
					}
				}
				if err == nil && r.Bool(0.3) {
					peer := known[r.Intn(len(known))]
					var victim ids.ID
					s.View(func(rt *Txn) {
						if es := rt.Out(peer, EdgeLikes); len(es) > 0 {
							victim = es[r.Intn(len(es))].To
						}
					})
					if victim != 0 {
						err = tx.DeleteEdge(peer, EdgeLikes, victim)
					}
				}
				if err == nil {
					err = tx.Commit()
				}
				if err != nil && !errors.Is(err, ErrConflict) {
					errs <- err
					return
				}
				if err == nil {
					commits.Add(1)
					popMu.Lock()
					pop = append(pop, id)
					popMu.Unlock()
				}
			}
		}(w)
	}
	seen := make([][]*SnapshotView, readers)
	var rwg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		rwg.Add(1)
		go func(rd int) {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.CurrentView()
				// Read the newest rows so the race detector sees the
				// folded slabs read while later folds build the next ones.
				for o := max(0, int32(v.NumNodes())-64); o < int32(v.NumNodes()); o++ {
					id := v.IDAt(o)
					_ = v.Out(id, EdgeKnows)
					_ = v.In(id, EdgeLikes)
					_ = v.Prop(id, PropFirstName)
				}
				if n := len(seen[rd]); n < checked && (n == 0 || seen[rd][n-1] != v) {
					seen[rd] = append(seen[rd], v)
				}
			}
		}(rd)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.ViewStats(); st.Folds < wantFolds {
		t.Fatalf("readers folded %d times while %d commits landed: %+v", st.Folds, commits.Load(), st)
	}
	for _, vs := range seen {
		for _, v := range vs {
			assertViewMatchesRebuild(t, v, s.ViewAt(v.Timestamp()))
		}
	}
	assertBaseInvariants(t, s.CurrentView().base)
	v := s.CurrentView()
	tx := s.Begin()
	tx.readonly = true
	assertViewMatchesTxn(t, s, v, tx, pop)
}
