package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"unsafe"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/xrand"
)

// Tests for the sparse per-node adjacency layout (graph.go): the record
// size it buys, the capacity-clipped list headers checkpoint restore
// carves from one arena, GC dropping emptied lists, and new nodes' header
// sizing.

// TestNodeRecSize pins the node record to the 64-byte size class: the
// adjacency is one slice header and a mask, not a per-type array.
func TestNodeRecSize(t *testing.T) {
	if n := unsafe.Sizeof(nodeRec{}); n > 64 {
		t.Fatalf("nodeRec is %d bytes, want <= 64", n)
	}
}

// assertAdjacencyIndexed checks a node's list index: one mask bit per
// list, and the lists in listBit order.
func assertAdjacencyIndexed(t *testing.T, id ids.ID, a *adjacency) {
	t.Helper()
	if n := bits.OnesCount32(a.mask); n != len(a.lists) {
		t.Fatalf("%v: %d lists but %d mask bits", id, len(a.lists), n)
	}
	prev := uint32(0)
	for i, l := range a.lists {
		bit := listBit(l.t, l.in)
		if a.mask&bit == 0 || bit <= prev {
			t.Fatalf("%v: list %d (%v/%v) out of order or missing from mask %b", id, i, l.t, l.in, a.mask)
		}
		prev = bit
	}
}

// assertAllEdgesMatch compares Out, In and both degrees of every edge type
// for every probed node between two readers.
func assertAllEdgesMatch(t *testing.T, probe []ids.ID, got, want Reader) {
	t.Helper()
	for _, id := range probe {
		for et := EdgeType(1); et < edgeTypeMax; et++ {
			if g, w := got.Out(id, et), want.Out(id, et); !edgesEqual(g, w) {
				t.Fatalf("Out(%v, %v): got %v want %v", id, et, g, w)
			}
			if g, w := got.In(id, et), want.In(id, et); !edgesEqual(g, w) {
				t.Fatalf("In(%v, %v): got %v want %v", id, et, g, w)
			}
			if g, w := got.OutDegree(id, et), want.OutDegree(id, et); g != w {
				t.Fatalf("OutDegree(%v, %v): got %d want %d", id, et, g, w)
			}
			if g, w := got.InDegree(id, et), want.InDegree(id, et); g != w {
				t.Fatalf("InDegree(%v, %v): got %d want %d", id, et, g, w)
			}
		}
	}
}

// TestCheckpointNewListsKeepNeighbours restores a store from a checkpoint
// (every list header carved from the shared arena), then gives every node
// a list of a type and direction it did not have, in ID order — the order
// restore carved them, so an unclipped header slice would grow into its
// successor's. No restored header or entry may change, and the grown store
// must read the same through a Txn, the view, and a reloaded checkpoint.
func TestCheckpointNewListsKeepNeighbours(t *testing.T) {
	dir := t.TempDir()
	p, _, err := Open(dir, manualOpts(), registerTestIndexes)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(11)
	var pop []ids.ID
	for step := 1; step <= 60; step++ {
		pop = randomGraphStep(t, p.Store, r, pop, step)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re, info := reopen(t, dir, manualOpts())
	if info.CheckpointTS == 0 || info.Replayed != 0 {
		t.Fatalf("want a pure checkpoint restore: %+v", info)
	}

	type restored struct {
		lists []adjList   // header copies
		edges [][]edgeRec // entry copies
	}
	before := map[ids.ID]restored{}
	var loaded []ids.ID
	for i := range re.Store.shards {
		sh := &re.Store.shards[i]
		sh.mu.RLock()
		for id, rec := range sh.nodes {
			snap := restored{lists: append([]adjList(nil), rec.adj.lists...)}
			for _, l := range rec.adj.lists {
				snap.edges = append(snap.edges, append([]edgeRec(nil), l.edges...))
			}
			before[id] = snap
			loaded = append(loaded, id)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(loaded, func(i, j int) bool { return loaded[i] < loaded[j] })

	// Even nodes gain an out-list, odd nodes an in-list; no restored node
	// has either type.
	sink := ids.Compose(ids.KindTag, 1, 0)
	tx := re.Begin()
	if err := tx.CreateNode(sink, Props{{PropName, String("sink")}}); err != nil {
		t.Fatal(err)
	}
	for i, id := range loaded {
		if i%2 == 0 {
			err = tx.AddEdge(id, EdgeHasInterest, sink, int64(i))
		} else {
			err = tx.AddEdge(sink, EdgeHasModerator, id, int64(i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	for i, id := range loaded {
		sh := re.Store.shardFor(id)
		sh.mu.RLock()
		adj := sh.nodes[id].adj
		adj.lists = append([]adjList(nil), adj.lists...)
		sh.mu.RUnlock()
		assertAdjacencyIndexed(t, id, &adj)
		old := before[id]
		if len(adj.lists) != len(old.lists)+1 {
			t.Fatalf("%v: %d lists after adding one to %d", id, len(adj.lists), len(old.lists))
		}
		for j, o := range old.lists {
			n := adj.get(o.t, o.in)
			if len(n) != len(o.edges) || cap(n) != cap(o.edges) || unsafe.SliceData(n) != unsafe.SliceData(o.edges) {
				t.Fatalf("%v: restored %v/%v list header changed: len %d cap %d -> len %d cap %d",
					id, o.t, o.in, len(o.edges), cap(o.edges), len(n), cap(n))
			}
			for k := range o.edges {
				if n[k] != old.edges[j][k] {
					t.Fatalf("%v: restored %v/%v list entry %d changed: %+v -> %+v", id, o.t, o.in, k, old.edges[j][k], n[k])
				}
			}
		}
		wantT, wantIn := EdgeHasInterest, false
		if i%2 == 1 {
			wantT, wantIn = EdgeHasModerator, true
		}
		if added := adj.get(wantT, wantIn); len(added) != 1 || added[0].peer != sink {
			t.Fatalf("%v: added %v/%v list %+v, want one edge to %v", id, wantT, wantIn, added, sink)
		}
	}

	probe := append(append([]ids.ID(nil), loaded...), sink)
	v := re.CurrentView()
	re.View(func(tx *Txn) {
		assertAllEdgesMatch(t, probe, v, tx)
		assertViewMatchesTxn(t, re.Store, v, tx, pop)
	})

	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, info := reopen(t, dir, manualOpts())
	if info.Replayed != 0 {
		t.Fatalf("want a pure checkpoint restore: %+v", info)
	}
	v2 := re2.CurrentView()
	assertViewMatchesRebuild(t, v2, v)
	assertAllEdgesMatch(t, probe, v2, v)
	re2.View(func(tx *Txn) {
		assertAllEdgesMatch(t, probe, tx, v)
	})
}

// TestGCDropsEmptiedLists tombstones every edge of one list, reclaims it,
// and checks the emptied list is gone while its neighbours read the same.
func TestGCDropsEmptiedLists(t *testing.T) {
	s := New()
	a, b, c := personID(1), personID(2), postID(3)
	commitOrDie(t, s, func(tx *Txn) error {
		for _, id := range []ids.ID{a, b} {
			if err := tx.CreateNode(id, Props{{PropFirstName, String("p")}}); err != nil {
				return err
			}
		}
		if err := tx.CreateNode(c, nil); err != nil {
			return err
		}
		if err := tx.AddKnows(a, b, 1); err != nil {
			return err
		}
		return tx.AddEdge(a, EdgeLikes, c, 2)
	})
	commitOrDie(t, s, func(tx *Txn) error { return tx.DeleteEdge(a, EdgeLikes, c) })
	if n := s.GC(s.LastCommit()); n != 2 {
		t.Fatalf("GC reclaimed %d entries, want 2 (likes out and in)", n)
	}
	for _, id := range []ids.ID{a, c} {
		adj := &s.shardFor(id).nodes[id].adj
		assertAdjacencyIndexed(t, id, adj)
		for _, l := range adj.lists {
			if l.t == EdgeLikes {
				t.Fatalf("%v kept an emptied likes list (in=%v)", id, l.in)
			}
		}
	}
	v := s.CurrentView()
	s.View(func(tx *Txn) {
		assertAllEdgesMatch(t, []ids.ID{a, b, c}, v, tx)
		if got := tx.Out(a, EdgeKnows); len(got) != 1 || got[0].To != b {
			t.Fatalf("Out(a, knows) = %v after GC", got)
		}
	})
}

// TestNewNodeListHeadersSized checks a created node's list headers are
// allocated at the number of distinct lists its commit gives it: repeated
// types share a list, a symmetric edge gives both ends an out-list, and a
// directed edge gives its target an in-list.
func TestNewNodeListHeadersSized(t *testing.T) {
	s := New()
	a, b, post := personID(1), personID(2), postID(3)
	tag := ids.Compose(ids.KindTag, 4, 0)
	commitOrDie(t, s, func(tx *Txn) error {
		for _, id := range []ids.ID{a, b, post, tag} {
			if err := tx.CreateNode(id, nil); err != nil {
				return err
			}
		}
		for _, err := range []error{
			tx.AddKnows(a, b, 1),
			tx.AddEdge(post, EdgeHasCreator, a, 2),
			tx.AddEdge(post, EdgeHasTag, tag, 3),
			tx.AddEdge(post, EdgeHasTag, tag, 4),
			tx.AddEdge(b, EdgeLikes, post, 5),
		} {
			if err != nil {
				return err
			}
		}
		return nil
	})
	for id, want := range map[ids.ID]int{a: 2, b: 2, post: 3, tag: 1} {
		adj := &s.shardFor(id).nodes[id].adj
		assertAdjacencyIndexed(t, id, adj)
		if lists := adj.lists; len(lists) != want || cap(lists) != want {
			t.Fatalf("%v: %d lists, capacity %d, want %d", id, len(lists), cap(lists), want)
		}
	}
}

// TestCheckpointRejectsUnorderedLists hand-builds one-node checkpoints:
// lists in listBit order restore into the node's index, while a list out
// of that order or repeated is reported as corruption, not restored into a
// node whose mask and lists disagree.
func TestCheckpointRejectsUnorderedLists(t *testing.T) {
	id, peer := personID(1), personID(2)
	file := func(lists ...[2]byte) string {
		b := appendU32(nil, ckptMagic)
		b = appendU16(b, ckptVersion)
		b = appendU16(b, 0)
		b = appendU64(b, 7) // clock
		b = appendU32(b, 0) // dictionary
		b = appendU32(b, 1) // nodes
		b = appendU64(b, uint64(id))
		b = appendU16(b, 0) // props
		b = append(b, byte(len(lists)))
		for _, l := range lists {
			b = append(b, l[0], l[1])
			b = appendU32(b, 1)
			b = binary.AppendUvarint(b, zigzag(int64(peer)))
			b = binary.AppendUvarint(b, zigzag(int64(l[0])))
		}
		b = appendU16(b, 0) // kind lists
		b = appendU16(b, 0) // ordered indexes
		b = appendU16(b, 0) // hashed indexes
		b = appendU32(b, crc32.ChecksumIEEE(b))
		path := filepath.Join(t.TempDir(), ckptName(7))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	knowsOut, likesOut, likesIn := [2]byte{byte(EdgeKnows), 0}, [2]byte{byte(EdgeLikes), 0}, [2]byte{byte(EdgeLikes), 1}

	s := New()
	if _, err := loadCheckpoint(s, file(knowsOut, likesOut, likesIn)); err != nil {
		t.Fatalf("ordered lists: %v", err)
	}
	assertAdjacencyIndexed(t, id, &s.shardFor(id).nodes[id].adj)
	tx := s.Begin()
	if got := tx.In(id, EdgeLikes); len(got) != 1 || got[0].To != peer || got[0].Stamp != int64(EdgeLikes) {
		t.Fatalf("In(likes) after restore = %v", got)
	}
	for name, lists := range map[string][][2]byte{
		"out of order": {likesOut, knowsOut},
		"repeated":     {knowsOut, knowsOut},
	} {
		if _, err := loadCheckpoint(New(), file(lists...)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s lists: err = %v, want ErrCorrupt", name, err)
		}
	}
}
