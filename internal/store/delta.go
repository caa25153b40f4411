package store

import (
	"maps"

	"ldbcsnb/internal/ids"
)

// Incremental snapshot-view maintenance.
//
// Every committed transaction appends one CommitDelta — a compact record of
// the nodes it created, the property lists it replaced, and the adjacency
// entries it inserted or tombstoned — to a bounded in-memory ring alongside
// the WAL append. When CurrentView finds the cached view behind the commit
// watermark it advances the cached view from the pending deltas instead of
// rescanning the store, in one of two ways:
//
//   - refresh (applyDeltas): the deltas are applied copy-on-write as an
//     overlay on the cached view's viewBase — cost proportional to the
//     delta plus the overlay accumulated since the last compaction;
//   - fold (fold.go): once the overlay would cross the compaction threshold
//     (SetViewCompactThreshold), the cached view and the deltas are
//     compacted into a new flat viewBase without reading the MVCC shards.
//     Unbounded overlays would slowly tax every read with overlay-map
//     lookups; a fold flattens them while keeping every existing ordinal
//     and the era.
//
// Only a gap in the ring — more pending delta cost than its bound, so the
// chain back to the cached view is broken — a window too large to fold,
// or threshold n <= 0 forces a rescan of the store (buildView), which
// reassigns ordinals and starts a new era.
//
// Commit timestamps are consecutive integers (Commit assigns clock+1 under
// commitMu), which makes ring continuity a pure index computation.

// deltaNode is one node made visible by a commit: an explicit CreateNode
// (inKindList true) or a bare record materialised for a dangling edge
// endpoint (inKindList false — such nodes never appear in NodesOfKind,
// matching the transactional read path).
type deltaNode struct {
	id         ids.ID
	props      Props
	inKindList bool
}

// deltaProp is one property-list replacement on a pre-existing node: the
// full resulting Props of the new MVCC version (shared, immutable).
type deltaProp struct {
	id    ids.ID
	props Props
}

// deltaEdge is one installed adjacency entry, exactly mirroring an
// installEdge call: the owning node's list (out or in) gains Edge{peer,
// stamp} at its tail.
type deltaEdge struct {
	owner ids.ID
	peer  ids.ID
	stamp int64
	t     EdgeType
	in    bool
}

// deltaDel is one tombstoned adjacency entry: the newest live (peer, stamp)
// match in the owning node's list became invisible at the delta's commit.
type deltaDel struct {
	owner ids.ID
	peer  ids.ID
	stamp int64
	t     EdgeType
	in    bool
}

// CommitDelta is the view-maintenance record of one committed transaction.
// It is immutable once recorded.
type CommitDelta struct {
	ts    int64
	nodes []deltaNode
	props []deltaProp
	edges []deltaEdge
	dels  []deltaDel
}

// cost is the delta's contribution towards the compaction threshold: the
// number of overlay entries applying it can touch.
func (d *CommitDelta) cost() int {
	return len(d.nodes) + len(d.props) + len(d.edges) + len(d.dels)
}

// View-maintenance bounds; see the Set* methods on Store. The ring must
// absorb what lands between two view advances, so its bound is on pending
// delta cost and scales with the cached view: it overflows once the pending
// cost exceeds 1/viewDeltaShare of the view's stored adjacency entries, and
// never below minViewDeltaCost. A fold costs a copy of the view, so that
// share keeps the memory the ring holds while nobody reads at a fraction of
// the view itself. The threshold caps the overlay a refresh chain drags
// along (every refresh clones the live overlay, and overlay rows cost an
// extra map probe on reads) before a fold flattens it.
const (
	minViewDeltaCost            = 4096
	viewDeltaShare              = 8
	defaultViewCompactThreshold = 4096
)

// SetViewCompactThreshold bounds the overlay a refreshed view chain may
// accumulate before CurrentView folds it into a flat view. Higher values
// favour cheap refreshes under sustained updates at the cost of
// overlay-map lookups on reads of touched rows; n <= 0 disables refreshing
// and folding entirely (every view advance rescans the store and starts a
// new era — the ablation baseline and a test hook).
func (s *Store) SetViewCompactThreshold(n int) {
	s.viewMu.Lock()
	s.compactThreshold = n
	s.viewMu.Unlock()
}

// SetViewDeltaCap overrides the delta ring's bound: once the pending
// deltas' cost (nodes, property lists and adjacency entries they touch)
// would exceed n while no view advance runs, the ring overflows and the
// next advance rescans the store. n <= 0 restores the default bound, scaled to the cached view. It
// returns the previous override (0 for the default) so callers can restore
// it.
func (s *Store) SetViewDeltaCap(n int) (prev int) {
	if n < 0 {
		n = 0
	}
	s.deltaMu.Lock()
	prev, s.deltaCap = s.deltaCap, n
	s.deltaMu.Unlock()
	return prev
}

// ViewStatsSnapshot reports the store's view-maintenance counters.
type ViewStatsSnapshot struct {
	// Refreshes counts CurrentView advances served by applying deltas as a
	// copy-on-write overlay.
	Refreshes int64
	// Folds counts CurrentView advances that compacted the cached view and
	// the pending deltas into a new flat view, keeping ordinals and era.
	Folds int64
	// Rebuilds counts rescans of the store by CurrentView (including the
	// first build; ViewAt calls are not counted).
	Rebuilds int64
	// EraBumps counts rebuilds that replaced an existing cached view, i.e.
	// rescans that invalidated ordinal-keyed caller state.
	EraBumps int64
	// Overflows counts the times the ring was full and dropped the deltas
	// a cached view still needed (a bulk load before the first view drops
	// deltas uncounted).
	Overflows int64
}

// ViewStats returns the view-maintenance counters (monotonic since store
// construction).
func (s *Store) ViewStats() ViewStatsSnapshot {
	return ViewStatsSnapshot{
		Refreshes: s.viewRefreshes.Load(),
		Folds:     s.viewFolds.Load(),
		Rebuilds:  s.viewRebuilds.Load(),
		EraBumps:  s.viewEraBumps.Load(),
		Overflows: s.viewOverflows.Load(),
	}
}

// recordDelta appends one commit's delta to the ring. Called under commitMu
// before the commit clock advances, so by the time a refresh observes a
// watermark every delta up to it is in the ring.
func (s *Store) recordDelta(d *CommitDelta) {
	c := d.cost()
	s.deltaMu.Lock()
	if len(s.deltas) > 0 && !s.deltaHeld && s.deltaCost+c > s.ringBoundLocked() {
		// Ring full: the chain up to the cached view is broken either way,
		// so drop everything pending and let the next advance rebuild.
		// Dropping must abandon the backing array (not re-slice to [:0]):
		// an in-flight refresh may still be reading a subslice handed out
		// by pendingLocked, and reusing the slots would hand it foreign
		// deltas mid-application.
		s.deltas = nil
		s.deltaCost = 0
		s.deltaDropped = true
		if s.view.Load() != nil { // before the first view nothing is lost
			s.viewOverflows.Add(1)
		}
	}
	s.deltas = append(s.deltas, d)
	s.deltaCost += c
	s.deltaMu.Unlock()
}

// ringBoundLocked is the pending-cost bound the ring overflows at: the
// SetViewDeltaCap override, or the bound scaled to the cached view.
//
//snb:locked deltaMu
func (s *Store) ringBoundLocked() int {
	if s.deltaCap > 0 {
		return s.deltaCap
	}
	return s.deltaBound
}

// pendingLocked returns the consecutive deltas covering (after, upto], or
// ok=false when the ring cannot cover the range (overflow or trim gap).
// Caller holds deltaMu. The returned subslice stays valid after the lock is
// released: deltas are immutable, appends land beyond the returned range
// (trimming only advances the slice start), and the overflow path abandons
// the backing array instead of reusing its slots.
//
//snb:locked deltaMu
func (s *Store) pendingLocked(after, upto int64) ([]*CommitDelta, bool) {
	if s.deltaDropped || len(s.deltas) == 0 {
		return nil, false
	}
	first := s.deltas[0].ts
	last := s.deltas[len(s.deltas)-1].ts
	if first > after+1 || last < upto {
		return nil, false
	}
	lo := int(after + 1 - first)
	hi := int(upto - first)
	if lo < 0 || hi < lo || hi >= len(s.deltas) {
		return nil, false
	}
	return s.deltas[lo : hi+1], true
}

// dropDeltasLocked drops the deltas up to ts from the ring: a view
// advance to ts has taken them over. rearm (a rescan) also re-arms an
// overflowed ring.
//
//snb:locked deltaMu
func (s *Store) dropDeltasLocked(ts int64, rearm bool) {
	i := 0
	for i < len(s.deltas) && s.deltas[i].ts <= ts {
		s.deltaCost -= s.deltas[i].cost()
		i++
	}
	switch {
	case i == len(s.deltas):
		s.deltas = nil // release the backing array between bursts
	case rearm:
		// Copy out: a rebuild re-arms a ring that may have overflowed, whose
		// backing array is still held by stale pendingLocked subslices.
		s.deltas = append([]*CommitDelta(nil), s.deltas[i:]...)
	default:
		s.deltas = s.deltas[i:]
	}
	if rearm {
		s.deltaDropped = false
	}
}

// holdRing marks a view advance as running (on) or finished (off); while
// one runs, the ring does not overflow.
func (s *Store) holdRing(on bool) {
	s.deltaMu.Lock()
	s.deltaHeld = on
	s.deltaMu.Unlock()
}

// ringOverBound reports whether the pending deltas' cost exceeds the
// ring's bound — possible only while a view advance holds the ring.
func (s *Store) ringOverBound() bool {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	return s.deltaCost > s.ringBoundLocked()
}

// scaleRing sets the ring's default bound from v, a new cached view with
// its own viewBase (a refresh keeps its predecessor's base and bound).
func (s *Store) scaleRing(v *SnapshotView) {
	bound := max(v.base.entries/viewDeltaShare, minViewDeltaCost)
	s.deltaMu.Lock()
	s.deltaBound = bound
	s.deltaMu.Unlock()
}

// advanceView derives a view at ts from the cached view old out of the
// pending deltas — a refresh while the overlay stays within the compaction
// threshold, a fold once it would cross it — or reports ok=false when the
// caller must rescan (ring gap, a window too large to fold, or threshold
// n <= 0).
//
//snb:locked viewMu
func (s *Store) advanceView(old *SnapshotView, ts int64) (*SnapshotView, ViewEvent, bool) {
	if s.compactThreshold <= 0 {
		return nil, ViewRebuilt, false
	}
	s.deltaMu.Lock()
	ds, ok := s.pendingLocked(old.ts, ts)
	if ok {
		// The advance takes the window over. Dropping it from the ring now
		// leaves the ring's whole bound to the commits that land while the
		// advance runs; ds stays valid (see pendingLocked).
		s.dropDeltasLocked(ts, false)
	}
	s.deltaMu.Unlock()
	if !ok {
		return nil, ViewRebuilt, false
	}
	cost := 0
	for _, d := range ds {
		cost += d.cost()
	}
	if cost+len(old.edgeOver) > maxFoldOps {
		return nil, ViewRebuilt, false
	}
	var nv *SnapshotView
	ev := ViewRefreshed
	if s.appliedCost+cost <= s.compactThreshold {
		nv = applyDeltas(old, ds, ts)
		s.appliedCost += cost
		s.viewRefreshes.Add(1)
	} else {
		nv = foldView(old, ds, ts)
		s.appliedCost = 0
		s.viewFolds.Add(1)
		s.scaleRing(nv)
		ev = ViewFolded
	}
	return nv, ev, true
}

// applyDeltas derives a new view from old by applying consecutive commit
// deltas copy-on-write. The new view shares old's viewBase (same era); the
// overlay maps are cloned (bounded by the compaction threshold) and only
// rows touched by the deltas are copied and rewritten, so old — and every
// earlier view of the chain — stays frozen for concurrent readers.
func applyDeltas(old *SnapshotView, ds []*CommitDelta, ts int64) *SnapshotView {
	nv := old.derive(ts)
	nv.edgeOver = maps.Clone(old.edgeOver)

	// owned marks overlay rows copied by THIS application; only owned rows
	// may be mutated in place (rows inherited from old's overlay are shared
	// with published views).
	var owned map[edgeKey]bool
	ownRow := func(ord int32, t EdgeType, in bool) edgeKey {
		key := makeEdgeKey(ord, t, in)
		if owned[key] {
			return key
		}
		// Materialise the row copy-on-write. Overlay rows copy directly; a
		// base row is decoded out of the varint/delta slab here, on first
		// touch by a refresh, so the compact representation only pays the
		// decode for rows the update stream actually modifies.
		var row []Edge
		if src, had := nv.edgeOver[key]; had {
			row = make([]Edge, len(src), len(src)+2)
			copy(row, src)
		} else if b := nv.base; b.spill != nil && b.spill[key] != nil {
			src := b.spill[key]
			row = append(make([]Edge, 0, len(src)+2), src...)
		} else if in {
			row = b.in[t].appendRow(make([]Edge, 0, b.in[t].degreeAt(ord)+2), ord, b.nodes)
		} else {
			row = b.out[t].appendRow(make([]Edge, 0, b.out[t].degreeAt(ord)+2), ord, b.nodes)
		}
		if nv.edgeOver == nil {
			nv.edgeOver = make(map[edgeKey][]Edge)
		}
		nv.edgeOver[key] = row
		if owned == nil {
			owned = make(map[edgeKey]bool)
		}
		owned[key] = true
		return key
	}

	for _, d := range ds {
		nv.applyNodes(d)
		for _, de := range d.edges {
			ord, ok := nv.Ord(de.owner)
			if !ok {
				continue
			}
			key := ownRow(ord, de.t, de.in)
			nv.edgeOver[key] = append(nv.edgeOver[key], Edge{To: de.peer, Stamp: de.stamp})
		}
		for _, dd := range d.dels {
			ord, ok := nv.Ord(dd.owner)
			if !ok {
				continue
			}
			key := ownRow(ord, dd.t, dd.in)
			nv.edgeOver[key] = dropNewest(nv.edgeOver[key], dd)
		}
	}
	return nv
}

// derive starts a view at ts on old's viewBase and era, with old's node,
// property and kind overlays cloned for the caller to extend. The edge
// overlay is left nil: applyDeltas clones it, a fold only reads old's.
func (old *SnapshotView) derive(ts int64) *SnapshotView {
	return &SnapshotView{
		ts:        ts,
		era:       old.era,
		base:      old.base,
		nodesOver: append([]ids.ID(nil), old.nodesOver...),
		ordOver:   maps.Clone(old.ordOver),
		propsOver: maps.Clone(old.propsOver),
		byKind:    maps.Clone(old.byKind), // never nil: buildView always allocates it
	}
}

// applyNodes applies one delta's node creations (appended ordinals, kind
// lists) and property replacements onto a view from derive.
func (nv *SnapshotView) applyNodes(d *CommitDelta) {
	n0 := int32(len(nv.base.nodes))
	for _, dn := range d.nodes {
		if _, ok := nv.Ord(dn.id); ok {
			continue // already visible (defensive; cannot happen for committed state)
		}
		ord := n0 + int32(len(nv.nodesOver))
		nv.nodesOver = append(nv.nodesOver, dn.id)
		if nv.ordOver == nil {
			nv.ordOver = make(map[ids.ID]int32)
		}
		nv.ordOver[dn.id] = ord
		if nv.propsOver == nil {
			nv.propsOver = make(map[int32]Props)
		}
		// Every appended ordinal gets a props entry (possibly nil for
		// bare endpoint records) — propsAt relies on it.
		nv.propsOver[ord] = dn.props
		if dn.inKindList {
			k := dn.id.Kind()
			nv.byKind[k] = append(nv.byKind[k], dn.id)
		}
	}
	for _, dp := range d.props {
		ord, ok := nv.Ord(dp.id)
		if !ok {
			continue
		}
		if nv.propsOver == nil {
			nv.propsOver = make(map[int32]Props)
		}
		nv.propsOver[ord] = dp.props
	}
}

// dropNewest removes the entry a tombstone names from an owned row. Rows
// are insertion-ordered, so the last (peer, stamp) match is the newest —
// the entry Commit tombstoned.
func dropNewest(row []Edge, dd deltaDel) []Edge {
	for i := len(row) - 1; i >= 0; i-- {
		if row[i].To == dd.peer && row[i].Stamp == dd.stamp {
			return append(row[:i], row[i+1:]...)
		}
	}
	return row
}
