package store

import (
	"encoding/binary"
	"maps"
	"slices"

	"ldbcsnb/internal/ids"
)

// Folding: ordinal-preserving compaction of the cached view.
//
// A fold builds a new flat viewBase out of the cached view — its viewBase
// plus the copy-on-write overlay earlier refreshes layered on it — and the
// pending commit deltas, without reading the MVCC shards: every input is
// immutable, so it takes no shard lock and runs under viewMu alone. Every
// existing ordinal is kept and new nodes are appended after them, so the
// era does not change and ordinal-keyed caller state (workload.Scratch)
// survives.
//
// The old view's bytes are copied in bulk; only touched rows are coded:
//
//   - runs of untouched adjacency rows are copied byte for byte out of the
//     old slab, their offsets rebased;
//   - a slab row the deltas only appended to keeps its encoded entries: a
//     new count prefix, the old entry bytes, then only the appended tail is
//     ordinal-mapped and encoded, delta-coded on from the old last entry
//     (kept in viewBase.ends for long rows, so they are not walked);
//   - a row a tombstone touched, or one the overlay already held decoded,
//     is re-encoded in full;
//   - property rows of touched and new ordinals are appended to the shared
//     property slab (foldProps) and new IDs to the node list; the ordinal
//     map clones only the IDs appended since it was last merged (ordMap).
//
// The window's adjacency changes are gathered as one list of operations
// and sorted by (edge type, direction, ordinal, arrival), which hands every
// csr its touched rows in ordinal order with each row's changes in commit
// order — no per-row map or allocation.

// A fold sort key packs, from the top, the row's group (edge type and
// direction, 6 bits) and ordinal (31 bits), then the index of the
// operation in the fold's list (opSeqBits).
const (
	opSeqBits    = 26
	opSeqMask    = 1<<opSeqBits - 1
	opGroupShift = opSeqBits + 31

	// maxFoldOps bounds a fold's window: a larger one is absorbed by a
	// rescan instead (advanceView).
	maxFoldOps = opSeqMask
)

// foldOp is one adjacency change of a fold window. Index 0 of a fold's
// operation list is a placeholder: its sort keys only mark the rows of the
// old view's overlay as touched.
type foldOp struct {
	peer  ids.ID
	stamp int64
	del   bool
}

func foldKey(ord int32, t EdgeType, in bool, seq int) uint64 {
	g := uint64(t) << 1
	if in {
		g |= 1
	}
	return g<<opGroupShift | uint64(uint32(ord))<<opSeqBits | uint64(seq)
}

// foldView derives the view at ts from old and the consecutive deltas ds
// as one flat viewBase in old's era. See the file comment.
func foldView(old *SnapshotView, ds []*CommitDelta, ts int64) *SnapshotView {
	// Nodes, properties and kind lists go through the refresh path's
	// overlay (bounded by the window); adjacency changes are gathered as
	// operations instead of decoded rows.
	mid := old.derive(ts)
	ops := make([]foldOp, 1, 1+len(ds)*4)
	keys := make([]uint64, 0, len(old.edgeOver)+len(ds)*4)
	for key := range old.edgeOver {
		ord, t, in := key.split()
		keys = append(keys, foldKey(ord, t, in, 0))
	}
	for _, d := range ds {
		mid.applyNodes(d)
		for _, de := range d.edges {
			if ord, ok := mid.Ord(de.owner); ok {
				keys = append(keys, foldKey(ord, de.t, de.in, len(ops)))
				ops = append(ops, foldOp{peer: de.peer, stamp: de.stamp})
			}
		}
		for _, dd := range d.dels {
			if ord, ok := mid.Ord(dd.owner); ok {
				keys = append(keys, foldKey(ord, dd.t, dd.in, len(ops)))
				ops = append(ops, foldOp{peer: dd.peer, stamp: dd.stamp, del: true})
			}
		}
	}
	slices.Sort(keys)

	ob := old.base
	n0 := int32(len(ob.nodes))
	nb := &viewBase{
		// Appending shares the backing array with ob: views of ob never
		// read past their own length, and a base is folded at most once.
		nodes: append(ob.nodes, mid.nodesOver...),
		ord:   ob.ord.with(mid.nodesOver, n0),
	}
	nb.props, nb.propRow, nb.propDead = foldProps(ob, mid.propsOver, len(nb.nodes))

	// Spilled rows stay spilled unless encodeRow rewrites them.
	f := &folder{old: old, nb: nb, ops: ops, ends: maps.Clone(ob.ends), spill: maps.Clone(ob.spill)}
	// A coded entry takes at most two 10-byte varints; typical ones 2-6.
	f.slab = make([]byte, 0, len(ob.slab)+12*len(keys)+64)
	type slabRange struct{ start, end int }
	var ranges [2][edgeTypeMax]slabRange
	for t := EdgeType(1); t < edgeTypeMax; t++ {
		for dir := 0; dir < 2; dir++ {
			in := dir == 1
			oc, nc := &ob.out[t], &nb.out[t]
			if in {
				oc, nc = &ob.in[t], &nb.in[t]
			}
			g := uint64(t)<<1 | uint64(dir)
			n := 0
			for n < len(keys) && keys[n]>>opGroupShift == g {
				n++
			}
			start := len(f.slab)
			*nc = f.foldCSR(oc, t, in, keys[:n])
			ranges[dir][t] = slabRange{start, len(f.slab)}
			keys = keys[n:]
			nb.entries += nc.entries
		}
	}
	if len(keys) > 0 {
		panic("store: fold found a row of an unknown edge type")
	}
	nb.slab = f.slab
	for t := EdgeType(1); t < edgeTypeMax; t++ {
		if r := ranges[0][t]; nb.out[t].offsets != nil {
			nb.out[t].data = f.slab[r.start:r.end]
		}
		if r := ranges[1][t]; nb.in[t].offsets != nil {
			nb.in[t].data = f.slab[r.start:r.end]
		}
	}
	nb.ends = f.ends
	if len(f.spill) > 0 {
		nb.spill = f.spill
	}
	return &SnapshotView{ts: ts, era: old.era, base: nb, byKind: mid.byKind}
}

// split unpacks an edgeKey.
func (k edgeKey) split() (ord int32, t EdgeType, in bool) {
	return int32(uint32(k >> 6)), EdgeType(k>>1) & 31, k&1 != 0
}

// foldProps lays out the property rows of n ordinals: untouched rows keep
// their place, and the overlay's rows (every touched or appended ordinal
// has one) are appended to the old slab, sharing its backing array — old
// views never read past their own length, and a base is folded at most
// once. Once the rows left behind would exceed a quarter of the slab it is
// repacked instead, in ordinal order.
func foldProps(ob *viewBase, over map[int32]Props, n int) ([]Prop, []propSpan, int) {
	touched := make([]int32, 0, len(over))
	dead, add := ob.propDead, 0
	n0 := int32(len(ob.nodes))
	for o, ps := range over {
		touched = append(touched, o)
		add += len(ps)
		if o < n0 {
			dead += int(ob.propRow[o].len())
		}
	}
	slices.Sort(touched)
	rows := make([]propSpan, n)
	if dead <= (len(ob.props)+add)/4 {
		copy(rows, ob.propRow)
		props := slices.Grow(ob.props, add)
		for _, o := range touched {
			rows[o] = makePropSpan(len(props), len(over[o]))
			props = append(props, over[o]...)
		}
		return props, rows, dead
	}
	props := make([]Prop, 0, len(ob.props)+add-dead)
	for o := range rows {
		var ps []Prop
		if len(touched) > 0 && touched[0] == int32(o) {
			ps, touched = over[int32(o)], touched[1:]
		} else {
			sp := ob.propRow[o]
			ps = ob.props[sp.start() : sp.start()+sp.len()]
		}
		rows[o] = makePropSpan(len(props), len(ps))
		props = append(props, ps...)
	}
	return props, rows, 0
}

// folder carries one fold's output across its csrs, plus scratch rows
// reused from row to row.
type folder struct {
	old   *SnapshotView
	nb    *viewBase
	ops   []foldOp
	slab  []byte
	spill map[edgeKey][]Edge
	ends  map[edgeKey]rowEnd

	tail, full []Edge
}

// foldCSR appends the new version of one type/direction's csr to the slab:
// the old csr oc with the rows keys names (sorted) rewritten. The returned
// csr's data is patched by the caller once the slab stops growing; its
// offsets are relative to the csr's first slab byte.
func (f *folder) foldCSR(oc *csr, t EdgeType, in bool, keys []uint64) csr {
	oldLo, oldN := oc.lo, int32(0)
	if oc.offsets != nil {
		oldN = int32(len(oc.offsets) - 1)
	}
	if oldN == 0 && len(keys) == 0 {
		return csr{}
	}
	rowOrd := func(k uint64) int32 { return int32(uint32(k>>opSeqBits) & (1<<31 - 1)) }
	lo, hi := oldLo, oldLo+oldN-1
	if oldN == 0 {
		lo, hi = rowOrd(keys[0]), rowOrd(keys[0])
	}
	if len(keys) > 0 {
		lo, hi = min(lo, rowOrd(keys[0])), max(hi, rowOrd(keys[len(keys)-1]))
	}
	base := len(f.slab)
	offsets := make([]uint32, hi-lo+2)

	// copyRun emits the untouched ordinals [a, b): empty rows outside the
	// old csr's range, one bulk copy of the old bytes inside it.
	copyRun := func(a, b int32) {
		cur := uint32(len(f.slab) - base)
		x, y := max(a, oldLo), min(b, oldLo+oldN)
		if x >= y {
			x, y = b, b
		}
		for o := a; o < x; o++ {
			offsets[o-lo] = cur
		}
		if x < y {
			start, end := oc.offsets[x-oldLo], oc.offsets[y-oldLo]
			dst, src := offsets[x-lo:y-lo], oc.offsets[x-oldLo:y-oldLo]
			src = src[:len(dst)]
			for i, off := range src {
				dst[i] = off + cur - start
			}
			f.slab = append(f.slab, oc.data[start:end]...)
			cur = uint32(len(f.slab) - base)
		}
		for o := y; o < b; o++ {
			offsets[o-lo] = cur
		}
	}

	entries := oc.entries
	next := lo
	for len(keys) > 0 {
		ord := rowOrd(keys[0])
		n := 1
		for n < len(keys) && keys[n]>>opSeqBits == keys[0]>>opSeqBits {
			n++
		}
		copyRun(next, ord)
		offsets[ord-lo] = uint32(len(f.slab) - base)
		entries += f.encodeRow(oc, ord, t, in, keys[:n]) - oc.degreeAt(ord)
		keys = keys[n:]
		next = ord + 1
	}
	copyRun(next, hi+1)
	offsets[hi-lo+1] = uint32(len(f.slab) - base)
	if entries == 0 {
		f.slab = f.slab[:base]
		return csr{}
	}
	return csr{lo: lo, offsets: offsets, entries: entries, dec: &decCache{}}
}

// encodeRow appends the final content of one touched row to the slab and
// returns the entries it encoded there (0 for an empty or spilled row).
// keys are the row's sort keys, in commit order.
func (f *folder) encodeRow(oc *csr, ord int32, t EdgeType, in bool, keys []uint64) int {
	key := makeEdgeKey(ord, t, in)
	ob := f.old.base
	src, ok := f.old.edgeOver[key]
	if !ok {
		src, ok = ob.spill[key]
	}
	delete(f.spill, key)
	dels := false
	f.tail = f.tail[:0]
	for _, k := range keys {
		if op := &f.ops[k&opSeqMask]; op.del {
			dels = true
		} else if k&opSeqMask != 0 {
			f.tail = append(f.tail, Edge{To: op.peer, Stamp: op.stamp})
		}
	}

	if !ok && !dels {
		// Appends only over a slab row: keep its encoded entries and code
		// just the tail.
		var old []byte
		if i := ord - oc.lo; i >= 0 && int(i)+1 < len(oc.offsets) {
			old = oc.data[oc.offsets[i]:oc.offsets[i+1]]
		}
		count, entries := rowHead(old)
		from, known := ob.ends[key]
		if !known {
			from = walkEnd(entries, count)
		}
		mark := len(f.slab)
		f.slab = binary.AppendUvarint(f.slab, uint64(count+len(f.tail)))
		f.slab = append(f.slab, entries...)
		if next, end, ok := appendAdjEntries(f.slab, f.tail, f.nb.ord, from); ok {
			f.slab = next
			f.noteEnd(key, count+len(f.tail), end)
			return count + len(f.tail)
		}
		f.slab = f.slab[:mark]
	}

	// Materialise the row and replay its changes in commit order.
	full := f.full[:0]
	if ok {
		full = append(full, src...)
	} else {
		full = oc.appendRow(full, ord, ob.nodes)
	}
	for _, k := range keys {
		if k&opSeqMask == 0 {
			continue
		}
		op := &f.ops[k&opSeqMask]
		if op.del {
			full = dropNewest(full, deltaDel{peer: op.peer, stamp: op.stamp})
		} else {
			full = append(full, Edge{To: op.peer, Stamp: op.stamp})
		}
	}
	f.full = full
	if len(full) == 0 {
		f.noteEnd(key, 0, rowEnd{})
		return 0
	}
	if next, end, ok := appendAdjRow(f.slab, full, f.nb.ord); ok {
		f.slab = next
		f.noteEnd(key, len(full), end)
		return len(full)
	}
	// A neighbour without an ordinal: keep the raw row, as buildView does.
	f.noteEnd(key, 0, rowEnd{})
	if f.spill == nil {
		f.spill = make(map[edgeKey][]Edge)
	}
	f.spill[key] = slices.Clone(full)
	return 0
}

// noteEnd records the end of a rewritten slab row of count entries in the
// new base's ends, or drops a stale one.
func (f *folder) noteEnd(key edgeKey, count int, end rowEnd) {
	if count >= longRow {
		if f.ends == nil {
			f.ends = make(map[edgeKey]rowEnd)
		}
		f.ends[key] = end
	} else if f.ends != nil {
		delete(f.ends, key)
	}
}
