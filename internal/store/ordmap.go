package store

import (
	"maps"

	"ldbcsnb/internal/ids"
)

// ordMap maps node IDs to the ordinals of one viewBase: the map a rescan
// (or a merging fold) built, shared unchanged by the folds after it, plus
// tail, the nodes those folds appended since. A fold clones only the tail;
// once the tail would pass a quarter of the shared map, the fold merges
// both into a new shared map. A fold so copies at most about a quarter of
// the map, plus a full merge every few folds, instead of all of it, and
// nodes older than the last merge stay one probe away. Both maps are
// immutable once their base is built.
type ordMap struct {
	shared map[ids.ID]int32
	tail   map[ids.ID]int32
}

// get returns the ordinal of id.
//
//snb:noalloc
func (m ordMap) get(id ids.ID) (int32, bool) {
	if o, ok := m.shared[id]; ok {
		return o, true
	}
	if m.tail != nil {
		o, ok := m.tail[id]
		return o, ok
	}
	return 0, false
}

// with returns the ordMap of a fold that appends added at ordinals n0
// onward.
func (m ordMap) with(added []ids.ID, n0 int32) ordMap {
	if len(added) == 0 {
		return m
	}
	var next ordMap
	dst := &next.tail
	if 4*(len(m.tail)+len(added)) <= len(m.shared) {
		next = ordMap{shared: m.shared, tail: maps.Clone(m.tail)}
		if next.tail == nil {
			next.tail = make(map[ids.ID]int32, len(added))
		}
	} else {
		next = ordMap{shared: maps.Clone(m.shared)}
		maps.Copy(next.shared, m.tail)
		dst = &next.shared
	}
	for i, id := range added {
		(*dst)[id] = n0 + int32(i)
	}
	return next
}

// len is the number of mapped nodes.
func (m ordMap) len() int { return len(m.shared) + len(m.tail) }
