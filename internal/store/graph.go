package store

import (
	"fmt"
	"math/bits"
	"slices"

	"ldbcsnb/internal/ids"
)

// EdgeType identifies one of the SNB schema's relations.
type EdgeType uint8

// SNB relations. Directions follow the schema: Knows is symmetric and
// stored in both directions; all others are stored as directed edges with
// reverse adjacency maintained automatically.
const (
	EdgeKnows        EdgeType = iota + 1 // Person  -> Person   (creationDate stamp)
	EdgeHasCreator                       // Message -> Person
	EdgeContainerOf                      // Forum   -> Post
	EdgeReplyOf                          // Comment -> Message
	EdgeLikes                            // Person  -> Message  (creationDate stamp)
	EdgeHasMember                        // Forum   -> Person   (joinDate stamp)
	EdgeHasModerator                     // Forum   -> Person
	EdgeHasTag                           // Message/Forum -> Tag
	EdgeHasInterest                      // Person  -> Tag
	EdgeIsLocatedIn                      // Person/Message/Org -> Place
	EdgeIsPartOf                         // Place   -> Place
	EdgeStudyAt                          // Person  -> Organisation (classYear stamp)
	EdgeWorkAt                           // Person  -> Organisation (workFrom stamp)
	EdgeHasType                          // Tag     -> TagClass
	EdgeIsSubclassOf                     // TagClass-> TagClass

	edgeTypeMax
)

var edgeNames = [edgeTypeMax]string{
	EdgeKnows: "knows", EdgeHasCreator: "hasCreator", EdgeContainerOf: "containerOf",
	EdgeReplyOf: "replyOf", EdgeLikes: "likes", EdgeHasMember: "hasMember",
	EdgeHasModerator: "hasModerator", EdgeHasTag: "hasTag", EdgeHasInterest: "hasInterest",
	EdgeIsLocatedIn: "isLocatedIn", EdgeIsPartOf: "isPartOf", EdgeStudyAt: "studyAt",
	EdgeWorkAt: "workAt", EdgeHasType: "hasType", EdgeIsSubclassOf: "isSubclassOf",
}

// String returns the schema name of the edge type.
func (t EdgeType) String() string {
	if int(t) < len(edgeNames) && edgeNames[t] != "" {
		return edgeNames[t]
	}
	return fmt.Sprintf("edge(%d)", uint8(t))
}

// Edge is one adjacency entry as seen by queries: the peer node and the
// edge's timestamp-like attribute (creationDate for knows/likes, joinDate
// for hasMember, classYear for studyAt, workFrom for workAt; 0 otherwise).
type Edge struct {
	To    ids.ID
	Stamp int64
}

// edgeRec is the stored adjacency entry: Edge plus MVCC visibility. A
// deletion does not remove the entry — it stamps del (a tombstone), so
// older snapshots keep seeing the edge; Store.GC reclaims tombstones no
// retained snapshot can see.
type edgeRec struct {
	peer   ids.ID
	stamp  int64
	commit int64 // commit timestamp; math.MaxInt64 while uncommitted
	del    int64 // deletion commit timestamp; 0 while live
}

// visibleAt reports whether the edge is visible to a snapshot at ts:
// inserted at or before ts and not yet deleted at ts.
func (e *edgeRec) visibleAt(ts int64) bool {
	return e.commit <= ts && (e.del == 0 || e.del > ts)
}

// nodeVersion is one MVCC version of a node's property list.
type nodeVersion struct {
	commit int64
	props  Props
}

// adjList is one typed, directed adjacency list of a node. Entries are
// append-ordered; commit timestamps gate visibility.
type adjList struct {
	t     EdgeType
	in    bool
	edges []edgeRec
}

// adjacency holds the edge lists of one node: only the (type, direction)
// pairs the node has edges for. A node uses a handful of the 2×15
// possible lists (at most 9 in a generated dataset, ~4.4 on average), so
// the record stays 64 bytes where a per-type array of headers took 800.
// The lists are kept in listBit order and mask has one bit per list, so a
// list's index is the count of mask bits below its own.
type adjacency struct {
	lists []adjList
	mask  uint32
}

// listBit is the bit of one (type, direction) list in a node's list set;
// 2×edgeTypeMax bits fit a uint32.
func listBit(t EdgeType, in bool) uint32 {
	b := 2 * uint(t)
	if in {
		b++
	}
	return 1 << b
}

// get returns the (t, in) list, or nil if the node has none.
func (a *adjacency) get(t EdgeType, in bool) []edgeRec {
	bit := listBit(t, in)
	if a.mask&bit == 0 {
		return nil
	}
	return a.lists[bits.OnesCount32(a.mask&(bit-1))].edges
}

// list returns the (t, in) list for appending, inserting an empty one if
// the node has none. The pointer is valid until the next call adds a list.
func (a *adjacency) list(t EdgeType, in bool) *[]edgeRec {
	bit := listBit(t, in)
	i := bits.OnesCount32(a.mask & (bit - 1))
	if a.mask&bit == 0 {
		a.lists = slices.Insert(a.lists, i, adjList{t: t, in: in})
		a.mask |= bit
	}
	return &a.lists[i].edges
}

// nodeRec is one stored node: a version chain (newest last) plus adjacency.
// The owning shard's lock guards all fields.
type nodeRec struct {
	id       ids.ID
	versions []nodeVersion
	adj      adjacency
}

// nodeAlloc is a new node record allocated together with its first
// version, so creating a node costs one allocation for both.
type nodeAlloc struct {
	rec nodeRec
	ver [1]nodeVersion
}

// newNodeRec returns a record for a node created at ts with the given
// properties and room for nLists adjacency lists.
func newNodeRec(id ids.ID, ts int64, props Props, nLists int) *nodeRec {
	a := &nodeAlloc{ver: [1]nodeVersion{{commit: ts, props: props}}}
	a.rec.id = id
	a.rec.versions = a.ver[:]
	if nLists > 0 {
		a.rec.adj.lists = make([]adjList, 0, nLists)
	}
	return &a.rec
}

// visibleProps returns the newest version visible at snapshot ts, or nil.
func (n *nodeRec) visibleProps(ts int64) (Props, bool) {
	for i := len(n.versions) - 1; i >= 0; i-- {
		if n.versions[i].commit <= ts {
			return n.versions[i].props, true
		}
	}
	return nil, false
}

// createdAt returns the commit timestamp of the first version.
func (n *nodeRec) createdAt() int64 {
	if len(n.versions) == 0 {
		return 0
	}
	return n.versions[0].commit
}
