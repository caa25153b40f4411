package params

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
)

// PC-table builders for the SNB query templates. SNB-Interactive obtains
// the counts "as a by-product of data generation" (§4.1, strategy (ii));
// these builders compute the same frequency statistics from the generated
// dataset.
//
// All builders run on one dense index of the dataset: persons and forums
// map to int32 ordinals, friend lists and forum memberships are CSR rows,
// and per-person message counts and per-forum post counts are slices. The
// per-person 2-hop and joined-forum sets are epoch-stamped seen-arrays
// reused across persons, and persons are split across GOMAXPROCS workers.
// Each worker writes only its own persons' rows, so every table is
// identical for any worker count.

// BuildQ2Table materialises the Figure 6(b) table for Query 2: per person,
// |⋈1| = number of friends and |⋈2| = number of messages those friends
// created.
//
//snb:deterministic
func BuildQ2Table(d *schema.Dataset) *Table { return newIndex(d).q2Table(d) }

//snb:deterministic
func (ix *index) q2Table(d *schema.Dataset) *Table {
	t := newTable(d, "|join1| friends", "|join2| friend messages")
	ix.forEachPerson(len(t.Rows), func(_ *scratch, i int) {
		fs := ix.friends(ix.row[i])
		total := 0
		for _, f := range fs {
			total += ix.msgs[f]
		}
		t.Rows[i].Counts[0], t.Rows[i].Counts[1] = len(fs), total
	})
	return t
}

// BuildQ5Table materialises the PC table for Query 5 (the §4.1 motivating
// example): per person, |⋈1| = friends, |⋈2| = 2-hop environment size,
// |⋈3| = forum memberships of the environment, and |⋈4| = posts contained
// in the joined forums — the de-facto intermediate result of Q5's final
// counting join (the paper uses actual cardinalities, "which are otherwise
// only known after the query is executed").
//
//snb:deterministic
func BuildQ5Table(d *schema.Dataset) *Table { return newIndex(d).q5Table(d) }

//snb:deterministic
func (ix *index) q5Table(d *schema.Dataset) *Table {
	t := newTable(d, "|join1| friends", "|join2| 2-hop", "|join3| memberships", "|join4| forum posts")
	ix.forEachPerson(len(t.Rows), func(s *scratch, i int) {
		p := ix.row[i]
		env := ix.twoHop(s, p)
		// The 2-hop walk stamped this person's epoch; the joined-forum set
		// reuses it on the forum seen-array. x is 0 only for a forum already
		// joined, so (x|-x)>>31 masks its posts to 0 and every other forum's
		// to all of them: the add takes no data-dependent branch, which
		// mispredicts often on this loop.
		seen, fp, e := s.seenForum, ix.forumPosts, s.epoch
		mem, posts := 0, 0
		for _, q := range env {
			mem += ix.memberships[q]
			for _, f := range ix.forums(q) {
				x := seen[f] ^ e
				seen[f] = e
				posts += fp[f] & int((x|-x)>>31)
			}
		}
		c := t.Rows[i].Counts
		c[0], c[1], c[2], c[3] = len(ix.friends(p)), len(env), mem, posts
	})
	return t
}

// BuildQ9Table materialises the PC table for Query 9: |⋈1| = friends,
// |⋈2| = 2-hop environment, |⋈3| = messages of the environment.
//
//snb:deterministic
func BuildQ9Table(d *schema.Dataset) *Table { return newIndex(d).q9Table(d) }

//snb:deterministic
func (ix *index) q9Table(d *schema.Dataset) *Table {
	t := newTable(d, "|join1| friends", "|join2| 2-hop", "|join3| messages")
	ix.forEachPerson(len(t.Rows), func(s *scratch, i int) {
		p := ix.row[i]
		env := ix.twoHop(s, p)
		total := 0
		for _, q := range env {
			total += ix.msgs[q]
		}
		c := t.Rows[i].Counts
		c[0], c[1], c[2] = len(ix.friends(p)), len(env), total
	})
	return t
}

// TwoHopSizes returns the 2-hop environment size of every person — the
// distribution Figure 5(a) plots.
//
//snb:deterministic
func TwoHopSizes(d *schema.Dataset) []int { return newIndex(d).twoHopSizes(d) }

//snb:deterministic
func (ix *index) twoHopSizes(d *schema.Dataset) []int {
	out := make([]int, len(d.Persons))
	ix.forEachPerson(len(out), func(s *scratch, i int) {
		out[i] = len(ix.twoHop(s, ix.row[i]))
	})
	sort.Ints(out)
	return out
}

// index is the dense form of a dataset the PC-table builders share.
// Person ordinals [0, len(d.Persons)) follow d.Persons; IDs that appear
// only as a Knows endpoint get the next ones. Forums get ordinals only if
// they contain a post: a forum without posts adds nothing to Q5's post
// count, so it is counted in memberships but left out of the member rows.
// Memberships and messages whose person has no ordinal are never reached
// from any person's 2-hop environment, so they are not indexed.
type index struct {
	row []int32 // ordinal of d.Persons[i]

	friendOff, friendAdj []int32 // CSR: friends of ordinal p, one entry per Knows endpoint
	memberOff, memberAdj []int32 // CSR: forums with posts that ordinal p is a member of
	memberships          []int   // forum memberships, per person ordinal
	msgs                 []int   // messages (posts and comments) created, per person ordinal
	forumPosts           []int   // posts contained, per forum ordinal

	workers int // persons are split across this many goroutines; 0 = GOMAXPROCS
}

// newIndex builds the dense index of d: person ordinals first, then the
// per-ordinal counts and the CSR rows.
//
//snb:deterministic
func newIndex(d *schema.Dataset) *index {
	ix := &index{row: make([]int32, len(d.Persons))}
	person := make(map[ids.ID]int32, len(d.Persons))
	personOrd := func(id ids.ID) int32 {
		o, ok := person[id]
		if !ok {
			o = int32(len(person))
			person[id] = o
		}
		return o
	}
	for i := range d.Persons {
		ix.row[i] = personOrd(d.Persons[i].ID)
	}
	knows := make([]int32, 0, 2*len(d.Knows))
	for i := range d.Knows {
		knows = append(knows, personOrd(d.Knows[i].A), personOrd(d.Knows[i].B))
	}
	n := len(person)
	// Each Knows edge lists both endpoints as each other's friend, so the
	// edge pairs fill the rows in both directions.
	ix.friendOff, ix.friendAdj = csr(n, knows, true)

	ix.msgs = make([]int, n)
	forum := make(map[ids.ID]int32, len(d.Forums))
	for i := range d.Posts {
		post := &d.Posts[i]
		if o, ok := person[post.Creator]; ok {
			ix.msgs[o]++
		}
		f, ok := forum[post.Forum]
		if !ok {
			f = int32(len(forum))
			forum[post.Forum] = f
			ix.forumPosts = append(ix.forumPosts, 0)
		}
		ix.forumPosts[f]++
	}
	for i := range d.Comments {
		if o, ok := person[d.Comments[i].Creator]; ok {
			ix.msgs[o]++
		}
	}

	ix.memberships = make([]int, n)
	members := make([]int32, 0, 2*len(d.Memberships))
	for i := range d.Memberships {
		m := &d.Memberships[i]
		o, ok := person[m.Person]
		if !ok {
			continue
		}
		ix.memberships[o]++
		if f, ok := forum[m.Forum]; ok {
			members = append(members, o, f)
		}
	}
	ix.memberOff, ix.memberAdj = csr(n, members, false)
	return ix
}

// csr turns (from, to) ordinal pairs into compressed rows over n sources:
// row p is adj[off[p]:off[p+1]], in pair order. With both set, every pair
// also lists from in to's row.
func csr(n int, pairs []int32, both bool) (off, adj []int32) {
	off = make([]int32, n+1)
	for i := 0; i < len(pairs); i += 2 {
		off[pairs[i]+1]++
		if both {
			off[pairs[i+1]+1]++
		}
	}
	for p := 0; p < n; p++ {
		off[p+1] += off[p]
	}
	adj = make([]int32, off[n])
	next := make([]int32, n)
	copy(next, off[:n])
	for i := 0; i < len(pairs); i += 2 {
		a, b := pairs[i], pairs[i+1]
		adj[next[a]] = b
		next[a]++
		if both {
			adj[next[b]] = a
			next[b]++
		}
	}
	return off, adj
}

func (ix *index) friends(p int32) []int32 {
	return ix.friendAdj[ix.friendOff[p]:ix.friendOff[p+1]]
}

func (ix *index) forums(p int32) []int32 {
	return ix.memberAdj[ix.memberOff[p]:ix.memberOff[p+1]]
}

// newTable allocates a table with one row per person of d, all rows'
// counts carved from a single backing slice.
func newTable(d *schema.Dataset, cols ...string) *Table {
	n, w := len(d.Persons), len(cols)
	counts := make([]int, n*w)
	t := &Table{Cols: cols, Rows: make([]Row, n)}
	for i := range t.Rows {
		t.Rows[i] = Row{Param: uint64(d.Persons[i].ID), Counts: counts[i*w : (i+1)*w : (i+1)*w]}
	}
	return t
}

// scratch is one worker's reusable per-person state: seen-arrays over
// person and forum ordinals, stamped with the current person's epoch so
// no clearing is needed between persons, and the 2-hop buffer.
type scratch struct {
	epoch      int32
	seenPerson []int32
	seenForum  []int32
	env        []int32
}

// twoHop returns p's friends and friends-of-friends, p itself and
// duplicates excluded, friends first. It starts a new epoch; the result
// aliases s.env and is valid until the next call. s.env has room for
// every person ordinal, so the appends never grow it.
//
//snb:noalloc
func (ix *index) twoHop(s *scratch, p int32) []int32 {
	s.epoch++
	e := s.epoch
	s.seenPerson[p] = e
	env := s.env[:0]
	for _, f := range ix.friends(p) {
		if s.seenPerson[f] != e {
			s.seenPerson[f] = e
			env = append(env, f)
		}
	}
	direct := len(env)
	for i := 0; i < direct; i++ {
		for _, ff := range ix.friends(env[i]) {
			if s.seenPerson[ff] != e {
				s.seenPerson[ff] = e
				env = append(env, ff)
			}
		}
	}
	s.env = env
	return env
}

// personChunk is how many persons a worker claims at a time: small enough
// to balance the heavy-tailed 2-hop sizes, large enough that the claim
// counter is not contended.
const personChunk = 16

// forEachPerson calls fn(s, i) for every person index i in [0, n),
// spread across ix.workers goroutines that claim chunks of indexes, each
// with its own scratch. fn must write only to slots owned by i, so the
// output does not depend on the worker count or on which worker ran
// which person.
func (ix *index) forEachPerson(n int, fn func(s *scratch, i int)) {
	var next atomic.Int64
	work := func() {
		s := &scratch{
			seenPerson: make([]int32, len(ix.friendOff)-1),
			seenForum:  make([]int32, len(ix.forumPosts)),
			env:        make([]int32, 0, len(ix.friendOff)-1),
		}
		for {
			lo := int(next.Add(personChunk)) - personChunk
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+personChunk, n); i++ {
				fn(s, i)
			}
		}
	}
	workers := ix.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, (n+personChunk-1)/personChunk)
	if workers <= 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}
