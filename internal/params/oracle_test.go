package params

import (
	"sort"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
)

// Map-based PC-table builders: the direct, slow statement of what each
// table column counts, kept as the differential oracle for the
// dense-index builders in snb.go.

// oracleQ2Table materialises the Figure 6(b) table for Query 2: per person,
// |⋈1| = number of friends and |⋈2| = number of messages those friends
// created.
func oracleQ2Table(d *schema.Dataset) *Table {
	friends := adjacency(d)
	msgs := messageCounts(d)
	t := &Table{Cols: []string{"|join1| friends", "|join2| friend messages"}}
	for i := range d.Persons {
		p := d.Persons[i].ID
		fs := friends[p]
		total := 0
		for _, f := range fs {
			total += msgs[f]
		}
		t.Rows = append(t.Rows, Row{Param: uint64(p), Counts: []int{len(fs), total}})
	}
	return t
}

// oracleQ5Table materialises the PC table for Query 5 (the §4.1 motivating
// example): per person, |⋈1| = friends, |⋈2| = 2-hop environment size,
// |⋈3| = forum memberships of the environment, and |⋈4| = posts contained
// in the joined forums — the de-facto intermediate result of Q5's final
// counting join (the paper uses actual cardinalities, "which are otherwise
// only known after the query is executed").
func oracleQ5Table(d *schema.Dataset) *Table {
	friends := adjacency(d)
	memberOf := map[ids.ID][]ids.ID{}
	for i := range d.Memberships {
		m := &d.Memberships[i]
		memberOf[m.Person] = append(memberOf[m.Person], m.Forum)
	}
	forumPosts := map[ids.ID]int{}
	for i := range d.Posts {
		forumPosts[d.Posts[i].Forum]++
	}
	t := &Table{Cols: []string{"|join1| friends", "|join2| 2-hop", "|join3| memberships", "|join4| forum posts"}}
	for i := range d.Persons {
		p := d.Persons[i].ID
		env := twoHop(friends, p)
		mem := 0
		joined := map[ids.ID]bool{}
		for _, q := range env {
			mem += len(memberOf[q])
			for _, f := range memberOf[q] {
				joined[f] = true
			}
		}
		posts := 0
		for f := range joined {
			posts += forumPosts[f]
		}
		t.Rows = append(t.Rows, Row{Param: uint64(p), Counts: []int{len(friends[p]), len(env), mem, posts}})
	}
	return t
}

// oracleQ9Table materialises the PC table for Query 9: |⋈1| = friends,
// |⋈2| = 2-hop environment, |⋈3| = messages of the environment.
func oracleQ9Table(d *schema.Dataset) *Table {
	friends := adjacency(d)
	msgs := messageCounts(d)
	t := &Table{Cols: []string{"|join1| friends", "|join2| 2-hop", "|join3| messages"}}
	for i := range d.Persons {
		p := d.Persons[i].ID
		env := twoHop(friends, p)
		total := 0
		for _, q := range env {
			total += msgs[q]
		}
		t.Rows = append(t.Rows, Row{Param: uint64(p), Counts: []int{len(friends[p]), len(env), total}})
	}
	return t
}

// oracleTwoHopSizes returns the 2-hop environment size of every person — the
// distribution Figure 5(a) plots.
func oracleTwoHopSizes(d *schema.Dataset) []int {
	friends := adjacency(d)
	out := make([]int, 0, len(d.Persons))
	for i := range d.Persons {
		out = append(out, len(twoHop(friends, d.Persons[i].ID)))
	}
	sort.Ints(out)
	return out
}

func adjacency(d *schema.Dataset) map[ids.ID][]ids.ID {
	adj := make(map[ids.ID][]ids.ID, len(d.Persons))
	for i := range d.Knows {
		k := &d.Knows[i]
		adj[k.A] = append(adj[k.A], k.B)
		adj[k.B] = append(adj[k.B], k.A)
	}
	return adj
}

func messageCounts(d *schema.Dataset) map[ids.ID]int {
	m := make(map[ids.ID]int, len(d.Persons))
	for i := range d.Posts {
		m[d.Posts[i].Creator]++
	}
	for i := range d.Comments {
		m[d.Comments[i].Creator]++
	}
	return m
}

func twoHop(adj map[ids.ID][]ids.ID, p ids.ID) []ids.ID {
	seen := map[ids.ID]bool{p: true}
	var out []ids.ID
	for _, f := range adj[p] {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	direct := len(out)
	for i := 0; i < direct; i++ {
		for _, ff := range adj[out[i]] {
			if !seen[ff] {
				seen[ff] = true
				out = append(out, ff)
			}
		}
	}
	return out
}
