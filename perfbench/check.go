package main

import (
	"fmt"
	"slices"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/server"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// The correctness checks. A wrong answer or a lost acknowledged write fails
// the run outright; the metrics of such a run are not a result.

// rowKey identifies one served read's answer: the server binds parameters
// from the class, the op and the request seed alone.
type rowKey struct {
	class, op byte
	seed      uint64
}

// servedRead is one served read bound in process exactly as the server
// binds it: xrand.New(serverSeed, PurposeShortRead, seed), then the complex
// template's Bind, or one pool person to start the short-read walk from.
// The row check and the traced re-execution both run reads through it, so
// the two cannot disagree on what a request means.
type servedRead struct {
	spec    *workload.ComplexSpec // nil for a short-read walk
	params  workload.ComplexParams
	persons []ids.ID
	rnd     *xrand.Rand
}

func bindRead(pools *workload.ParamPools, serverSeed uint64, k rowKey) servedRead {
	r := servedRead{rnd: xrand.New(serverSeed, xrand.PurposeShortRead, k.seed)}
	if k.class == server.ClassComplex {
		r.spec = &workload.Complex[k.op-1]
		r.params = r.spec.Bind(pools, r.rnd)
	} else if n := len(pools.Persons); n > 0 {
		r.persons = []ids.ID{pools.Persons[r.rnd.Intn(n)]}
	}
	return r
}

// run executes the bound read on v and returns the row count the server
// reports for it.
func (r *servedRead) run(v *store.SnapshotView, sc *workload.Scratch) uint32 {
	if r.spec != nil {
		res := r.spec.RunView(v, sc, r.params)
		return uint32(len(res.Persons) + len(res.Messages))
	}
	total := 0
	for _, n := range workload.RunShortReadChain(v, workload.DefaultShortReadMix, r.rnd, r.persons, nil, nil) {
		total += n
	}
	return uint32(total)
}

// checkServed requires every request in phases to have ended with an OK
// response. A request that failed, was shed or timed out fails the run, so
// a latency or rate is never taken over a sample that lost requests.
func checkServed(phases []*phase) error {
	total, failed := 0, 0
	var first string
	for _, ph := range phases {
		for i := range ph.outs {
			total++
			if o := &ph.outs[i]; !o.ok() {
				if failed == 0 {
					r := &ph.reqs[i]
					first = fmt.Sprintf("request %d (class %d op %d): status %d, error %v", r.ReqID, r.Class, r.Op, o.resp.Status, o.err)
				}
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d served requests failed, were shed or timed out; first: %s", failed, total, first)
	}
	return nil
}

// checkRows compares the Rows of every OK read response in phases with the
// reference answer for its key, computing each distinct answer once. It
// returns how many responses it compared.
func checkRows(phases []*phase, ref func(rowKey) uint32) (int, error) {
	answers := map[rowKey]uint32{}
	checked, wrong := 0, 0
	var first string
	for _, ph := range phases {
		for i := range ph.reqs {
			r, o := &ph.reqs[i], &ph.outs[i]
			if r.Class == server.ClassWrite || r.Class == server.ClassPing || !o.ok() {
				continue
			}
			k := rowKey{r.Class, r.Op, r.Seed}
			want, ok := answers[k]
			if !ok {
				want = ref(k)
				answers[k] = want
			}
			checked++
			if o.resp.Rows != want {
				if wrong == 0 {
					first = fmt.Sprintf("class %d op %d seed %#x: server returned %d rows, in-process reference %d",
						r.Class, r.Op, r.Seed, o.resp.Rows, want)
				}
				wrong++
			}
		}
	}
	if wrong > 0 {
		return checked, fmt.Errorf("%d of %d read responses disagree with the in-process reference; first: %s", wrong, checked, first)
	}
	return checked, nil
}

// checkClock requires the recovered commit clock to equal the live one.
func checkClock(live, recovered int64) error {
	if live != recovered {
		return fmt.Errorf("recovered commit clock %d, live clock was %d", recovered, live)
	}
	return nil
}

// checkAckedPersons checks acknowledged person inserts across a restart:
// the live store gained exactly acked persons over base, and the recovered
// store holds exactly the live set.
func checkAckedPersons(live, recovered []ids.ID, base int, acked int64) error {
	if got := int64(len(live) - base); got != acked {
		return fmt.Errorf("live store gained %d persons, %d inserts were acknowledged", got, acked)
	}
	l, r := slices.Clone(live), slices.Clone(recovered)
	slices.Sort(l)
	slices.Sort(r)
	for _, id := range l {
		if _, found := slices.BinarySearch(r, id); !found {
			return fmt.Errorf("acknowledged person %v missing after restart (%d live, %d recovered)", id, len(l), len(r))
		}
	}
	if len(r) != len(l) {
		return fmt.Errorf("recovered %d persons, live store had %d", len(r), len(l))
	}
	return nil
}

// graphReader is the part of store.SnapshotView the update check reads.
type graphReader interface {
	Exists(id ids.ID) bool
	Out(id ids.ID, t store.EdgeType) []store.Edge
}

// checkUpdates requires every update in applied to be visible in r: the
// node it creates, or the edge it adds.
func checkUpdates(r graphReader, applied []schema.Update) error {
	hasEdge := func(from ids.ID, t store.EdgeType, to ids.ID) bool {
		for _, e := range r.Out(from, t) {
			if e.To == to {
				return true
			}
		}
		return false
	}
	missing := 0
	var first string
	for i := range applied {
		u := &applied[i]
		var ok bool
		switch u.Type {
		case schema.UpdateAddPerson:
			ok = r.Exists(u.Person.ID)
		case schema.UpdateAddForum:
			ok = r.Exists(u.Forum.ID)
		case schema.UpdateAddPost:
			ok = r.Exists(u.Post.ID)
		case schema.UpdateAddComment:
			ok = r.Exists(u.Comment.ID)
		case schema.UpdateAddLikePost, schema.UpdateAddLikeComment:
			ok = hasEdge(u.Like.Person, store.EdgeLikes, u.Like.Message)
		case schema.UpdateAddMembership:
			ok = hasEdge(u.Membership.Forum, store.EdgeHasMember, u.Membership.Person)
		case schema.UpdateAddFriendship:
			ok = hasEdge(u.Friendship.A, store.EdgeKnows, u.Friendship.B)
		}
		if !ok {
			if missing == 0 {
				first = fmt.Sprintf("update %d (%s, due %d)", i, u.Type, u.DueTime)
			}
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("%d of %d acknowledged updates missing after restart; first: %s", missing, len(applied), first)
	}
	return nil
}
