package params

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/schema"
)

// oracleDatasets are the generated datasets the dense-index builders are
// checked on: a whole dataset, and the bulk half of a split one (whose
// Knows and memberships stop at the update cut).
func oracleDatasets() map[string]*schema.Dataset {
	full := datagen.Generate(datagen.Config{Seed: 3, Persons: 250, Workers: 2}).Data
	split := datagen.Generate(datagen.Config{Seed: 5, Persons: 300, Workers: 2, Events: true}).Data
	bulk, _ := datagen.Split(split, datagen.UpdateCut)
	return map[string]*schema.Dataset{"250p-seed3": full, "300p-seed5-bulk": bulk}
}

// TestPCTablesMatchOracle pins the dense-index builders to the map-based
// oracle: the exported builders (at this run's GOMAXPROCS — run with
// -cpu 1,2,4 to vary it) and the index at explicit worker counts must
// produce the oracle's tables exactly, rows and order included.
func TestPCTablesMatchOracle(t *testing.T) {
	for name, d := range oracleDatasets() {
		want := map[string]*Table{"Q2": oracleQ2Table(d), "Q5": oracleQ5Table(d), "Q9": oracleQ9Table(d)}
		wantSizes := oracleTwoHopSizes(d)
		check := func(how string, got map[string]*Table, sizes []int) {
			t.Helper()
			for q, w := range want {
				if !reflect.DeepEqual(got[q], w) {
					t.Errorf("%s %s %s: table differs from the oracle", name, how, q)
				}
			}
			if !reflect.DeepEqual(sizes, wantSizes) {
				t.Errorf("%s %s: TwoHopSizes differs from the oracle", name, how)
			}
		}
		check("exported", map[string]*Table{
			"Q2": BuildQ2Table(d), "Q5": BuildQ5Table(d), "Q9": BuildQ9Table(d),
		}, TwoHopSizes(d))
		for _, w := range []int{1, 2, 3, 4, 2 * runtime.GOMAXPROCS(0)} {
			ix := newIndex(d)
			ix.workers = w
			check(fmt.Sprintf("workers=%d", w), map[string]*Table{
				"Q2": ix.q2Table(d), "Q5": ix.q5Table(d), "Q9": ix.q9Table(d),
			}, ix.twoHopSizes(d))
		}
	}
}

// TestPCTablesEdgeCases covers inputs the generator never emits: a Knows
// endpoint or a membership outside the person table, a self-loop, a
// duplicated edge and membership, and a post in an unknown forum.
func TestPCTablesEdgeCases(t *testing.T) {
	d := datagen.Generate(datagen.Config{Seed: 7, Persons: 40, Workers: 2}).Data
	ghost := d.Persons[0].ID + 1<<40 // same kind, a bucket no person uses
	d.Knows = append(d.Knows,
		schema.Knows{A: d.Persons[0].ID, B: ghost},
		schema.Knows{A: ghost, B: d.Persons[1].ID},
		schema.Knows{A: d.Persons[2].ID, B: d.Persons[2].ID},
		d.Knows[0])
	d.Memberships = append(d.Memberships, d.Memberships[0],
		schema.Membership{Person: ghost, Forum: d.Forums[0].ID},
		schema.Membership{Person: ghost + 1, Forum: d.Forums[1].ID})
	d.Posts = append(d.Posts, d.Posts[0])
	d.Posts[len(d.Posts)-1].Forum = d.Forums[0].ID + 1<<40
	for q, pair := range map[string][2]*Table{
		"Q2": {BuildQ2Table(d), oracleQ2Table(d)},
		"Q5": {BuildQ5Table(d), oracleQ5Table(d)},
		"Q9": {BuildQ9Table(d), oracleQ9Table(d)},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s: table differs from the oracle", q)
		}
	}
	if got, want := TwoHopSizes(d), oracleTwoHopSizes(d); !reflect.DeepEqual(got, want) {
		t.Errorf("TwoHopSizes = %v, oracle %v", got, want)
	}
}

func TestPCTablesEmpty(t *testing.T) {
	d := &schema.Dataset{}
	if tab := BuildQ5Table(d); len(tab.Rows) != 0 {
		t.Fatalf("empty dataset: %d rows", len(tab.Rows))
	}
	if sizes := TwoHopSizes(d); len(sizes) != 0 {
		t.Fatalf("empty dataset: %d sizes", len(sizes))
	}
}
