package params_test

import (
	"reflect"
	"testing"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/driver"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/params"
	"ldbcsnb/internal/xrand"
)

// TestPreparePoolsMatchesOracle pins the curated pools — what every served
// request and driver run binds its parameters from — to the pools the
// map-based oracle tables yield. Only Persons (curated from the Q9 table)
// and PersonsQ5 (curated or uniformly sampled from the Q5 table) depend on
// the PC tables; every other field is taken from the driver's result.
func TestPreparePoolsMatchesOracle(t *testing.T) {
	d := datagen.Generate(datagen.Config{Seed: 3, Persons: 250, Workers: 2}).Data
	const seed = 42
	toIDs := func(ps []uint64) []ids.ID {
		out := make([]ids.ID, len(ps))
		for i, p := range ps {
			out[i] = ids.ID(p)
		}
		return out
	}
	for _, uniform := range []bool{false, true} {
		got := driver.PreparePools(d, seed, uniform)
		want := *got
		want.Persons = toIDs(params.OracleQ9Table(d).Curate(40))
		q5 := params.OracleQ5Table(d)
		if uniform {
			want.PersonsQ5 = toIDs(q5.UniformSample(40, xrand.New(seed, xrand.PurposeShortRead, 1).Uint64))
		} else {
			want.PersonsQ5 = toIDs(q5.Curate(40))
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("uniform=%v: pools differ from the oracle path\n got Persons %v PersonsQ5 %v\nwant Persons %v PersonsQ5 %v",
				uniform, got.Persons, got.PersonsQ5, want.Persons, want.PersonsQ5)
		}
	}
}
