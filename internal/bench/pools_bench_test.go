package bench

import (
	"sync"
	"testing"

	"ldbcsnb/internal/driver"
)

// BenchmarkPreparePools measures parameter curation (§4.1) end to end at
// 1000 persons: the Q9 and Q5 Parameter-Count tables, greedy window
// selection and the non-person value pools — the step every server
// start-up, snb-run and driver.RunMixed call pays before its first query.
// The dataset is generated once per process; one iteration is one
// driver.PreparePools call. Run it at -cpu 1 and -cpu 2 to see the
// per-person fan-out of the PC-table builders.
const poolsPersons = 1000

var poolsFixture struct {
	once sync.Once
	env  *Env
}

func BenchmarkPreparePools(b *testing.B) {
	poolsFixture.once.Do(func() { poolsFixture.env = NewEnvData(poolsPersons, 1) })
	ds := poolsFixture.env.Full
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pp := driver.PreparePools(ds, 1, false); len(pp.PersonsQ5) == 0 {
			b.Fatal("no curated Q5 persons")
		}
	}
}
