package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// randomEvent draws an event whose row is a few dozen bytes, or now and
// then longer than the hasher's whole buffer.
func randomEvent(rng *rand.Rand) Event {
	kinds := []Kind{Dispatch, Charge, Wake, Block, Exit, Interrupt, Idle}
	name := strings.Repeat("t", rng.Intn(12))
	if rng.Intn(200) == 0 {
		name = strings.Repeat("long", 1+rng.Intn(2*hashBatch/4))
	}
	return Event{
		At:       sim.Time(rng.Int63()),
		Kind:     kinds[rng.Intn(len(kinds))],
		Thread:   name,
		ThreadID: rng.Intn(1000) - 10,
		Used:     sched.Work(rng.Int63n(1 << 40)),
		Runnable: rng.Intn(2) == 0,
		Service:  sim.Time(rng.Int63n(1 << 20)),
		Core:     rng.Intn(8),
	}
}

// TestHasherBatching feeds row streams that cross the hasher's 4 KiB
// batch many times and samples Sum at arbitrary rows, as tracediff does
// for prefix digests: every digest is SHA-256 over the reference rows
// added so far, Rows stays exact, and sampling does not disturb the
// digests that follow.
func TestHasherBatching(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numCores := 1 + int(seed%2)
		h := NewHasher()
		h.SetNumCores(numCores)
		ref := sha256.New()
		check := func(rows int) {
			t.Helper()
			if got, want := h.Sum(), hex.EncodeToString(ref.Sum(nil)); got != want {
				t.Fatalf("seed %d, %d rows: digest %s, want %s", seed, rows, got, want)
			}
			if h.Rows() != rows {
				t.Fatalf("seed %d: Rows %d, want %d", seed, h.Rows(), rows)
			}
		}
		check(0)
		bytes := 0
		const rows = 3000
		for i := 1; i <= rows; i++ {
			e := randomEvent(rng)
			if i%2 == 0 {
				h.Add(e)
			} else {
				h.Fold(&e)
			}
			row := refRow(e, numCores)
			ref.Write(row)
			bytes += len(row)
			switch rng.Intn(40) {
			case 0:
				check(i)
			case 1:
				check(i)
				check(i) // a second Sum at the same row changes nothing
			}
		}
		check(rows)
		if bytes < 10*hashBatch {
			t.Fatalf("seed %d: %d row bytes cross the %d-byte batch too few times", seed, bytes, hashBatch)
		}
	}
}
