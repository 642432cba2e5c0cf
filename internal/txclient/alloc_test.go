package txclient_test

import (
	"testing"

	"github.com/ics-forth/perseas/internal/txclient"
	"github.com/ics-forth/perseas/internal/txserver"
)

// debitCreditAllocCeiling is what one warm debit-credit transaction —
// Begin, four SetRanges (8, 8, 8 and 50 bytes), Commit: six round trips
// — may allocate end to end: client, both codecs, server and engine
// together. It measures 57: per round trip a request and a response
// frame body, the two messages, the handler goroutine and net.Pipe's
// two write-deadline timers (a socket allocates none) make 48; the
// SetRange replies' range copies 4, the two transaction handles 2, the
// commit's batch, decoded batch and engine call 3. It was 123 when
// every frame was also copied field by field out of its body, Commit
// cloned each range and each before-image was its own slice.
const debitCreditAllocCeiling = 60

func TestDebitCreditAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	srv := txserver.New(newLibrary(t))
	cl, err := txclient.New(dialer(srv), txclient.WithConns(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	db, err := cl.CreateDB("bank", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.InitDB(db); err != nil {
		t.Fatal(err)
	}
	buf := db.Bytes()
	ranges := [][2]uint64{{0, 8}, {1024, 8}, {4096, 8}, {32768, 50}}
	cycle := func() {
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ranges {
			if err := tx.SetRange(db, r[0], r[1]); err != nil {
				t.Fatal(err)
			}
			buf[r[0]]++
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n > debitCreditAllocCeiling {
		t.Errorf("debit-credit transaction allocates %.1f objects, ceiling %d", n, debitCreditAllocCeiling)
	}
}
