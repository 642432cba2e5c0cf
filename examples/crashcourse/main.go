// Crashcourse: a guided tour of every failure mode the paper discusses,
// showing what survives where.
//
// It walks through four scenes:
//
//  1. primary crash with a transaction that never started propagating —
//     the remote database is already legal;
//  2. primary crash in the middle of commit's push phase — the remote
//     undo log rolls the mirror back;
//  3. one mirror node dies — the database stays available through the
//     other mirror (the paper's availability argument);
//  4. take-over: a completely fresh "workstation" attaches to the
//     surviving mirrors and continues the workload.
//
// Run with: go run ./examples/crashcourse
package main

import (
	"fmt"
	"log"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/fault"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

func main() {
	clock := simclock.NewSim()
	var servers []*memserver.Server
	var mirrors []netram.Mirror
	for i := 0; i < 2; i++ {
		node := memserver.New(memserver.WithLabel(fmt.Sprintf("node-%c", 'A'+i)))
		tr, err := transport.NewInProc(node, sci.DefaultParams(), clock)
		if err != nil {
			log.Fatal(err)
		}
		servers = append(servers, node)
		mirrors = append(mirrors, netram.Mirror{Name: node.Label(), T: tr})
	}
	ram, err := netram.NewClient(mirrors)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := core.Init(ram, clock)
	if err != nil {
		log.Fatal(err)
	}

	db, err := lib.CreateDB("state", 64)
	if err != nil {
		log.Fatal(err)
	}
	copy(db.Bytes(), "v0------")
	if err := lib.InitDB(db); err != nil {
		log.Fatal(err)
	}
	commit(lib, db, "v1------")
	fmt.Printf("start:   %s\n", db.Bytes()[:8])

	// Scene 1: crash before any propagation.
	tx1, err := lib.BeginTx()
	must(err)
	must(tx1.SetRange(db, 0, 8))
	copy(db.Bytes(), "garbage!")
	must(lib.Crash(fault.CrashOS))
	must(lib.Recover())
	db = reopen(lib)
	fmt.Printf("scene 1: %s  (uncommitted update discarded; OS crash)\n", db.Bytes()[:8])

	// Scene 2: crash mid-commit — the undo record and the update reached
	// the mirrors, the commit word did not; the remote undo log rolls
	// them back.
	tx2, err := lib.BeginTx()
	must(err)
	must(tx2.SetRange(db, 0, 8))
	copy(db.Bytes(), "halfway!")
	must(tx2.Prepare()) // Commit, interrupted before its last push
	must(lib.Crash(fault.CrashPower))
	must(lib.Recover())
	db = reopen(lib)
	fmt.Printf("scene 2: %s  (mirror rolled back from remote undo log; power crash)\n", db.Bytes()[:8])

	// Scene 3: one mirror dies; the database stays available.
	servers[0].Crash()
	commit(lib, db, "v2------")
	fmt.Printf("scene 3: %s  (committed with node-A down)\n", db.Bytes()[:8])

	// Scene 4: the primary vanishes; a brand-new workstation attaches
	// to the surviving mirror and takes over.
	takeover, err := core.Attach(ram, clock)
	if err != nil {
		log.Fatal(err)
	}
	db2, err := takeover.OpenDB("state")
	if err != nil {
		log.Fatal(err)
	}
	commit(takeover, db2, "v3------")
	fmt.Printf("scene 4: %s  (fresh node took over and committed tx %d)\n",
		db2.Bytes()[:8], takeover.CommittedTxID())
}

func commit(lib *core.Library, db interface {
	Bytes() []byte
}, val string) {
	d := db.(*core.Database)
	tx, err := lib.BeginTx()
	must(err)
	must(tx.SetRange(d, 0, 8))
	copy(d.Bytes(), val)
	must(tx.Commit())
}

func reopen(lib *core.Library) *core.Database {
	db, err := lib.OpenDB("state")
	if err != nil {
		log.Fatal(err)
	}
	return db.(*core.Database)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
