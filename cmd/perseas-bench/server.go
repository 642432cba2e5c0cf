package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
	"github.com/ics-forth/perseas/internal/txclient"
	"github.com/ics-forth/perseas/internal/txserver"
)

// serverResult is one cell of the server group-commit sweep, for
// -bench-out.
type serverResult struct {
	Clients  int     `json:"clients"`
	Mode     string  `json:"mode"`
	TPS      float64 `json:"tps"`
	P50us    float64 `json:"p50_us"`
	P99us    float64 `json:"p99_us"`
	BatchP50 uint64  `json:"batch_p50"`
	BatchP99 uint64  `json:"batch_p99"`
	BatchMax uint64  `json:"batch_max"`
}

// runServer measures the transaction front door's cross-client group
// commit against serial commits, sweeping the client count. Each cell
// is a complete installation — two loopback TCP mirrors, an engine, a
// tx server on a real listener — driven closed-loop by C txclient
// processes that each own a private 8-byte slot of one shared table, so
// conflicts never pollute the measurement: the sweep isolates what the
// commit policy does to throughput and tail latency as clients pile up.
func runServer(w io.Writer, _ int) error {
	counts, err := parseShardCounts(serverClientsCSV)
	if err != nil {
		return fmt.Errorf("-server-clients: %w", err)
	}
	fmt.Fprintf(w, "Server group commit — %v per cell, 2 loopback TCP mirrors, private-slot increments, wall-clock\n", serverCellDur)
	fmt.Fprintf(w, "%8s %7s %10s %12s %12s %18s\n",
		"clients", "mode", "tx/s", "p50", "p99", "batch p50/p99/max")
	var results []serverResult
	for _, c := range counts {
		for _, mode := range []txserver.CommitMode{txserver.GroupCommit, txserver.SerialCommit} {
			res, err := runServerCell(c, mode)
			if err != nil {
				return fmt.Errorf("%d clients, %s: %w", c, mode, err)
			}
			results = append(results, *res)
			fmt.Fprintf(w, "%8d %7s %10.0f %12s %12s %11d/%d/%d\n",
				res.Clients, res.Mode, res.TPS,
				time.Duration(res.P50us*1e3).Round(time.Microsecond),
				time.Duration(res.P99us*1e3).Round(time.Microsecond),
				res.BatchP50, res.BatchP99, res.BatchMax)
		}
	}
	benchResults = map[string]any{
		"experiment":  "server",
		"cell_dur_ns": serverCellDur.Nanoseconds(),
		"mirrors":     2,
		"results":     results,
	}
	return nil
}

// runServerCell runs one (clients, mode) cell and reports its row.
func runServerCell(clients int, mode txserver.CommitMode) (*serverResult, error) {
	// The installation: two loopback TCP mirrors under a wall-clock
	// engine, fronted by a tx server with the cell's commit policy.
	var closers []io.Closer
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i].Close()
		}
	}()
	var mirrors []netram.Mirror
	for i := 0; i < 2; i++ {
		ms := memserver.New(memserver.WithLabel(fmt.Sprintf("bench-mirror-%d", i)))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go func() { _ = transport.Serve(l, ms) }()
		closers = append(closers, l)
		tr, err := transport.DialTCP(l.Addr().String())
		if err != nil {
			return nil, err
		}
		closers = append(closers, tr)
		mirrors = append(mirrors, netram.Mirror{Name: l.Addr().String(), T: tr})
	}
	ram, err := netram.NewClient(mirrors)
	if err != nil {
		return nil, err
	}
	defer ram.Close() // its sender workers pin the cell's regions
	lib, err := core.Init(ram, simclock.NewWall())
	if err != nil {
		return nil, err
	}
	srv := txserver.New(lib, txserver.WithCommitMode(mode), txserver.WithMaxTxs(2*clients+16))
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	closers = append(closers, fl)
	go func() { _ = srv.Serve(fl) }()
	addr := fl.Addr().String()

	setup, err := txclient.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer setup.Close()
	size := uint64(clients) * 8
	db, err := setup.CreateDB("slots", size)
	if err != nil {
		return nil, err
	}
	if err := setup.InitDB(db); err != nil {
		return nil, err
	}

	fleet := make([]*txclient.Client, clients)
	defer func() {
		for _, cl := range fleet {
			if cl != nil {
				cl.Close()
			}
		}
	}()
	var rampWg sync.WaitGroup
	rampErrs := make([]error, clients)
	sem := make(chan struct{}, 256)
	for i := range fleet {
		i := i
		rampWg.Add(1)
		sem <- struct{}{}
		go func() {
			defer rampWg.Done()
			defer func() { <-sem }()
			fleet[i], rampErrs[i] = txclient.Dial(addr, txclient.WithConns(1))
		}()
	}
	rampWg.Wait()
	for _, err := range rampErrs {
		if err != nil {
			return nil, err
		}
	}

	var lat obs.Histogram
	var committed atomic.Uint64
	var stop atomic.Bool
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := fleet[i]
			d, err := cl.OpenDB("slots")
			if err != nil {
				errs[i] = err
				return
			}
			slot := uint64(i) * 8
			// With more clients than engine transaction slots, Begin
			// pushes back with a busy error; back off exponentially so
			// the measurement reflects commit throughput, not a retry
			// storm at the admission gate.
			busyWait := time.Millisecond
			for !stop.Load() {
				t0 := time.Now()
				tx, err := cl.Begin()
				if errors.Is(err, txclient.ErrBusy) {
					time.Sleep(busyWait)
					if busyWait < 250*time.Millisecond {
						busyWait *= 2
					}
					continue
				}
				if err != nil {
					errs[i] = err
					return
				}
				busyWait = time.Millisecond
				if err := tx.SetRange(d, slot, 8); err != nil {
					errs[i] = err
					return
				}
				binary.BigEndian.PutUint64(d.Bytes()[slot:slot+8],
					binary.BigEndian.Uint64(d.Bytes()[slot:slot+8])+1)
				if err := tx.Commit(); err != nil {
					errs[i] = err
					return
				}
				lat.ObserveDuration(time.Since(t0))
				committed.Add(1)
			}
		}()
	}
	start := time.Now()
	time.Sleep(serverCellDur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
	}

	st := srv.Stats()
	snap := lat.Snapshot()
	return &serverResult{
		Clients:  clients,
		Mode:     mode.String(),
		TPS:      math.Round(float64(committed.Load()) / elapsed.Seconds()),
		P50us:    math.Round(snap.Quantile(0.50) / 1e3),
		P99us:    math.Round(snap.Quantile(0.99) / 1e3),
		BatchP50: st.BatchP50,
		BatchP99: st.BatchP99,
		BatchMax: st.BatchMax,
	}, nil
}
