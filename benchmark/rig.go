package main

import (
	"fmt"
	"net"
	"runtime"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/fault"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
	"github.com/ics-forth/perseas/internal/txclient"
	"github.com/ics-forth/perseas/internal/txserver"
)

// numMirrors is the replication degree of every workload: two remote
// memory servers, each behind its own loopback TCP listener.
const numMirrors = 2

// mirrorNode is one memory server behind transport.Serve on loopback.
type mirrorNode struct {
	srv  *memserver.Server
	ln   net.Listener
	done chan error
}

func startMirror(label string) (*mirrorNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen for mirror %s: %w", label, err)
	}
	m := &mirrorNode{srv: memserver.New(memserver.WithLabel(label)), ln: ln, done: make(chan error, 1)}
	go func() { m.done <- transport.Serve(ln, m.srv) }()
	return m, nil
}

// stop closes the listener and waits for Serve, which returns once
// every connection has drained — so close the clients first.
func (m *mirrorNode) stop() {
	m.ln.Close()
	<-m.done
}

// ramLink is one netram client and the TCP transports under it.
type ramLink struct {
	ram    *netram.Client
	tcps   []*transport.TCP
	traced []*tracedTransport // nil on untraced rigs
}

// close stops the netram client (when the link got that far) and
// closes the transports.
func (l *ramLink) close() {
	if l == nil {
		return
	}
	if l.ram != nil {
		l.ram.Close()
	}
	for _, t := range l.tcps {
		t.Close()
	}
}

// transportCounts sums the decorators' counters over the mirrors.
func (l *ramLink) transportCounts() transportCounts {
	var sum transportCounts
	for _, t := range l.traced {
		sum.add(t.counts())
	}
	return sum
}

// frontDoor is a txserver on loopback and the clients dialled to it.
type frontDoor struct {
	srv     *txserver.Server
	ln      net.Listener
	done    chan error
	clients []*txclient.Client
}

func (f *frontDoor) close() {
	if f == nil {
		return
	}
	for _, c := range f.clients {
		c.Close()
	}
	f.ln.Close()
	<-f.done
}

// rig is one assembled PERSEAS installation: mirrors, the in-process
// library over them and, for remote workloads, the transaction front
// door. Everything is default-configured — all-ack pushes, group
// commit, no tracer, no flight recorder — on the wall clock. rec is nil
// on untraced rigs: no decorator is constructed at all, so an untraced
// run executes exactly the program's own code.
type rig struct {
	rec     *recorder
	clock   *simclock.WallClock
	mirrors []*mirrorNode
	link    *ramLink
	lib     *core.Library
	front   *frontDoor
}

func newRig(rec *recorder) (*rig, error) {
	r := &rig{rec: rec, clock: simclock.NewWall()}
	for i := 0; i < numMirrors; i++ {
		m, err := startMirror(fmt.Sprintf("mirror%d", i))
		if err != nil {
			r.close()
			return nil, err
		}
		r.mirrors = append(r.mirrors, m)
	}
	link, err := r.dial()
	if err != nil {
		r.close()
		return nil, err
	}
	r.link = link
	r.lib, err = core.Init(link.ram, r.clock)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("core.Init: %w", err)
	}
	return r, nil
}

// dial builds a fresh netram client over freshly dialled transports to
// the rig's mirrors — what a restarted primary does before Attach.
func (r *rig) dial() (*ramLink, error) {
	link := &ramLink{}
	var ms []netram.Mirror
	for i, m := range r.mirrors {
		t, err := transport.DialTCP(m.ln.Addr().String())
		if err != nil {
			link.close()
			return nil, err
		}
		link.tcps = append(link.tcps, t)
		var mt transport.Transport = t
		if r.rec != nil {
			d := newTracedTransport(t, r.rec, i)
			link.traced = append(link.traced, d)
			mt = d
		}
		ms = append(ms, netram.Mirror{Name: m.srv.Label(), T: mt})
	}
	ram, err := netram.NewClient(ms)
	if err != nil {
		link.close()
		return nil, err
	}
	link.ram = ram
	return link, nil
}

// engine is what the front door serves: the library itself, or the
// engine decorator around it on a traced rig.
func (r *rig) engine() engine.Engine {
	if r.rec != nil {
		return newTracedEngine(r.lib, r.rec)
	}
	return r.lib
}

// openFrontDoor starts a txserver over the rig's library and dials n
// clients to it, one connection each.
func (r *rig) openFrontDoor(n int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen for txserver: %w", err)
	}
	f := &frontDoor{srv: txserver.New(r.engine()), ln: ln, done: make(chan error, 1)}
	go func() { f.done <- f.srv.Serve(ln) }()
	r.front = f
	for i := 0; i < n; i++ {
		c, err := txclient.Dial(ln.Addr().String(), txclient.WithConns(1))
		if err != nil {
			return fmt.Errorf("dial txserver: %w", err)
		}
		f.clients = append(f.clients, c)
	}
	return nil
}

// closeFrontDoor shuts the front door, leaving the library running.
func (r *rig) closeFrontDoor() {
	r.front.close()
	r.front = nil
}

// crashAndAttach power-fails the primary and recovers on a freshly
// dialled client: the library's local memory is dropped, the old
// connections are closed, the heap is collected so the recovery's own
// allocations are what the timed call pays for, and core.Attach runs
// the full recovery procedure with default parallelism. It returns the
// Attach wall time; the rig then runs on the recovered library.
func (r *rig) crashAndAttach() (int64, error) {
	if err := r.lib.Crash(fault.CrashPower); err != nil {
		return 0, fmt.Errorf("crash: %w", err)
	}
	r.link.close()
	r.lib, r.link = nil, nil
	runtime.GC()
	link, err := r.dial()
	if err != nil {
		return 0, err
	}
	r.link = link
	start := nowNS()
	lib, err := core.Attach(link.ram, r.clock)
	end := nowNS()
	if err != nil {
		return 0, fmt.Errorf("core.Attach: %w", err)
	}
	if r.rec != nil {
		r.rec.add(kAttach, 0, start, end, 0, 0)
	}
	r.lib = lib
	return end - start, nil
}

// verifyMirrors audits every live region against every mirror.
func (r *rig) verifyMirrors() error {
	mm, err := r.link.ram.VerifyAll()
	if err != nil {
		return fmt.Errorf("VerifyAll: %w", err)
	}
	if len(mm) > 0 {
		return fmt.Errorf("VerifyAll: %d mismatch(es), first: %v", len(mm), mm[0])
	}
	return nil
}

// memStats sums the mirrors' server-side counters.
func (r *rig) memStats() memserver.Stats {
	var sum memserver.Stats
	for _, m := range r.mirrors {
		s := m.srv.Stats()
		sum.WriteOps += s.WriteOps
		sum.BatchOps += s.BatchOps
		sum.BytesWritten += s.BytesWritten
		sum.ReadOps += s.ReadOps
		sum.BytesRead += s.BytesRead
	}
	return sum
}

func (r *rig) close() {
	if r == nil {
		return
	}
	r.front.close()
	if r.lib != nil {
		r.lib.Close()
	}
	r.link.close()
	for _, m := range r.mirrors {
		m.stop()
	}
}
