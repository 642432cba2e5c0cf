package main

import (
	"fmt"
	"runtime"

	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/wire"
)

// Direct probes cover the layers no seam lets the benchmark interpose
// on: tight loops over a layer's public functions, on the frame and
// range sizes the workloads use (a 64-byte write — one undo record or
// history row on the wire — and a 64 KiB one — a bulk range). They run
// after the timed windows, on their own servers, so they cost the
// end-to-end numbers nothing.

type probeResult struct {
	wireEncSmallNS, wireDecSmallNS float64
	wireEnc64kNS, wireDec64kNS     float64
	wireRoundtripAllocs            float64
	wireOverheadSmall              float64

	memWrite64NS, memWrite64kNS float64
	memRead16mMS                float64

	push64US, push64kUS float64
	fanoutOverheadUS    float64
	fetchMiBs           float64
}

const (
	probeSmall = 64
	probeLarge = 64 << 10
)

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink int

// perOpNS times f in batches and returns the median batch's
// nanoseconds per call.
func perOpNS(batches, perBatch int, f func()) float64 {
	vs := make([]float64, batches)
	for b := range vs {
		t0 := nowNS()
		for i := 0; i < perBatch; i++ {
			f()
		}
		vs[b] = float64(nowNS()-t0) / float64(perBatch)
	}
	return medianF(vs)
}

func probeWire(p *probeResult, scale int) error {
	payload := func(n int) []byte {
		b := make([]byte, n)
		fillPattern(b, uint64(n))
		return b
	}
	small := &wire.Request{Op: wire.OpWrite, Seg: 3, Offset: 4096, Data: payload(probeSmall)}
	large := &wire.Request{Op: wire.OpWrite, Seg: 3, Offset: 1 << 20, Data: payload(probeLarge)}
	ok := &wire.Response{Status: wire.StatusOK}
	smallBody, err := wire.EncodeRequest(small)
	if err != nil {
		return err
	}
	largeBody, err := wire.EncodeRequest(large)
	if err != nil {
		return err
	}
	okBody, err := wire.EncodeResponse(ok)
	if err != nil {
		return err
	}
	// Framing adds a 4-byte length in front of the body.
	p.wireOverheadSmall = float64(4 + len(smallBody) - probeSmall)

	var probeErr error
	enc := func(req *wire.Request) func() {
		return func() {
			b, err := wire.EncodeRequest(req)
			if err != nil {
				probeErr = err
			}
			probeSink += len(b)
		}
	}
	dec := func(body []byte) func() {
		return func() {
			r, err := wire.DecodeRequest(body)
			if err != nil {
				probeErr = err
				return
			}
			probeSink += len(r.Data)
		}
	}
	p.wireEncSmallNS = perOpNS(5, 20000/scale, enc(small))
	p.wireDecSmallNS = perOpNS(5, 20000/scale, dec(smallBody))
	p.wireEnc64kNS = perOpNS(5, 2000/scale, enc(large))
	p.wireDec64kNS = perOpNS(5, 2000/scale, dec(largeBody))

	// One small round trip as the memory protocol performs it: request
	// encoded and decoded, response encoded and decoded.
	const rounds = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		enc(small)()
		dec(smallBody)()
		b, err := wire.EncodeResponse(ok)
		if err != nil {
			probeErr = err
		}
		probeSink += len(b)
		r, err := wire.DecodeResponse(okBody)
		if err != nil {
			probeErr = err
		} else {
			probeSink += int(r.Status)
		}
	}
	runtime.ReadMemStats(&after)
	p.wireRoundtripAllocs = float64(after.Mallocs-before.Mallocs) / rounds
	return probeErr
}

func probeMemserver(p *probeResult, scale int) error {
	srv := memserver.New()
	const segSize = 16 << 20
	seg, err := srv.Malloc("probe", segSize)
	if err != nil {
		return err
	}
	small := make([]byte, probeSmall)
	large := make([]byte, probeLarge)
	fillPattern(small, 1)
	fillPattern(large, 2)
	var probeErr error
	var off uint64
	write := func(data []byte) func() {
		return func() {
			if err := srv.Write(seg.ID, off, data); err != nil {
				probeErr = err
			}
			off = (off + uint64(len(data))) % (segSize - probeLarge)
		}
	}
	p.memWrite64NS = perOpNS(5, 20000/scale, write(small))
	p.memWrite64kNS = perOpNS(5, 2000/scale, write(large))
	readNS := perOpNS(5, 1, func() {
		b, err := srv.Read(seg.ID, 0, segSize)
		if err != nil {
			probeErr = err
		}
		probeSink += len(b)
	})
	p.memRead16mMS = readNS / 1e6
	return probeErr
}

// probeNetram pushes and fetches on a scratch region of a rig of its
// own, with the transport decorator in place, so a push can be compared
// with the slowest mirror write it waited for: the difference is what
// the fan-out itself (dispatch to the sender goroutines, the join, the
// bookkeeping) costs.
func probeNetram(p *probeResult, scale int) error {
	rec := newRecorder(1 << 15)
	r, err := newRig(rec)
	if err != nil {
		return err
	}
	defer r.close()
	const regionSize = 8 << 20
	region, err := r.link.ram.Malloc("probe.scratch", regionSize)
	if err != nil {
		return err
	}
	fillPattern(region.Local, 3)
	ram := r.link.ram

	rec.all()
	push := func(n uint64, count int) error {
		var off uint64
		for i := 0; i < count+count/10; i++ {
			t0 := nowNS()
			if err := ram.Push(region, off, n); err != nil {
				return err
			}
			if i >= count/10 { // the first tenth warms the path
				rec.add(kProbePush, 0, t0, nowNS(), uint64(i), int(n))
			}
			off = (off + 2*n) % (regionSize - n)
		}
		return nil
	}
	if err := push(probeSmall, 2000/scale); err != nil {
		return err
	}
	if err := push(probeLarge, 300/scale); err != nil {
		return err
	}
	rec.limit.Store(0)
	// One push is one parent; the mirrors' writes are its children, and
	// the push cannot return before the slowest of them.
	var small, large, over []int64
	forEachParent(rec.spans(), kProbePush, nil, func(push span, _, xs []span) {
		if push.N == probeLarge {
			large = append(large, push.dur())
			return
		}
		small = append(small, push.dur())
		var slowest int64
		for _, x := range xs {
			if d := x.dur(); d > slowest {
				slowest = d
			}
		}
		over = append(over, push.dur()-slowest)
	})
	if len(small) == 0 || len(large) == 0 {
		return fmt.Errorf("netram probe: recorded %d small and %d large pushes", len(small), len(large))
	}
	p.push64US = usOf(percentile(sortedCopy(small), 50))
	p.push64kUS = usOf(percentile(sortedCopy(large), 50))
	p.fanoutOverheadUS = usOf(percentile(sortedCopy(over), 50))

	var probeErr error
	fetchNS := perOpNS(5, 1, func() {
		b, err := ram.Fetch(region, 0, regionSize)
		if err != nil {
			probeErr = err
		}
		probeSink += len(b)
	})
	if probeErr != nil {
		return probeErr
	}
	p.fetchMiBs = float64(regionSize>>20) / (fetchNS / 1e9)
	return ram.Free(region)
}

// runProbes runs every direct probe. scale divides the iteration
// counts (the smoke run uses 10).
func runProbes(scale int) (*probeResult, error) {
	p := &probeResult{}
	if err := probeWire(p, scale); err != nil {
		return nil, fmt.Errorf("wire probe: %w", err)
	}
	if err := probeMemserver(p, scale); err != nil {
		return nil, fmt.Errorf("memserver probe: %w", err)
	}
	if err := probeNetram(p, scale); err != nil {
		return nil, fmt.Errorf("netram probe: %w", err)
	}
	return p, nil
}
