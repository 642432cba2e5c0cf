// Package memserver implements the remote node's memory server.
//
// In the paper's client-server model the server process runs on the
// remote workstation and is responsible for accepting requests (remote
// malloc and free) and manipulating its main memory: exporting physical
// memory segments and freeing them when necessary. Exported segments are
// plain byte slices here; the client maps them through a transport.
//
// Segments carry names so that a client restarting after a crash can
// reconnect to the segments it lost the pointers to (the paper's
// sci_connect_segment): first the PERSEAS metadata segments, then from
// those the mirrored database records.
package memserver

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/ics-forth/perseas/internal/wire"
)

// Errors returned by server operations.
var (
	// ErrNoSuchSegment is returned for operations on unknown segment ids.
	ErrNoSuchSegment = errors.New("memserver: no such segment")
	// ErrNoSuchName is returned when Connect finds no segment by name.
	ErrNoSuchName = errors.New("memserver: no segment with that name")
	// ErrNameInUse is returned when Malloc reuses a live segment name.
	ErrNameInUse = errors.New("memserver: segment name already in use")
	// ErrOutOfMemory is returned when an allocation would exceed the
	// server's exported-memory budget.
	ErrOutOfMemory = errors.New("memserver: exported memory budget exhausted")
	// ErrBadRange is returned when a read or write falls outside a
	// segment.
	ErrBadRange = errors.New("memserver: access outside segment bounds")
	// ErrBadSize is returned for zero or negative allocation sizes.
	ErrBadSize = errors.New("memserver: allocation size must be positive")
)

// Segment is one exported main-memory region.
type Segment struct {
	// ID is the server-assigned handle.
	ID uint32
	// Name is the optional reconnection name ("" for anonymous).
	Name string
	// Data is the exported memory itself.
	Data []byte
	// conns counts live client references taken via Connect and dropped
	// via Disconnect, guarded by the server mutex. Leaked references
	// show up in List as a non-zero Conns on a segment nobody uses.
	conns uint32
}

// Stats counts the traffic a server has absorbed.
type Stats struct {
	Mallocs      uint64
	Frees        uint64
	WriteOps     uint64
	ReadOps      uint64
	BytesWritten uint64
	BytesRead    uint64
	Connects     uint64
	Disconnects  uint64
	BatchOps     uint64
}

// Server is a remote-memory server instance. The zero value is not
// usable; construct with New.
type Server struct {
	mu       sync.RWMutex
	segs     map[uint32]*Segment
	byName   map[string]uint32
	nextID   uint32
	capacity uint64
	held     uint64
	stats    Stats
	crashed  bool
	// partitioned simulates a network partition or OS hang: the node
	// stops answering every request — including health probes — but its
	// memory survives, unlike a Crash. Heal reconnects it.
	partitioned bool
	nodeLabel   string
}

// Option configures a Server.
type Option func(*Server)

// WithCapacity bounds the total bytes the server will export. Zero (the
// default) means unbounded.
func WithCapacity(bytes uint64) Option {
	return func(s *Server) { s.capacity = bytes }
}

// WithLabel names the server in error messages (useful with several
// mirror nodes).
func WithLabel(label string) Option {
	return func(s *Server) { s.nodeLabel = label }
}

// New returns an empty memory server.
func New(opts ...Option) *Server {
	s := &Server{
		segs:      make(map[uint32]*Segment),
		byName:    make(map[string]uint32),
		nextID:    1,
		nodeLabel: "remote",
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Label returns the server's diagnostic label.
func (s *Server) Label() string { return s.nodeLabel }

// Malloc exports a new zeroed segment of the given size. If name is
// non-empty it is registered for post-crash reconnection and must be
// unique among live segments.
func (s *Server) Malloc(name string, size uint64) (*Segment, error) {
	if size == 0 {
		return nil, ErrBadSize
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	if name != "" {
		if _, ok := s.byName[name]; ok {
			return nil, fmt.Errorf("%w: %q", ErrNameInUse, name)
		}
	}
	if s.capacity != 0 && s.held+size > s.capacity {
		return nil, fmt.Errorf("%w: held %d + want %d > cap %d",
			ErrOutOfMemory, s.held, size, s.capacity)
	}
	seg := &Segment{ID: s.nextID, Name: name, Data: make([]byte, size)}
	s.nextID++
	s.segs[seg.ID] = seg
	if name != "" {
		s.byName[name] = seg.ID
	}
	s.held += size
	s.stats.Mallocs++
	return seg, nil
}

// Free releases a segment.
func (s *Server) Free(id uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkAlive(); err != nil {
		return err
	}
	seg, ok := s.segs[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNoSuchSegment, id)
	}
	delete(s.segs, id)
	if seg.Name != "" {
		delete(s.byName, seg.Name)
	}
	s.held -= uint64(len(seg.Data))
	s.stats.Frees++
	return nil
}

// Write copies data into a segment at the given offset.
func (s *Server) Write(id uint32, offset uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkAlive(); err != nil {
		return err
	}
	seg, ok := s.segs[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNoSuchSegment, id)
	}
	if offset > uint64(len(seg.Data)) || uint64(len(data)) > uint64(len(seg.Data))-offset {
		return fmt.Errorf("%w: write [%d,+%d) into %d-byte segment %d",
			ErrBadRange, offset, len(data), len(seg.Data), id)
	}
	copy(seg.Data[offset:], data)
	s.stats.WriteOps++
	s.stats.BytesWritten += uint64(len(data))
	return nil
}

// WriteBatch applies several writes atomically: every entry is validated
// against the live segment table before any byte moves, so a bad entry
// leaves the node's memory untouched.
func (s *Server) WriteBatch(entries []wire.BatchEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkAlive(); err != nil {
		return err
	}
	for i, e := range entries {
		seg, ok := s.segs[e.Seg]
		if !ok {
			return fmt.Errorf("%w: batch entry %d: id %d", ErrNoSuchSegment, i, e.Seg)
		}
		if e.Offset > uint64(len(seg.Data)) || uint64(len(e.Data)) > uint64(len(seg.Data))-e.Offset {
			return fmt.Errorf("%w: batch entry %d: [%d,+%d) into %d-byte segment %d",
				ErrBadRange, i, e.Offset, len(e.Data), len(seg.Data), e.Seg)
		}
	}
	for _, e := range entries {
		copy(s.segs[e.Seg].Data[e.Offset:], e.Data)
		s.stats.WriteOps++
		s.stats.BytesWritten += uint64(len(e.Data))
	}
	s.stats.BatchOps++
	return nil
}

// Fill zeroes n bytes of a segment starting at offset — a write whose
// payload never crosses the wire. Accounted as a write of n bytes so
// the node's byte counters still reflect the memory it touched.
func (s *Server) Fill(id uint32, offset, n uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkAlive(); err != nil {
		return err
	}
	seg, ok := s.segs[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNoSuchSegment, id)
	}
	if offset > uint64(len(seg.Data)) || n > uint64(len(seg.Data))-offset {
		return fmt.Errorf("%w: fill [%d,+%d) into %d-byte segment %d",
			ErrBadRange, offset, n, len(seg.Data), id)
	}
	zero := seg.Data[offset : offset+n]
	for i := range zero {
		zero[i] = 0
	}
	s.stats.WriteOps++
	s.stats.BytesWritten += n
	return nil
}

// Read copies n bytes out of a segment starting at offset.
func (s *Server) Read(id uint32, offset uint64, n uint32) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	seg, ok := s.segs[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchSegment, id)
	}
	if offset > uint64(len(seg.Data)) || uint64(n) > uint64(len(seg.Data))-offset {
		return nil, fmt.Errorf("%w: read [%d,+%d) from %d-byte segment %d",
			ErrBadRange, offset, n, len(seg.Data), id)
	}
	out := make([]byte, n)
	copy(out, seg.Data[offset:])
	s.stats.ReadOps++
	s.stats.BytesRead += uint64(n)
	return out, nil
}

// Connect looks up a named segment for a reconnecting client and takes
// one reference on it; Disconnect drops the reference.
func (s *Server) Connect(name string) (*Segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	id, ok := s.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchName, name)
	}
	seg := s.segs[id]
	seg.conns++
	s.stats.Connects++
	return seg, nil
}

// Disconnect drops one client reference taken by Connect. The segment
// itself stays exported — references only track who is attached, so
// tooling can tell an abandoned segment from a live one.
func (s *Server) Disconnect(id uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkAlive(); err != nil {
		return err
	}
	seg, ok := s.segs[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNoSuchSegment, id)
	}
	if seg.conns > 0 {
		seg.conns--
	}
	s.stats.Disconnects++
	return nil
}

// Get returns a live segment by id. Transports use this to map segment
// memory directly.
func (s *Server) Get(id uint32) (*Segment, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	seg, ok := s.segs[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchSegment, id)
	}
	return seg, nil
}

// List enumerates live segments ordered by id.
func (s *Server) List() []wire.SegmentInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]wire.SegmentInfo, 0, len(s.segs))
	for _, seg := range s.segs {
		out = append(out, wire.SegmentInfo{ID: seg.ID, Size: uint64(len(seg.Data)), Name: seg.Name, Conns: seg.conns})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// Held reports the bytes currently exported.
func (s *Server) Held() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.held
}

// Crash simulates the remote node losing power or halting: all exported
// segments vanish and every subsequent operation fails until Restart.
func (s *Server) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed = true
	s.segs = make(map[uint32]*Segment)
	s.byName = make(map[string]uint32)
	s.held = 0
}

// Restart brings a crashed server back with empty memory.
func (s *Server) Restart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed = false
}

// Crashed reports whether the server is down.
func (s *Server) Crashed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.crashed
}

// Partition simulates a network partition or OS hang: every subsequent
// operation — including health probes — fails until Heal, but exported
// memory survives. A failure detector cannot tell a partitioned node
// from a crashed one; only what happens after reintegration differs.
func (s *Server) Partition() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.partitioned = true
}

// Heal ends a partition; the node answers again with its memory intact.
func (s *Server) Heal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.partitioned = false
}

// Partitioned reports whether the server is unreachable but alive.
func (s *Server) Partitioned() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.partitioned
}

// Probe is the server half of the lightweight liveness probe a failure
// detector heartbeats with: it answers exactly when regular operations
// would, without touching the traffic counters.
func (s *Server) Probe() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.checkAlive()
}

func (s *Server) checkAlive() error {
	if s.crashed {
		return fmt.Errorf("memserver: node %s is down", s.nodeLabel)
	}
	if s.partitioned {
		return fmt.Errorf("memserver: node %s is unreachable", s.nodeLabel)
	}
	return nil
}

// Handle services one wire request, producing the matching response.
// Transport loops (TCP, in-process pipes) call this for every frame. It
// retains nothing of req: every payload is validated, then copied into
// its segment, before Handle returns — which is what lets a transport
// loop decode the next request over the same buffer.
func (s *Server) Handle(req *wire.Request) wire.Response {
	fail := func(err error) wire.Response {
		return wire.Response{Status: wire.StatusError, Err: err.Error()}
	}
	switch req.Op {
	case wire.OpMalloc:
		seg, err := s.Malloc(req.Name, req.Size)
		if err != nil {
			return fail(err)
		}
		return wire.Response{Status: wire.StatusOK, Seg: seg.ID, Size: uint64(len(seg.Data))}
	case wire.OpFree:
		if err := s.Free(req.Seg); err != nil {
			return fail(err)
		}
		return wire.Response{Status: wire.StatusOK}
	case wire.OpWrite:
		if err := s.Write(req.Seg, req.Offset, req.Data); err != nil {
			return fail(err)
		}
		return wire.Response{Status: wire.StatusOK}
	case wire.OpWriteBatch:
		if err := s.WriteBatch(req.Batch); err != nil {
			return fail(err)
		}
		return wire.Response{Status: wire.StatusOK}
	case wire.OpRead:
		data, err := s.Read(req.Seg, req.Offset, req.Length)
		if err != nil {
			return fail(err)
		}
		return wire.Response{Status: wire.StatusOK, Data: data}
	case wire.OpFill:
		if err := s.Fill(req.Seg, req.Offset, req.Size); err != nil {
			return fail(err)
		}
		return wire.Response{Status: wire.StatusOK}
	case wire.OpConnect:
		seg, err := s.Connect(req.Name)
		if err != nil {
			return fail(err)
		}
		return wire.Response{Status: wire.StatusOK, Seg: seg.ID, Size: uint64(len(seg.Data))}
	case wire.OpDisconnect:
		if err := s.Disconnect(req.Seg); err != nil {
			return fail(err)
		}
		return wire.Response{Status: wire.StatusOK}
	case wire.OpList:
		return wire.Response{Status: wire.StatusOK, Segments: s.List()}
	case wire.OpPing:
		if err := s.Probe(); err != nil {
			return fail(err)
		}
		return wire.Response{Status: wire.StatusOK}
	case wire.OpStats:
		st := s.Stats()
		return wire.Response{Status: wire.StatusOK, Stats: wire.ServerStats{
			Segments:     uint32(len(s.List())),
			BytesHeld:    s.Held(),
			WriteOps:     st.WriteOps,
			ReadOps:      st.ReadOps,
			BytesWritten: st.BytesWritten,
			BytesRead:    st.BytesRead,
			Mallocs:      st.Mallocs,
			Frees:        st.Frees,
			Connects:     st.Connects,
			Disconnects:  st.Disconnects,
			BatchOps:     st.BatchOps,
		}}
	default:
		return fail(fmt.Errorf("memserver: unknown op %v", req.Op))
	}
}
