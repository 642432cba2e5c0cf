package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

const (
	// readBufSize is a connection's initial receive buffer: what one
	// read(2) can return, and therefore the most a frame read into its
	// own destination has to copy out of the buffer first.
	readBufSize = 4 << 10
	// maxConnBuf bounds what a connection keeps between frames. An
	// encode buffer that grew past it is dropped after the write; a
	// frame that large is received into an allocation of its own.
	maxConnBuf = 1 << 20
)

// Conn is the codec of one connection: every frame that crosses a
// socket in this program is written and read by one. See the package
// doc for what a frame costs and how long a received message is valid.
//
// The two halves are independent: one goroutine may send while another
// receives, but each half serves one goroutine at a time.
type Conn struct {
	r io.Reader
	w io.Writer

	// Send half. wbuf is the encode buffer, length prefix first; g holds
	// the payloads left out of it and bufs the iovec list one writev
	// takes. bufs is a field because WriteTo's receiver escapes; iov is
	// its backing array, which WriteTo consumes bufs out of.
	wbuf []byte
	g    gather
	iov  [][]byte
	bufs net.Buffers

	// Receive half. rbuf[rpos:rend] has been read and not yet consumed —
	// the rest of the current frame or the start of the next ones. It
	// belongs to the connection, not to a call, so pooling a connection
	// or pipelining on it never loses bytes read ahead.
	rbuf       []byte
	rpos, rend int
}

// NewConn returns the codec for rw. Buffers are allocated on first use.
func NewConn(rw io.ReadWriter) *Conn { return &Conn{r: rw, w: rw} }

// SendRequest frames and writes a request. The request's payloads are
// read until SendRequest returns and not retained.
func (c *Conn) SendRequest(req *Request) error {
	b, err := appendRequest(append(c.wbuf[:0], 0, 0, 0, 0), req, &c.g)
	return c.flush(b, err)
}

// SendResponse frames and writes a response, like SendRequest.
func (c *Conn) SendResponse(resp *Response) error {
	b, err := appendResponse(append(c.wbuf[:0], 0, 0, 0, 0), resp, &c.g)
	return c.flush(b, err)
}

// flush writes the frame encoded into b (4 bytes reserved for the
// length, then the body less the gathered payloads) and forgets the
// payloads.
func (c *Conn) flush(b []byte, err error) error {
	if err == nil {
		err = c.write(b)
	}
	clear(c.g.cuts)
	c.g.cuts = c.g.cuts[:0]
	return err
}

// write is one Write, or one writev with each gathered payload as its
// own element. net.Buffers falls back to one Write per element on
// anything but a socket.
func (c *Conn) write(b []byte) error {
	if cap(b) <= maxConnBuf {
		c.wbuf = b[:0]
	} else {
		c.wbuf = nil
	}
	n := len(b) - 4
	for _, ct := range c.g.cuts {
		n += len(ct.p)
	}
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	var err error
	if len(c.g.cuts) == 0 {
		_, err = c.w.Write(b)
	} else {
		iov, at := c.iov[:0], 0
		for _, ct := range c.g.cuts {
			iov = append(iov, b[at:ct.at], ct.p)
			at = ct.at
		}
		if at < len(b) {
			iov = append(iov, b[at:])
		}
		c.iov, c.bufs = iov, iov
		_, err = c.bufs.WriteTo(c.w)
		clear(iov)
	}
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// RecvRequest reads one request and decodes it in place: req.Data and
// every req.Batch[i].Data alias the connection's receive buffer and are
// valid until the next Recv call on c. req's Batch slice is reused.
func (c *Conn) RecvRequest(req *Request) error {
	body, err := c.readFrame(false)
	if err != nil {
		return err
	}
	return req.decode(body)
}

// RecvRequestOwned is RecvRequest for a request that outlives the next
// Recv call: its payloads alias one allocation made for this frame.
func (c *Conn) RecvRequestOwned(req *Request) error {
	body, err := c.readFrame(true)
	if err != nil {
		return err
	}
	return req.decode(body)
}

// RecvResponse reads one response and decodes it in place: resp.Data
// aliases the connection's receive buffer and is valid until the next
// Recv call on c.
func (c *Conn) RecvResponse(resp *Response) error {
	body, err := c.readFrame(false)
	if err != nil {
		return err
	}
	return resp.decode(body)
}

// RecvResponseOwned is RecvResponse for a response that outlives the
// next Recv call: resp.Data aliases one allocation made for this frame.
func (c *Conn) RecvResponseOwned(resp *Response) error {
	body, err := c.readFrame(true)
	if err != nil {
		return err
	}
	return resp.decode(body)
}

// readFrame returns the next frame's body: in the receive buffer, valid
// until the next call, or — when the caller owns it, or it is too large
// to keep a buffer for — in a fresh allocation that whatever the buffer
// already holds of it is copied into and the rest is read into directly.
// It returns io.EOF bare when the stream ends between frames.
func (c *Conn) readFrame(own bool) ([]byte, error) {
	if err := c.fill(4); err != nil {
		if err == io.EOF && c.rpos == c.rend {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read frame header: %w", unexpected(err))
	}
	n := int(binary.BigEndian.Uint32(c.rbuf[c.rpos:]))
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	c.rpos += 4
	if !own && n <= maxConnBuf {
		if err := c.fill(n); err != nil {
			return nil, fmt.Errorf("wire: read frame body: %w", unexpected(err))
		}
		body := c.rbuf[c.rpos : c.rpos+n : c.rpos+n]
		c.rpos += n
		return body, nil
	}
	body := make([]byte, n)
	k := copy(body, c.rbuf[c.rpos:c.rend])
	c.rpos += k
	if _, err := io.ReadFull(c.r, body[k:]); err != nil {
		return nil, fmt.Errorf("wire: read frame body: %w", unexpected(err))
	}
	return body, nil
}

// fill makes rbuf[rpos:rend] hold at least need bytes. It asks the
// stream for as much as the buffer has room for, so that one read(2)
// brings a frame's header and body — and whatever follows — together.
func (c *Conn) fill(need int) error {
	have := c.rend - c.rpos
	if have >= need {
		return nil
	}
	if have == 0 {
		c.rpos, c.rend = 0, 0
	}
	if c.rpos+need > len(c.rbuf) {
		// Move the unread bytes to the front of a buffer that fits.
		dst := c.rbuf
		if need > len(dst) {
			dst = make([]byte, min(max(need, 2*len(dst), readBufSize), maxConnBuf))
		}
		copy(dst, c.rbuf[c.rpos:c.rend])
		c.rbuf, c.rpos, c.rend = dst, 0, have
	}
	n, err := io.ReadAtLeast(c.r, c.rbuf[c.rend:], need-have)
	c.rend += n
	return err
}

// unexpected turns an EOF in the middle of a frame into the error it is.
func unexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
