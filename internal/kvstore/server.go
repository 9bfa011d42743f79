package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// Server serves the memcached text protocol over a packet connection
// the way memcached serves UDP — one datagram per command and one per
// response, each behind memcached's 8-byte frame header — as the
// paper's key-value client lambdas reach memcached on the master node
// (§6.1.2, §6.2b).
type Server struct {
	store *Store
	conn  net.PacketConn
	wg    sync.WaitGroup
	once  sync.Once
}

// NewServer starts serving the store on conn. The server owns conn.
func NewServer(store *Store, conn net.PacketConn) *Server {
	s := &Server{store: store, conn: conn}
	s.wg.Add(1)
	go s.loop()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() net.Addr { return s.conn.LocalAddr() }

// Close stops the server and waits for its goroutine.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		err = s.conn.Close()
		s.wg.Wait()
	})
	return err
}

// frameHeaderLen is memcached's UDP frame header: request ID, sequence
// number, datagram count and a reserved field, four big-endian uint16s.
// Commands and replies here are one datagram each (sequence 0 of 1).
const frameHeaderLen = 8

// putFrame appends the frame header of a one-datagram message.
func putFrame(b []byte, id uint16) []byte {
	return append(binary.BigEndian.AppendUint16(b, id), 0, 0, 0, 1, 0, 0)
}

func (s *Server) loop() {
	defer s.wg.Done()
	buf := make([]byte, 1<<20+1024)
	var out []byte
	for {
		n, from, err := s.conn.ReadFrom(buf)
		if err != nil {
			return
		}
		if n < frameHeaderLen {
			continue // not a framed command
		}
		resp := s.store.HandleCommand(buf[frameHeaderLen:n])
		out = append(putFrame(out[:0], binary.BigEndian.Uint16(buf)), resp...)
		if _, err := s.conn.WriteTo(out, from); err != nil {
			return
		}
	}
}

// replyTimeout is how long a Client waits for one attempt's reply.
const replyTimeout = 500 * time.Millisecond

// Client is a minimal memcached client over a packet connection. Each
// command carries a fresh request ID in its frame header; a command
// whose reply does not arrive within the timeout is sent once more (GET
// and SET are idempotent), and a reply to an earlier command arriving
// late is discarded by its ID, never taken for the current one's.
type Client struct {
	conn    net.PacketConn
	server  net.Addr
	timeout time.Duration // per attempt

	mu     sync.Mutex
	nextID uint16
	out    []byte // the framed command
	buf    []byte
}

// NewClient returns a client that sends commands from conn to server.
// The caller retains ownership of conn; the client sets its read
// deadline.
func NewClient(conn net.PacketConn, server net.Addr) *Client {
	return &Client{conn: conn, server: server, timeout: replyTimeout, buf: make([]byte, 1<<20+1024)}
}

func (c *Client) roundTrip(cmd []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := c.nextID
	c.out = append(putFrame(c.out[:0], id), cmd...)
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		if _, err = c.conn.WriteTo(c.out, c.server); err != nil {
			return nil, err
		}
		if err = c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, err
		}
		var n int
		for {
			if n, _, err = c.conn.ReadFrom(c.buf); err != nil {
				break
			}
			if n >= frameHeaderLen && binary.BigEndian.Uint16(c.buf) == id {
				out := make([]byte, n-frameHeaderLen)
				copy(out, c.buf[frameHeaderLen:n])
				return out, nil
			}
			// A reply to an earlier command, arriving after it gave up.
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("kvstore: no reply from %v in 2 × %v: %w", c.server, c.timeout, err)
}

// Set stores a value.
func (c *Client) Set(key string, flags uint32, value []byte) error {
	resp, err := c.roundTrip(BuildSet(key, flags, value))
	if err != nil {
		return err
	}
	if string(resp) != "STORED\r\n" {
		return &ProtocolError{Response: string(resp)}
	}
	return nil
}

// Get fetches a value; ok is false on miss.
func (c *Client) Get(key string) (value []byte, ok bool, err error) {
	resp, err := c.roundTrip(BuildGet(key))
	if err != nil {
		return nil, false, err
	}
	v, ok := ParseGetResponse(resp)
	return v, ok, nil
}

// ProtocolError is an unexpected server response.
type ProtocolError struct {
	Response string
}

func (e *ProtocolError) Error() string {
	return "kvstore: unexpected response: " + e.Response
}
