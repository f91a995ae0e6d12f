// Client: the netpq protocol from the connecting side. One Client is one
// connection and, like a pq.Handle, is owned by one goroutine; a load
// generator opens N clients for N connections.
//
// Two calling styles share the connection state:
//
//   - Synchronous: InsertN / DeleteMinN / Ping / Stats send one request
//     and block for its response — simple, one round-trip per call.
//   - Pipelined: Start* methods enqueue requests without waiting and
//     Recv consumes responses in order; the caller keeps a fixed number
//     in flight. Responses arrive strictly in request order (the server
//     guarantees per-connection FIFO), so correlation is positional —
//     the echoed request id is a cross-check, not a lookup key.
//
// Buffered writes are explicit: Start* methods buffer, Flush pushes the
// bytes to the socket. Recv flushes automatically before blocking, so a
// send-then-recv loop cannot deadlock on its own buffered requests.
// Responses are read through a FrameReader, the server's read path: a
// burst of responses is one read and is decoded in place.
package netpq

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"cpq/internal/pq"
)

// Client is one protocol connection. Not safe for concurrent use.
type Client struct {
	nc    net.Conn
	fr    *FrameReader
	bw    *bufio.Writer
	req   uint32
	queue string // canonical queue id from HelloOK

	enc  []byte // encode scratch
	resp Frame  // the last response; its payload aliases fr's buffer until next Recv
	kvs  []pq.KV
}

// Resp is one decoded response. KVs aliases client-owned scratch and is
// valid until the next Recv (or synchronous call) on the same client.
type Resp struct {
	Op    byte
	Req   uint32
	Count int
	KVs   []pq.KV
	// Err is the decoded error frame when the server answered this
	// request with OpError; the connection survives unless Err.Fatal().
	Err *ServerError
}

// Dial connects to a pqd server and performs the Hello handshake for
// queueID ("spec" or "spec#instance"; "" selects the server default).
func Dial(addr, queueID string) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(nc, queueID)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// NewClient performs the Hello handshake over an existing connection and
// takes ownership of it on success.
func NewClient(nc net.Conn, queueID string) (*Client, error) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &Client{
		nc: nc,
		fr: NewFrameReader(nc),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}
	if len(queueID) > MaxQueueID {
		return nil, fmt.Errorf("netpq: queue id %q above %d bytes", queueID, MaxQueueID)
	}
	if err := c.sendFrame(Frame{Op: OpHello, Req: c.nextReq(), Count: Version, Payload: []byte(queueID)}); err != nil {
		return nil, err
	}
	r, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if r.Err != nil {
		return nil, r.Err
	}
	if r.Op != OpHello|RespBit {
		return nil, fmt.Errorf("netpq: Hello answered with opcode %#02x", r.Op)
	}
	c.queue = string(c.resp.Payload)
	return c, nil
}

// QueueName returns the canonical queue id from the Hello handshake,
// e.g. "klsm4096" or "linden#bids".
func (c *Client) QueueName() string { return c.queue }

// Close terminates the connection.
func (c *Client) Close() error { return c.nc.Close() }

func (c *Client) nextReq() uint32 {
	c.req++
	return c.req
}

func (c *Client) sendFrame(f Frame) error {
	if err := c.writeFrame(f); err != nil {
		return err
	}
	return c.Flush()
}

func (c *Client) writeFrame(f Frame) error {
	c.enc = AppendFrame(c.enc[:0], f)
	_, err := c.bw.Write(c.enc)
	return err
}

// Flush pushes buffered request frames to the socket.
func (c *Client) Flush() error { return c.bw.Flush() }

// StartInsertN enqueues (without flushing) an insert of kvs — one frame,
// one batch — and returns its request id. len(kvs) must be in
// [1, MaxBatch].
func (c *Client) StartInsertN(kvs []pq.KV) (uint32, error) {
	if len(kvs) < 1 || len(kvs) > MaxBatch {
		return 0, fmt.Errorf("netpq: insert batch %d outside [1,%d]", len(kvs), MaxBatch)
	}
	req := c.nextReq()
	c.enc = AppendFrame(c.enc[:0], Frame{Op: OpInsert, Req: req, Count: uint16(len(kvs))})
	c.enc = AppendKVs(c.enc, kvs)
	putFrameLen(c.enc, HeaderLen+len(kvs)*KVLen)
	_, err := c.bw.Write(c.enc)
	return req, err
}

// StartDeleteMinN enqueues (without flushing) a delete of up to n items.
func (c *Client) StartDeleteMinN(n int) (uint32, error) {
	if n < 1 || n > MaxBatch {
		return 0, fmt.Errorf("netpq: delete batch %d outside [1,%d]", n, MaxBatch)
	}
	req := c.nextReq()
	return req, c.writeFrame(Frame{Op: OpDeleteMin, Req: req, Count: uint16(n)})
}

// Recv flushes buffered requests and blocks for the next response frame.
// A server-reported error is returned inside Resp.Err (the connection
// stays usable unless Err.Fatal()); the error return is for transport
// failures only.
func (c *Client) Recv() (Resp, error) {
	if c.bw.Buffered() > 0 {
		if err := c.bw.Flush(); err != nil {
			return Resp{}, err
		}
	}
	var err error
	if c.resp, err = c.fr.ReadFrame(); err != nil {
		return Resp{}, err
	}
	r := Resp{Op: c.resp.Op, Req: c.resp.Req, Count: int(c.resp.Count)}
	switch c.resp.Op {
	case OpError:
		r.Err = &ServerError{Code: c.resp.Count, Msg: string(c.resp.Payload)}
	case OpDeleteMin | RespBit:
		kvs, err := DecodeKVs(c.resp.Payload, int(c.resp.Count), c.kvs)
		if err != nil {
			return Resp{}, err
		}
		c.kvs = kvs
		r.KVs = kvs
	}
	return r, nil
}

// InsertN synchronously inserts kvs as one batch frame.
func (c *Client) InsertN(kvs []pq.KV) error {
	if _, err := c.StartInsertN(kvs); err != nil {
		return err
	}
	r, err := c.Recv()
	if err != nil {
		return err
	}
	if r.Err != nil {
		return r.Err
	}
	if r.Op != OpInsert|RespBit {
		return fmt.Errorf("netpq: insert answered with opcode %#02x", r.Op)
	}
	return nil
}

// Insert synchronously inserts one pair.
func (c *Client) Insert(key, value uint64) error {
	return c.InsertN([]pq.KV{{Key: key, Value: value}})
}

// DeleteMinN synchronously removes up to n items into a prefix of dst
// and returns how many were removed; like pq.DeleteMinN, a short return
// means the queue appeared empty. dst must hold at least n items.
func (c *Client) DeleteMinN(dst []pq.KV, n int) (int, error) {
	if n > len(dst) {
		n = len(dst)
	}
	if _, err := c.StartDeleteMinN(n); err != nil {
		return 0, err
	}
	r, err := c.Recv()
	if err != nil {
		return 0, err
	}
	if r.Err != nil {
		return 0, r.Err
	}
	if r.Op != OpDeleteMin|RespBit {
		return 0, fmt.Errorf("netpq: delete answered with opcode %#02x", r.Op)
	}
	return copy(dst[:n], r.KVs), nil
}

// DeleteMin synchronously removes one item.
func (c *Client) DeleteMin() (key, value uint64, ok bool, err error) {
	var one [1]pq.KV
	got, err := c.DeleteMinN(one[:], 1)
	if err != nil || got == 0 {
		return 0, 0, false, err
	}
	return one[0].Key, one[0].Value, true, nil
}

// Ping round-trips an opaque payload (≤ MaxPing bytes) and reports the
// round-trip time.
func (c *Client) Ping(payload []byte) (time.Duration, error) {
	start := time.Now()
	if err := c.sendFrame(Frame{Op: OpPing, Req: c.nextReq(), Payload: payload}); err != nil {
		return 0, err
	}
	r, err := c.Recv()
	if err != nil {
		return 0, err
	}
	if r.Err != nil {
		return 0, r.Err
	}
	if r.Op != OpPing|RespBit {
		return 0, fmt.Errorf("netpq: ping answered with opcode %#02x", r.Op)
	}
	return time.Since(start), nil
}

// Stats fetches the server's cumulative connection/frame counters.
func (c *Client) Stats() (Stats, error) {
	if err := c.sendFrame(Frame{Op: OpStats, Req: c.nextReq()}); err != nil {
		return Stats{}, err
	}
	r, err := c.Recv()
	if err != nil {
		return Stats{}, err
	}
	if r.Err != nil {
		return Stats{}, r.Err
	}
	if r.Op != OpStats|RespBit || r.Count != statsWords || len(c.resp.Payload) != statsWords*8 {
		return Stats{}, fmt.Errorf("netpq: malformed stats response")
	}
	w := func(i int) uint64 {
		p := c.resp.Payload[i*8:]
		return uint64(p[0])<<56 | uint64(p[1])<<48 | uint64(p[2])<<40 | uint64(p[3])<<32 |
			uint64(p[4])<<24 | uint64(p[5])<<16 | uint64(p[6])<<8 | uint64(p[7])
	}
	return Stats{
		ConnsOpened: w(0), ConnsActive: w(1),
		FramesIn: w(2), FramesOut: w(3),
		ItemsIn: w(4), ItemsOut: w(5),
		WriteStalls: w(6), Drops: w(7),
	}, nil
}
