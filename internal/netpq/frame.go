// Package netpq serves the registry queues over a socket: a binary
// length-prefixed frame protocol (PROTOCOL.md is the normative spec), a
// server that bridges connections onto pq.Pool-acquired handles, and a
// client library used by cmd/pqload and the order-book example.
//
// The design goal is that the batch-first API of DESIGN.md §4c survives the
// network boundary: one frame carries one batch, so an InsertN of width 8
// costs one length-prefixed write, one read, and one native batch call on
// the serving side — never eight request/response cycles. Pipelining (any
// number of request frames in flight per connection) amortizes the
// round-trip the same way batching amortizes synchronization.
//
// Framing (all integers big-endian):
//
//	+-----------+---------+--------+----------+-----------+----------+
//	| length u32| ver u8  | op u8  | reqid u32| count u16 | payload  |
//	+-----------+---------+--------+----------+-----------+----------+
//
// length counts everything after itself (HeaderLen + len(payload)).
// DecodeFrame and FrameReader validate length, version and payload shape
// and return typed errors — a malformed frame is an error, never a panic
// (FuzzDecodeFrame and FuzzReadFrame pin this).
package netpq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cpq/internal/pq"
)

// Protocol constants. Version 1 fixes the limits below; a server refuses
// frames carrying any other version byte with ErrCodeVersion.
const (
	// Version is the protocol version this package speaks. It is the one
	// knob reserved for incompatible evolution: a frame's second-layer
	// byte names the version its header and payload follow.
	Version = 1

	// LenPrefixLen is the size of the length prefix itself.
	LenPrefixLen = 4
	// HeaderLen is the fixed header after the length prefix:
	// version(1) + opcode(1) + reqid(4) + count(2).
	HeaderLen = 8

	// KVLen is the wire size of one key-value pair: two uint64s.
	KVLen = 16
	// MaxBatch caps the batch count of Insert and DeleteMin frames. One
	// frame is one batch; 1024 pairs keeps the largest frame at 16 KiB of
	// payload while comfortably exceeding every realized batch width the
	// substrates exploit (DESIGN.md §4c measures widths 8..64).
	MaxBatch = 1024
	// MaxPayload is the largest legal payload (an Insert or Items frame of
	// MaxBatch pairs).
	MaxPayload = MaxBatch * KVLen
	// MaxFrameLen is the largest legal value of the length prefix.
	MaxFrameLen = HeaderLen + MaxPayload
	// MaxPing caps a Ping echo payload.
	MaxPing = 64
	// MaxQueueID caps the Hello queue-identifier payload.
	MaxQueueID = 128
)

// Request opcodes. A response carries the request's opcode with RespBit
// set; OpError is the error response to any request.
const (
	// OpHello opens a session: payload is the queue identifier
	// ("spec" or "spec#instance", empty = server default), count is the
	// highest protocol version the client speaks.
	OpHello byte = 0x01
	// OpInsert carries a batch of count key-value pairs to insert.
	OpInsert byte = 0x02
	// OpDeleteMin requests up to count smallest items; payload is empty.
	OpDeleteMin byte = 0x03
	// OpPing requests an echo of its (≤ MaxPing bytes) payload.
	OpPing byte = 0x04
	// OpStats requests the server's connection/frame counters.
	OpStats byte = 0x05

	// RespBit marks a response frame: response opcode = request | RespBit.
	RespBit byte = 0x80
	// OpError is the error response; count is an ErrCode* value and the
	// payload a human-readable UTF-8 message.
	OpError byte = 0xFF
)

// Error codes carried in an OpError frame's count field. PROTOCOL.md
// specifies which codes terminate the connection.
const (
	// ErrCodeVersion: unsupported version byte (fatal).
	ErrCodeVersion uint16 = 1
	// ErrCodeOpcode: unknown request opcode (non-fatal; the frame was
	// delimited, so the stream stays decodable).
	ErrCodeOpcode uint16 = 2
	// ErrCodeMalformed: header/payload inconsistency inside a delimited
	// frame, e.g. an Insert whose payload is not count·16 bytes
	// (non-fatal) or a length prefix below HeaderLen (fatal — the stream
	// can no longer be delimited).
	ErrCodeMalformed uint16 = 3
	// ErrCodeTooLarge: length prefix above MaxFrameLen (fatal; the prefix
	// cannot be trusted as a skip distance).
	ErrCodeTooLarge uint16 = 4
	// ErrCodeBadBatch: Insert/DeleteMin count outside [1, MaxBatch]
	// (non-fatal).
	ErrCodeBadBatch uint16 = 5
	// ErrCodeQueue: Hello named a queue the registry cannot construct or
	// the server does not serve (non-fatal; the client may retry Hello).
	ErrCodeQueue uint16 = 6
	// ErrCodeState: an operation before a successful Hello, or a second
	// Hello (fatal).
	ErrCodeState uint16 = 7
	// ErrCodeShutdown: the server is draining connections (fatal).
	ErrCodeShutdown uint16 = 8
)

// Decode errors. FrameReader.ReadFrame and DecodeFrame return these
// (possibly wrapped); the server's dispatch maps them onto error frames.
var (
	// ErrTruncated: the buffer ends before the frame does (DecodeFrame
	// only; a streaming reader treats it as "need more bytes").
	ErrTruncated = errors.New("netpq: truncated frame")
	// ErrFrameTooSmall: length prefix below HeaderLen.
	ErrFrameTooSmall = errors.New("netpq: length prefix below header size")
	// ErrFrameTooLarge: length prefix above MaxFrameLen.
	ErrFrameTooLarge = errors.New("netpq: length prefix above maximum frame size")
	// ErrBadVersion: version byte differs from Version.
	ErrBadVersion = errors.New("netpq: unsupported protocol version")
)

// Frame is one decoded protocol frame. Payload aliases the decode buffer
// (DecodeFrame) or the reader's buffer (FrameReader.ReadFrame); it is
// valid until that buffer is reused.
type Frame struct {
	Op      byte
	Req     uint32
	Count   uint16
	Payload []byte
}

// AppendFrame appends the complete wire encoding of f (length prefix,
// header, payload) to dst and returns the extended slice. It does not
// validate payload size against opcode semantics — encoders own that —
// but panics if the payload alone exceeds MaxPayload, which is always a
// caller bug rather than remote input.
func AppendFrame(dst []byte, f Frame) []byte {
	if len(f.Payload) > MaxPayload {
		panic(fmt.Sprintf("netpq: oversized payload %d", len(f.Payload)))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(HeaderLen+len(f.Payload)))
	dst = append(dst, Version, f.Op)
	dst = binary.BigEndian.AppendUint32(dst, f.Req)
	dst = binary.BigEndian.AppendUint16(dst, f.Count)
	return append(dst, f.Payload...)
}

// DecodeFrame parses one frame from the front of buf. On success it
// returns the frame (Payload aliasing buf) and the total bytes consumed.
// Errors are ErrTruncated (buf ends mid-frame), ErrFrameTooSmall,
// ErrFrameTooLarge, or ErrBadVersion; no input can make it panic. Each
// violation is reported as soon as the bytes that show it are in buf —
// the length prefix, then the version byte — so a streaming reader fails
// a bad frame without waiting for the rest of it.
func DecodeFrame(buf []byte) (Frame, int, error) {
	if len(buf) < LenPrefixLen {
		return Frame{}, 0, ErrTruncated
	}
	length := binary.BigEndian.Uint32(buf)
	switch {
	case length < HeaderLen:
		return Frame{}, 0, ErrFrameTooSmall
	case length > MaxFrameLen:
		return Frame{}, 0, ErrFrameTooLarge
	}
	if len(buf) > 4 && buf[4] != Version {
		return Frame{}, 0, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, buf[4], Version)
	}
	total := LenPrefixLen + int(length)
	if len(buf) < total {
		return Frame{}, 0, ErrTruncated
	}
	f := Frame{
		Op:    buf[5],
		Req:   binary.BigEndian.Uint32(buf[6:]),
		Count: binary.BigEndian.Uint16(buf[10:]),
	}
	if payload := buf[LenPrefixLen+HeaderLen : total]; len(payload) > 0 {
		f.Payload = payload
	}
	return f, total, nil
}

// readBufferLen is the size of a FrameReader's buffer: room for a whole
// pipelined burst of small frames, and always for at least one frame of
// the largest legal size, so a frame never has to be read in pieces.
const readBufferLen = 64 << 10

// FrameReader delimits frames out of a byte stream. It reads into one
// buffer as much as the stream has ready and decodes every complete
// frame in it in place, so a pipelined burst of frames costs one Read
// call on the stream, and no payload is copied out of the buffer.
type FrameReader struct {
	r          io.Reader
	buf        []byte
	start, end int   // buf[start:end] holds bytes read but not yet decoded
	err        error // the stream's error, returned once buf has no frame left
}

// NewFrameReader returns a reader of the frames on r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, readBufferLen)}
}

// ReadFrame returns the next frame. Its Payload aliases the reader's
// buffer and is valid until the next call. The error is io.EOF exactly
// when the stream ends cleanly between frames; a stream ending inside a
// frame is io.ErrUnexpectedEOF. Length-prefix and version violations
// return DecodeFrame's typed errors as soon as the offending bytes
// arrive; the stream can then no longer be delimited, so the connection
// must be torn down and the reader not used again.
func (fr *FrameReader) ReadFrame() (Frame, error) {
	for {
		f, n, err := DecodeFrame(fr.buf[fr.start:fr.end])
		if err == nil {
			fr.start += n
			return f, nil
		}
		if err != ErrTruncated {
			return Frame{}, err
		}
		if fr.err != nil {
			if fr.err == io.EOF && fr.start < fr.end {
				return Frame{}, io.ErrUnexpectedEOF
			}
			return Frame{}, fr.err
		}
		// Slide the partial frame to the front; the frames before it are
		// spent. It fits with room to spare: DecodeFrame bounded its
		// length, and the buffer holds a frame of the largest length.
		fr.end = copy(fr.buf, fr.buf[fr.start:fr.end])
		fr.start = 0
		n, fr.err = fr.r.Read(fr.buf[fr.end:])
		fr.end += n
	}
}

// Buffered reports whether ReadFrame would return without reading the
// stream: a whole frame, a framing error or the stream's end is already
// in hand. When it is false the next ReadFrame reads, and that read may
// block.
func (fr *FrameReader) Buffered() bool {
	_, _, err := DecodeFrame(fr.buf[fr.start:fr.end])
	return err != ErrTruncated || fr.err != nil
}

// AppendKVs appends the wire encoding of kvs (16 bytes per pair, key then
// value, big-endian) to dst.
func AppendKVs(dst []byte, kvs []pq.KV) []byte {
	for _, kv := range kvs {
		dst = binary.BigEndian.AppendUint64(dst, kv.Key)
		dst = binary.BigEndian.AppendUint64(dst, kv.Value)
	}
	return dst
}

// DecodeKVs decodes a KV payload into dst (grown as needed) and returns
// the filled prefix. The payload must be exactly count·KVLen bytes.
func DecodeKVs(payload []byte, count int, dst []pq.KV) ([]pq.KV, error) {
	if len(payload) != count*KVLen {
		return nil, fmt.Errorf("netpq: kv payload is %d bytes, want %d·%d", len(payload), count, KVLen)
	}
	if cap(dst) < count {
		dst = make([]pq.KV, count)
	}
	dst = dst[:count]
	for i := range dst {
		dst[i].Key = binary.BigEndian.Uint64(payload[i*KVLen:])
		dst[i].Value = binary.BigEndian.Uint64(payload[i*KVLen+8:])
	}
	return dst, nil
}

// ErrCodeName names an error code for logs and error strings.
func ErrCodeName(code uint16) string {
	switch code {
	case ErrCodeVersion:
		return "version"
	case ErrCodeOpcode:
		return "opcode"
	case ErrCodeMalformed:
		return "malformed"
	case ErrCodeTooLarge:
		return "too-large"
	case ErrCodeBadBatch:
		return "bad-batch"
	case ErrCodeQueue:
		return "queue"
	case ErrCodeState:
		return "state"
	case ErrCodeShutdown:
		return "shutdown"
	default:
		return fmt.Sprintf("code-%d", code)
	}
}

// ServerError is a decoded OpError frame, returned by the client when the
// server answered a request with an error instead of a result.
type ServerError struct {
	Code uint16
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("netpq: server error %s: %s", ErrCodeName(e.Code), e.Msg)
}

// Fatal reports whether the protocol requires the server to close the
// connection after this error (PROTOCOL.md "Error handling").
func (e *ServerError) Fatal() bool {
	switch e.Code {
	case ErrCodeVersion, ErrCodeTooLarge, ErrCodeState, ErrCodeShutdown:
		return true
	case ErrCodeMalformed:
		// Only the undelimitable form (length prefix below header size)
		// is fatal; the server encodes that case by closing right after
		// the frame, which the client observes as EOF.
		return false
	default:
		return false
	}
}
