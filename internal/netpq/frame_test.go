package netpq

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"cpq/internal/pq"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Op: OpHello, Req: 1, Count: Version, Payload: []byte("klsm4096")},
		{Op: OpInsert, Req: 0xdeadbeef, Count: 2, Payload: AppendKVs(nil, []pq.KV{{Key: 1, Value: 2}, {Key: 3, Value: 4}})},
		{Op: OpDeleteMin, Req: 7, Count: 8},
		{Op: OpPing, Req: 0},
		{Op: OpError, Req: 42, Count: ErrCodeBadBatch, Payload: []byte("nope")},
		{Op: OpInsert, Req: 1, Count: MaxBatch, Payload: make([]byte, MaxPayload)},
	}
	for _, want := range cases {
		wire := AppendFrame(nil, want)
		got, n, err := DecodeFrame(wire)
		if err != nil {
			t.Fatalf("DecodeFrame(%#02x): %v", want.Op, err)
		}
		if n != len(wire) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(wire))
		}
		if got.Op != want.Op || got.Req != want.Req || got.Count != want.Count || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
		}

		// The streaming reader must agree with the buffer decoder.
		f, err := readOne(wire)
		if err != nil {
			t.Fatalf("ReadFrame(%#02x): %v", want.Op, err)
		}
		if f.Op != want.Op || f.Req != want.Req || f.Count != want.Count || !bytes.Equal(f.Payload, want.Payload) {
			t.Fatalf("ReadFrame mismatch: got %+v want %+v", f, want)
		}
	}
}

func TestDecodeFrameConcatenated(t *testing.T) {
	a := Frame{Op: OpInsert, Req: 1, Count: 1, Payload: AppendKVs(nil, []pq.KV{{Key: 9, Value: 9}})}
	b := Frame{Op: OpDeleteMin, Req: 2, Count: 4}
	wire := AppendFrame(AppendFrame(nil, a), b)
	got1, n1, err := DecodeFrame(wire)
	if err != nil || got1.Op != OpInsert {
		t.Fatalf("first frame: %+v, %v", got1, err)
	}
	got2, n2, err := DecodeFrame(wire[n1:])
	if err != nil || got2.Op != OpDeleteMin || got2.Count != 4 {
		t.Fatalf("second frame: %+v, %v", got2, err)
	}
	if n1+n2 != len(wire) {
		t.Fatalf("consumed %d+%d of %d", n1, n2, len(wire))
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	valid := AppendFrame(nil, Frame{Op: OpPing, Req: 1, Payload: []byte("x")})

	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut++ {
			if _, _, err := DecodeFrame(valid[:cut]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
			}
		}
	})
	t.Run("length below header", func(t *testing.T) {
		wire := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(wire, HeaderLen-1)
		if _, _, err := DecodeFrame(wire); !errors.Is(err, ErrFrameTooSmall) {
			t.Fatalf("err = %v, want ErrFrameTooSmall", err)
		}
		if _, err := readOne(wire); !errors.Is(err, ErrFrameTooSmall) {
			t.Fatalf("ReadFrame err = %v, want ErrFrameTooSmall", err)
		}
	})
	t.Run("length above max", func(t *testing.T) {
		wire := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(wire, MaxFrameLen+1)
		if _, _, err := DecodeFrame(wire); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
		if _, err := readOne(wire); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("ReadFrame err = %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		wire := append([]byte(nil), valid...)
		wire[4] = Version + 1
		if _, _, err := DecodeFrame(wire); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v, want ErrBadVersion", err)
		}
		if _, err := readOne(wire); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("ReadFrame err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("stream ends mid frame", func(t *testing.T) {
		_, err := readOne(valid[:len(valid)-1])
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("clean eof between frames", func(t *testing.T) {
		if _, err := readOne(nil); err != io.EOF {
			t.Fatalf("err = %v, want io.EOF", err)
		}
	})
}

func TestKVCodec(t *testing.T) {
	kvs := []pq.KV{{Key: 0, Value: ^uint64(0)}, {Key: 1 << 40, Value: 7}, {Key: 5, Value: 5}}
	payload := AppendKVs(nil, kvs)
	if len(payload) != len(kvs)*KVLen {
		t.Fatalf("payload %d bytes, want %d", len(payload), len(kvs)*KVLen)
	}
	got, err := DecodeKVs(payload, len(kvs), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range kvs {
		if got[i] != kvs[i] {
			t.Fatalf("kv %d: got %+v want %+v", i, got[i], kvs[i])
		}
	}
	if _, err := DecodeKVs(payload, len(kvs)+1, nil); err == nil {
		t.Fatal("count/payload mismatch not rejected")
	}
	if _, err := DecodeKVs(payload[:len(payload)-1], len(kvs), nil); err == nil {
		t.Fatal("truncated payload not rejected")
	}
}

// TestReadFrameReusesPayload pins the zero-copy contract: a frame's
// payload is decoded in place in the reader's buffer, and reading a
// stream of frames allocates nothing per frame.
func TestReadFrameReusesPayload(t *testing.T) {
	frame := AppendFrame(nil, Frame{Op: OpInsert, Req: 1, Count: 4, Payload: make([]byte, 4*KVLen)})
	src := &loopReader{data: frame}
	fr := NewFrameReader(src)
	f, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	buf := fr.buf[:cap(fr.buf)]
	if p := &f.Payload[0]; p != &buf[LenPrefixLen+HeaderLen] {
		t.Fatal("payload was copied out of the read buffer")
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ReadFrame allocates %.1f times per frame, want 0", allocs)
	}
}

// loopReader repeats data forever and fills every Read, so reads end
// mid-frame and the reader has to slide partial frames.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], l.data[l.off:])
		n += c
		l.off = (l.off + c) % len(l.data)
	}
	return n, nil
}

// countReader counts the Read calls made on r.
type countReader struct {
	r     io.Reader
	reads int
}

func (c *countReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// readOne reads the first frame of wire through a FrameReader.
func readOne(wire []byte) (Frame, error) {
	return NewFrameReader(bytes.NewReader(wire)).ReadFrame()
}

// burst returns n pipelined request frames, alternating insert and
// delete batches of width 8 as a pipelining client sends them.
func burst(n int) ([]Frame, []byte) {
	frames := make([]Frame, n)
	var wire []byte
	for i := range frames {
		f := Frame{Op: OpDeleteMin, Req: uint32(i), Count: 8}
		if i%2 == 0 {
			kvs := make([]pq.KV, 8)
			for j := range kvs {
				kvs[j] = pq.KV{Key: uint64(i*8 + j), Value: uint64(i)}
			}
			f = Frame{Op: OpInsert, Req: uint32(i), Count: 8, Payload: AppendKVs(nil, kvs)}
		}
		frames[i] = f
		wire = AppendFrame(wire, f)
	}
	return frames, wire
}

// readAll reads frames from fr until an error, checking each against want.
func readAll(t *testing.T, fr *FrameReader, want []Frame) error {
	t.Helper()
	for i := 0; ; i++ {
		f, err := fr.ReadFrame()
		if err != nil {
			if i != len(want) && err == io.EOF {
				t.Fatalf("EOF after %d of %d frames", i, len(want))
			}
			return err
		}
		if i >= len(want) {
			t.Fatalf("frame %d beyond the %d written", i, len(want))
		}
		w := want[i]
		if f.Op != w.Op || f.Req != w.Req || f.Count != w.Count || !bytes.Equal(f.Payload, w.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, f, w)
		}
	}
}

// TestFrameReaderOneReadPerBurst pins the point of the reader: a
// pipelined burst that has fully arrived is delimited out of one Read.
func TestFrameReaderOneReadPerBurst(t *testing.T) {
	frames, wire := burst(32)
	cr := &countReader{r: bytes.NewReader(wire)}
	if err := readAll(t, NewFrameReader(cr), frames); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	// One Read returns the burst, one more reports the end of the stream.
	if cr.reads != 2 {
		t.Fatalf("%d reads for a 32-frame burst, want 2", cr.reads)
	}

	// Buffered is false exactly before the ReadFrame calls that read: the
	// first, and the one after the burst's last frame.
	cr = &countReader{r: bytes.NewReader(wire)}
	fr := NewFrameReader(cr)
	for i := 0; ; i++ {
		buffered, before := fr.Buffered(), cr.reads
		_, err := fr.ReadFrame()
		if read := cr.reads > before; read == buffered {
			t.Fatalf("call %d: Buffered() = %v but ReadFrame read = %v", i, buffered, read)
		}
		if err != nil {
			if err != io.EOF || i != len(frames) {
				t.Fatalf("call %d: err = %v, want io.EOF after %d frames", i, err, len(frames))
			}
			break
		}
	}
}

// TestFrameReaderSplitStream feeds the same frames through readers that
// cut the stream at every position a socket can: byte by byte, in halves,
// with the last bytes and io.EOF in one call, and in chunks that end
// mid-frame right before a frame of the largest legal size.
func TestFrameReaderSplitStream(t *testing.T) {
	frames, wire := burst(40)
	big := Frame{Op: OpInsert, Req: 99, Count: MaxBatch, Payload: bytes.Repeat([]byte{7}, MaxPayload)}
	frames = append(frames, big)
	wire = AppendFrame(wire, big)
	more, tail := burst(2000)
	frames = append(frames, more...)
	wire = append(wire, tail...)
	if len(wire) < 2*readBufferLen {
		t.Fatalf("stream of %d bytes does not wrap the %d-byte buffer", len(wire), readBufferLen)
	}
	for name, r := range map[string]io.Reader{
		"one byte":     iotest.OneByteReader(bytes.NewReader(wire)),
		"half":         iotest.HalfReader(bytes.NewReader(wire)),
		"data and eof": iotest.DataErrReader(bytes.NewReader(wire)),
		"odd chunks":   &chunkReader{data: wire, size: 16411},
	} {
		t.Run(name, func(t *testing.T) {
			if err := readAll(t, NewFrameReader(r), frames); err != io.EOF {
				t.Fatalf("err = %v, want io.EOF", err)
			}
		})
	}
}

// chunkReader returns data in Reads of at most size bytes.
type chunkReader struct {
	data []byte
	size int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.size)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// TestFrameReaderFailsEarly pins that a bad length prefix or version
// byte fails the read as soon as it arrives, without waiting for bytes
// the peer never sends: the server answers the error frame at once.
func TestFrameReaderFailsEarly(t *testing.T) {
	valid := AppendFrame(nil, Frame{Op: OpPing, Req: 1, Payload: []byte("x")})
	for _, tc := range []struct {
		name   string
		prefix []byte
		want   error
	}{
		{"length below header", []byte{0, 0, 0, HeaderLen - 1}, ErrFrameTooSmall},
		{"length above max", binary.BigEndian.AppendUint32(nil, MaxFrameLen+1), ErrFrameTooLarge},
		{"bad version", append(valid[:LenPrefixLen:LenPrefixLen], Version+1), ErrBadVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			defer server.Close()
			go client.Write(tc.prefix)
			server.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := NewFrameReader(server).ReadFrame(); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestErrCodeNames(t *testing.T) {
	for code := uint16(1); code <= 8; code++ {
		if name := ErrCodeName(code); name == "" || strings.HasPrefix(name, "code-") {
			t.Fatalf("code %d has no name", code)
		}
	}
	if name := ErrCodeName(200); name != "code-200" {
		t.Fatalf("unknown code name = %q", name)
	}
}
