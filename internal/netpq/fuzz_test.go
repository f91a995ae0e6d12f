package netpq

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodeFrame pins the codec's safety contract: no byte sequence may
// make DecodeFrame panic, and anything it accepts must re-encode to the
// exact bytes it consumed (the codec is bijective on valid frames).
// Malformed length prefixes, truncated batches and oversized frames are
// all errors, never crashes — this is the boundary raw network input
// crosses first.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Op: OpHello, Req: 1, Count: Version, Payload: []byte("klsm128")}))
	f.Add(AppendFrame(nil, Frame{Op: OpInsert, Req: 2, Count: 1, Payload: make([]byte, KVLen)}))
	f.Add(AppendFrame(nil, Frame{Op: OpDeleteMin, Req: 3, Count: 8}))
	f.Add(AppendFrame(nil, Frame{Op: OpError, Req: 4, Count: ErrCodeQueue, Payload: []byte("no such queue")}))
	// Adversarial seeds: zero length, tiny length, huge length, bad version.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 8, 99, 2, 0, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < LenPrefixLen+HeaderLen || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if n > LenPrefixLen+MaxFrameLen {
			t.Fatalf("accepted frame of %d bytes, above max %d", n, LenPrefixLen+MaxFrameLen)
		}
		reenc := AppendFrame(nil, fr)
		if !bytes.Equal(reenc, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", reenc, data[:n])
		}

		// The streaming reader must agree with the buffer decoder on
		// every accepted frame.
		sf, rerr := NewFrameReader(bytes.NewReader(data[:n])).ReadFrame()
		if rerr != nil {
			t.Fatalf("ReadFrame rejects what DecodeFrame accepts: %v", rerr)
		}
		if sf.Op != fr.Op || sf.Req != fr.Req || sf.Count != fr.Count || !bytes.Equal(sf.Payload, fr.Payload) {
			t.Fatalf("ReadFrame decodes %+v, DecodeFrame %+v", sf, fr)
		}

		// A KV-bearing opcode's payload must decode or error, never panic,
		// whatever the count relation.
		if fr.Op == OpInsert || fr.Op == OpDeleteMin|RespBit {
			_, _ = DecodeKVs(fr.Payload, int(fr.Count), nil)
		}
	})
}

// FuzzReadFrame drives the streaming reader with raw bytes, cut into
// reads of fuzzed sizes: it must never panic, must yield exactly the
// frames that repeated DecodeFrame calls delimit out of the whole input,
// and must end with the error DecodeFrame gives for what is left — io.EOF
// for nothing, io.ErrUnexpectedEOF for a partial frame. Where the stream
// is cut changes nothing.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Op: OpPing, Req: 9, Payload: []byte("abc")}), uint16(1))
	f.Add([]byte{0, 0, 0, 7, 1}, uint16(3))
	f.Add(AppendFrame(AppendFrame(nil, Frame{Op: OpDeleteMin, Req: 1, Count: 8}),
		Frame{Op: OpInsert, Req: 2, Count: 1, Payload: make([]byte, KVLen)}), uint16(13))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		fr := NewFrameReader(&chunkReader{data: data, size: int(chunk%2048) + 1})
		rest := data
		for {
			got, gerr := fr.ReadFrame()
			want, n, werr := DecodeFrame(rest)
			if werr != nil {
				switch {
				case werr != ErrTruncated:
				case len(rest) == 0:
					werr = io.EOF
				default:
					werr = io.ErrUnexpectedEOF
				}
				if gerr == nil || gerr.Error() != werr.Error() {
					t.Fatalf("at offset %d: ReadFrame = %+v, %v; want error %v", len(data)-len(rest), got, gerr, werr)
				}
				return
			}
			if gerr != nil {
				t.Fatalf("at offset %d: ReadFrame rejects what DecodeFrame accepts: %v", len(data)-len(rest), gerr)
			}
			if got.Op != want.Op || got.Req != want.Req || got.Count != want.Count || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("at offset %d: ReadFrame decodes %+v, DecodeFrame %+v", len(data)-len(rest), got, want)
			}
			rest = rest[n:]
		}
	})
}
