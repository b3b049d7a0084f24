package server

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// frame prefixes payload with a header announcing n bytes.
func frame(n uint32, payload string) []byte {
	b := binary.BigEndian.AppendUint32(nil, n)
	return append(b, payload...)
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader, decoding them
// as both a Request (the server's side) and a Response (the client's).
// Invariants: no panics, and the bytes allocated stay bounded by a
// multiple of the input length plus a constant, whatever length the
// header claims: a peer that announces MaxFrame and hangs up must not
// cost MaxFrame. The seed corpus lives in testdata/fuzz/FuzzReadFrame.
func FuzzReadFrame(f *testing.F) {
	query := `{"op":"query","query":"query ans(x) :- e(x, y).","method":"stream"}`
	f.Add(frame(uint32(len(query)), query))
	f.Add(frame(MaxFrame, query))
	f.Add(frame(MaxFrame+1, ""))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const slack = 256 << 10
		limit := uint64(16*len(data) + slack)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var req Request
		ReadFrame(bytes.NewReader(data), &req)
		var resp Response
		ReadFrame(bytes.NewReader(data), &resp)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*limit {
			t.Fatalf("decoding a %d-byte input twice allocated %d bytes, over 2×%d", len(data), got, limit)
		}
	})
}
