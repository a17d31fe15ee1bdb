package distsweep

import (
	"bufio"
	"bytes"
	"runtime"
	"testing"
)

// FuzzReadFrame: a coordinator and its workers hand each other's bytes
// to readFrame, so whatever arrives — a length field that lies, a
// payload cut short, JSON of any shape — must be refused or decoded,
// never a panic. What it decodes, written again, reads back to a frame
// that writes the same bytes. And since the length is the peer's claim,
// memory follows the bytes that arrive: decoding costs at most one
// frameChunk plus a constant multiple of the input. The seeds are the
// committed corpus under testdata/fuzz/FuzzReadFrame: real hello,
// lease, partial, ack, done and error frames as writeFrame encodes
// them.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bufio.NewReader(bytes.NewReader(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readFrame(in)
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(frameChunk+4096+256*len(data)); alloc > bound {
			t.Fatalf("reading %d bytes allocated %d bytes, more than %d", len(data), alloc, bound)
		}
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := writeFrame(&once, got); err != nil {
			t.Fatalf("writeFrame refuses a frame readFrame decoded: %v\n%+v", err, got)
		}
		back, err := readFrame(bufio.NewReader(bytes.NewReader(once.Bytes())))
		if err != nil {
			t.Fatalf("readFrame rejects writeFrame's output: %v\n%q", err, once.Bytes())
		}
		if err := writeFrame(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("written frame is not a fixed point\nonce:  %q\ntwice: %q", once.Bytes(), twice.Bytes())
		}
	})
}
