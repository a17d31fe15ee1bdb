package distsweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
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

// fuzzJournalCell and fuzzJournalPlan name the one record FuzzJournalLoad
// reads: the cell its file is named for and the plan its journal is
// for. The committed seeds were journaled under the same two.
const (
	fuzzJournalCell = 1
	fuzzJournalPlan = "fuzz-journal-plan"
)

// FuzzJournalLoad: a restarted coordinator reads back whatever its
// checkpoint directory holds — a record cut short by a full disk,
// edited by hand, copied from another sweep — so load must refuse or
// accept a record of any bytes, never panic. A record it accepts, in
// either mode, is written again by write and loads back unchanged, as
// compared by its encoding (a summary's NaN is not equal to itself).
// The input is the file cell-000001.json; the seeds under
// testdata/fuzz/FuzzJournalLoad are what write made of real exact and
// streaming partials of cell 1, plus misfiled, foreign, pre-protocol-2
// and torn records.
func FuzzJournalLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := &journal{dir: dir, planHash: fuzzJournalPlan}
		if err := os.WriteFile(in.cellPath(fuzzJournalCell), data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, streaming := range []bool{false, true} {
			in.streaming = streaming
			got, err := in.load()
			if err != nil {
				continue
			}
			p, ok := got[fuzzJournalCell]
			if len(got) != 1 || !ok {
				t.Fatalf("one record of cell %d loaded as %d cells: %v", fuzzJournalCell, len(got), got)
			}
			out := &journal{dir: t.TempDir(), planHash: fuzzJournalPlan, streaming: streaming}
			if err := out.write(&p); err != nil {
				t.Fatalf("write refuses a record load accepted: %v", err)
			}
			back, err := out.load()
			if err != nil {
				t.Fatalf("load refuses what write made of a record it accepted: %v", err)
			}
			once, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			twice, err := json.Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(once, twice) {
				t.Fatalf("record changed through write and load\nloaded:  %s\nwritten: %s", once, twice)
			}
		}
	})
}
