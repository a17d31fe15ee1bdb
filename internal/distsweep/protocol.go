// Package distsweep shards one expanded sweep plan across processes:
// a coordinator leases contiguous cell ranges to workers over a
// length-prefixed JSON protocol, workers run their leases with the
// ordinary sweep pool (shared worlds, streaming, the lot) and stream
// back per-cell partials, and the coordinator places every partial at
// its grid position — so TSV and JSON output is byte-identical to a
// single-process run at any worker count, any lease size, and across
// kill-and-resume (see docs/sweep.md, "Distributed sweeps").
//
// The determinism argument is structural, not numerical: leases are
// whole cells, every replicate of a cell runs on one worker, which
// folds them in replicate order and renders the cell's aggregate
// exactly like a local sweep, and that aggregate round-trips the wire
// exactly (stats.Summary marshals every bit). The coordinator never
// merges anything — it only places cells and runs at the indices the
// plan assigns them.
package distsweep

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"ripki/internal/sweep"
)

// protocolVersion gates the wire format. A coordinator and worker with
// different versions refuse to exchange leases: silently mismatched
// framing would corrupt results, loudly mismatched versions just ask
// the operator to rebuild one side. Version 2: a partial is a rendered
// aggregate in both modes (version 1 shipped streaming cells as
// accumulator state).
const protocolVersion = 2

// maxFrame bounds a frame's payload. A partial carries seven numbers
// per (tick, metric) of its cell, so the cap is generous; anything
// beyond it is a framing error, not a real partial.
const maxFrame = 1 << 30

// frameChunk is the most readFrame allocates on the strength of a
// frame's header alone, and the step it reads a longer frame in.
const frameChunk = 1 << 20

// Frame types. The conversation is strictly worker-driven
// request/response: hello → hello, lease → lease|done, partial → ack.
const (
	frameHello   = "hello"   // worker→coord greeting; coord→worker reply carries the grid
	frameLease   = "lease"   // worker→coord request; coord→worker grant (Count=0 never granted)
	framePartial = "partial" // worker→coord one completed cell
	frameAck     = "ack"     // coord→worker: the partial is durable (fsynced when checkpointing)
	frameDone    = "done"    // coord→worker: no work left, disconnect cleanly
	frameError   = "error"   // either direction: fatal protocol-level refusal
)

// frame is every message on the wire; Type selects which fields are
// meaningful. Ints deliberately carry no omitempty — a lease for cell 0
// must look like one.
type frame struct {
	Type    string `json:"type"`
	Version int    `json:"version,omitempty"`
	// Hello reply: the grid (in the ParseGrid schema), the execution
	// mode, and the coordinator's plan hash. The worker re-expands the
	// grid itself and refuses the session if its own hash differs.
	Grid      json.RawMessage `json:"grid,omitempty"`
	Streaming bool            `json:"streaming,omitempty"`
	PlanHash  string          `json:"plan_hash,omitempty"`
	// Lease grant: the contiguous cell range [First, First+Count).
	First int `json:"first"`
	Count int `json:"count"`
	// Partial and its ack.
	Cell    int                `json:"cell"`
	Partial *sweep.CellPartial `json:"partial,omitempty"`
	// Error refusal.
	Err string `json:"error,omitempty"`
}

// writeFrame emits one length-prefixed frame: uint32 big-endian payload
// length, then the JSON payload.
func writeFrame(w io.Writer, f *frame) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("distsweep: encoding %s frame: %w", f.Type, err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame. An Err-carrying frame is
// returned as a Go error: refusals terminate the session either way.
func readFrame(r *bufio.Reader) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("distsweep: frame of %d bytes exceeds the %d-byte cap", n, maxFrame)
	}
	// The length is the peer's claim, so memory follows the bytes that
	// arrive: the buffer starts at no more than one chunk and grows only
	// as chunks fill.
	payload := make([]byte, 0, min(n, frameChunk))
	for uint32(len(payload)) < n {
		next := int(min(n-uint32(len(payload)), frameChunk))
		payload = slices.Grow(payload, next)[:len(payload)+next]
		if _, err := io.ReadFull(r, payload[len(payload)-next:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised these bytes
			}
			return nil, err
		}
	}
	var f frame
	if err := json.Unmarshal(payload, &f); err != nil {
		return nil, fmt.Errorf("distsweep: decoding frame: %w", err)
	}
	if f.Type == frameError {
		return nil, fmt.Errorf("distsweep: peer refused: %s", f.Err)
	}
	return &f, nil
}

// refuse sends a best-effort error frame before hanging up.
func refuse(w io.Writer, format string, args ...any) {
	_ = writeFrame(w, &frame{Type: frameError, Err: fmt.Sprintf(format, args...)})
}
