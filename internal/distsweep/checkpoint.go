package distsweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ripki/internal/sweep"
)

// journal is the coordinator's checkpoint: one file per completed cell,
// written tmp→fsync→rename→dir-sync so a record either exists whole or
// not at all. Every record is stamped with the plan hash and the
// execution mode; resume refuses records from a different grid or mode
// instead of assembling a chimera.
type journal struct {
	dir       string
	planHash  string
	streaming bool
}

// cellRecord is one journal file.
type cellRecord struct {
	PlanHash  string            `json:"plan_hash"`
	Streaming bool              `json:"streaming"`
	Partial   sweep.CellPartial `json:"partial"`
}

// openJournal creates (or reuses) the checkpoint directory.
func openJournal(dir, planHash string, streaming bool) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("distsweep: checkpoint dir: %w", err)
	}
	return &journal{dir: dir, planHash: planHash, streaming: streaming}, nil
}

// cellPath names a cell's record; zero-padding keeps directory listings
// in grid order for humans (load sorts by the parsed index regardless).
func (j *journal) cellPath(cell int) string {
	return filepath.Join(j.dir, fmt.Sprintf("cell-%06d.json", cell))
}

// write journals one completed cell durably: the record is fsynced
// before the rename and the directory fsynced after, so an ack sent
// once write returns is a promise a crash cannot take back.
func (j *journal) write(p *sweep.CellPartial) error {
	data, err := json.Marshal(cellRecord{PlanHash: j.planHash, Streaming: j.streaming, Partial: *p})
	if err != nil {
		return fmt.Errorf("distsweep: encoding checkpoint for cell %d: %w", p.Cell, err)
	}
	final := j.cellPath(p.Cell)
	tmp, err := os.CreateTemp(j.dir, fmt.Sprintf(".cell-%06d-*.tmp", p.Cell))
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	return syncDir(j.dir)
}

// load reads every complete record in the directory, verifying each
// against the plan hash and mode. Leftover .tmp files (a crash mid-
// write) are ignored: the cell they were for simply re-runs.
func (j *journal) load() (map[int]sweep.CellPartial, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if n := e.Name(); strings.HasPrefix(n, "cell-") && strings.HasSuffix(n, ".json") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make(map[int]sweep.CellPartial, len(names))
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(j.dir, name))
		if err != nil {
			return nil, err
		}
		var rec cellRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("distsweep: checkpoint %s: %w", name, err)
		}
		if rec.PlanHash != j.planHash {
			return nil, fmt.Errorf("distsweep: checkpoint %s was written for plan %.12s…, this sweep is plan %.12s… — refusing to mix grids", name, rec.PlanHash, j.planHash)
		}
		if rec.Streaming != j.streaming {
			return nil, fmt.Errorf("distsweep: checkpoint %s was written in %s mode, this sweep is %s", name, mode(rec.Streaming), mode(j.streaming))
		}
		if rec.Partial.Agg == nil {
			return nil, fmt.Errorf("distsweep: checkpoint %s holds cell %d as accumulator state, not an aggregate — a streaming journal written before protocol 2; delete the record to re-run the cell", name, rec.Partial.Cell)
		}
		out[rec.Partial.Cell] = rec.Partial
	}
	return out, nil
}

func mode(streaming bool) string {
	if streaming {
		return "streaming"
	}
	return "exact"
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
