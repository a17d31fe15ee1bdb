package sweep

import (
	"bytes"
	"context"
	"runtime"
	"testing"
)

// TestWorldShardingInvariantOutput is the end-to-end property behind
// webworld's interned, sharded representation: a composed grid renders
// byte-identical sweep output whether its worlds were generated on one
// shard or many. Shard count follows GOMAXPROCS (the cache key ignores
// it — see worldKey), so pinning GOMAXPROCS exercises the sequential
// and the parallel generator through the full sim/sweep pipeline.
func TestWorldShardingInvariantOutput(t *testing.T) {
	render := func(procs int) []byte {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := run(context.Background(), composedGrid(), Options{Workers: 2, ShareWorlds: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, rr := range res.Runs {
			if rr.Err != "" {
				t.Fatalf("run failed: %s", rr.Err)
			}
		}
		var buf bytes.Buffer
		if err := res.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sequential := render(1)
	parallel := render(4)
	if !bytes.Equal(sequential, parallel) {
		t.Fatal("sweep output differs between 1-shard and 4-shard world generation")
	}
}
