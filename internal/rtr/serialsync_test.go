package rtr

import (
	"slices"
	"testing"
)

// TestFailedSerialSyncLeavesTheSessionAsItWas: an incremental response
// that does not reach End of Data must change nothing — not the table,
// not the serial, not the changed-prefix record — however far it got, so
// the serial the client holds still names the set it holds; where the
// connection survives, the next Poll asks from that serial.
func TestFailedSerialSyncLeavesTheSessionAsItWas(t *testing.T) {
	withdraw := &Prefix{Announce: false, VRP: v("10.0.0.0/8", 8, 1)}
	add := &Prefix{Announce: true, VRP: v("203.0.113.0/24", 24, 9)}
	cases := []struct {
		name     string
		reply    rawReply
		survives bool
	}{
		{"close before End of Data", rawReply{bytes: wire(&CacheResponse{SessionID: 9}, withdraw, add), hangup: true}, false},
		{"close after the first record", rawReply{bytes: wire(&CacheResponse{SessionID: 9}, withdraw), hangup: true}, false},
		{"close mid-record", rawReply{bytes: append(wire(&CacheResponse{SessionID: 9}, withdraw), add.SerializeTo(nil)[:13]...), hangup: true}, false},
		{"error report", rawReply{bytes: wire(&CacheResponse{SessionID: 9}, withdraw, add, &ErrorReport{Code: ErrInternal, Text: "boom"})}, true},
		{"unexpected PDU", rawReply{bytes: wire(&CacheResponse{SessionID: 9}, withdraw, add, &SerialQuery{SessionID: 9, Serial: 3})}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			control, controlScript, _ := primed(t)
			c, script, queries := primed(t)
			view := c.View()
			wantAll, wantSerial := control.View().All(), control.Serial()

			script <- tc.reply
			if err := c.Poll(); err == nil {
				t.Fatal("Poll succeeded on a response that never reached End of Data")
			}
			<-queries
			if got := c.View().All(); !slices.Equal(got, wantAll) {
				t.Errorf("table after the failed sync:\n got %v\nwant %v", got, wantAll)
			}
			if got := view.All(); !slices.Equal(got, wantAll) {
				t.Errorf("a View taken before the failed sync now lists %v, want %v", got, wantAll)
			}
			if c.Serial() != wantSerial || c.Len() != len(wantAll) {
				t.Errorf("Serial, Len = %d, %d; want %d, %d", c.Serial(), c.Len(), wantSerial, len(wantAll))
			}
			if tc.survives {
				next := rawReply{bytes: wire(&CacheResponse{SessionID: 9}, withdraw, add, &EndOfData{SessionID: 9, Serial: 3})}
				script <- next
				controlScript <- next
				if err := c.Poll(); err != nil {
					t.Fatalf("Poll after the failed sync: %v", err)
				}
				if err := control.Poll(); err != nil {
					t.Fatal(err)
				}
				if q, ok := (<-queries).(*SerialQuery); !ok || q.Serial != wantSerial || q.SessionID != 9 {
					t.Errorf("Poll after the failed sync sent %#v, want a Serial Query from session 9 serial %d", q, wantSerial)
				}
				if got, want := c.View().All(), control.View().All(); !slices.Equal(got, want) {
					t.Errorf("table after the following poll:\n got %v\nwant %v", got, want)
				}
				if c.Serial() != 3 {
					t.Errorf("Serial after the following poll = %d, want 3", c.Serial())
				}
			}
			if got, want := c.TakeDelta(), control.TakeDelta(); !slices.Equal(got, want) {
				t.Errorf("TakeDelta after the failed sync:\n got %v\nwant %v", got, want)
			}
		})
	}
}
