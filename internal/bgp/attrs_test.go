package bgp

import "testing"

func TestOriginAS(t *testing.T) {
	cases := []struct {
		path []Segment
		want uint32
		ok   bool
	}{
		{nil, 0, false},
		{[]Segment{{Type: SegmentSequence, ASNs: []uint32{1, 2, 3}}}, 3, true},
		{[]Segment{{Type: SegmentSequence, ASNs: []uint32{1}}, {Type: SegmentSequence, ASNs: []uint32{9}}}, 9, true},
		{[]Segment{{Type: SegmentSet, ASNs: []uint32{1, 2}}}, 0, false},
		{[]Segment{{Type: SegmentSequence, ASNs: []uint32{64500}}, {Type: SegmentSet, ASNs: []uint32{3333, 3334}}}, 0, false},
		{[]Segment{{Type: SegmentSequence, ASNs: nil}}, 0, false},
	}
	for i, c := range cases {
		got, ok := OriginAS(c.path)
		if got != c.want || ok != c.ok {
			t.Errorf("case %d: OriginAS = %d,%v want %d,%v", i, got, ok, c.want, c.ok)
		}
	}
}
