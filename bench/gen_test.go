//go:build linux

package main

import (
	"bytes"
	"math"
	"net/netip"
	"reflect"
	"testing"

	"ripki/internal/rpki/vrp"
)

// genAll renders every generated input of a seed as bytes.
func genAll(t *testing.T, seed int64) (csv, bodies, grid []byte, ranks []int, churn []churnDelta, routes []route) {
	t.Helper()
	vs := genVRPs(subStream(seed, streamVRPs), 3000)
	oracle, err := vrp.FromVRPs(vs)
	if err != nil {
		t.Fatalf("generated VRPs rejected by vrp.Set: %v", err)
	}
	routes = genRoutes(subStream(seed, streamRoutes), vs, oracle, 4000)
	for i := 0; i+8 <= len(routes); i += 8 {
		bodies = append(bodies, validateBody(routes[i:i+8])...)
	}
	return vrpCSV(vs), bodies, gridJSON(fullSizes.sweepSetup, seed),
		zipfRanks(subStream(seed, streamZipf), 5000, 2000),
		genChurn(subStream(seed, streamChurn), vs, 10, 8), routes
}

func TestSameSeedSameBytes(t *testing.T) {
	csvA, bodiesA, gridA, ranksA, churnA, _ := genAll(t, 7)
	csvB, bodiesB, gridB, ranksB, churnB, _ := genAll(t, 7)
	if !bytes.Equal(csvA, csvB) || !bytes.Equal(bodiesA, bodiesB) || !bytes.Equal(gridA, gridB) ||
		!reflect.DeepEqual(ranksA, ranksB) || !reflect.DeepEqual(churnA, churnB) {
		t.Fatal("the same seed generated different inputs")
	}
	csvC, bodiesC, gridC, ranksC, churnC, _ := genAll(t, 8)
	if bytes.Equal(csvA, csvC) || bytes.Equal(bodiesA, bodiesC) || bytes.Equal(gridA, gridC) ||
		reflect.DeepEqual(ranksA, ranksC) || reflect.DeepEqual(churnA, churnC) {
		t.Fatal("a second seed left a generated input unchanged")
	}
}

func TestCSVReadsBack(t *testing.T) {
	vs := genVRPs(subStream(3, streamVRPs), 3000)
	set, err := vrp.ReadCSV(bytes.NewReader(vrpCSV(vs)))
	if err != nil {
		t.Fatalf("vrp.ReadCSV rejects the generated CSV: %v", err)
	}
	if set.Len() != len(vs) {
		t.Fatalf("CSV holds %d distinct VRPs, generated %d", set.Len(), len(vs))
	}
}

func TestVerdictMix(t *testing.T) {
	_, _, _, _, _, routes := genAll(t, 11)
	var got [len(classShare)]float64
	for _, r := range routes {
		got[r.Class]++
	}
	for class, share := range classShare {
		if g := got[class] / float64(len(routes)); math.Abs(g-float64(share)/100) > 0.01 {
			t.Errorf("class %d is %.3f of the routes, want %.2f ± 0.01", class, g, float64(share)/100)
		}
	}
}

func TestRoutesParseAndValidate(t *testing.T) {
	vs := genVRPs(subStream(5, streamVRPs), 3000)
	oracle, _ := vrp.FromVRPs(vs)
	for _, r := range genRoutes(subStream(5, streamRoutes), vs, oracle, 4000) {
		p, err := netip.ParsePrefix(r.Prefix.String())
		if err != nil || p != r.Prefix {
			t.Fatalf("route %v does not survive netip.ParsePrefix: %v", r.Prefix, err)
		}
		if st := oracle.Validate(r.Prefix, r.ASN); st != r.Class.wantState() {
			t.Fatalf("route %v AS%d of class %d validates %v", r.Prefix, r.ASN, r.Class, st)
		}
	}
}

func TestZipfFavoursTheHead(t *testing.T) {
	ranks := zipfRanks(subStream(1, streamZipf), 1000, 20000)
	count := make([]int, 1000)
	for _, r := range ranks {
		if r < 0 || r >= 1000 {
			t.Fatalf("rank %d outside the population", r)
		}
		count[r]++
	}
	// Under Zipf(1.0) over 1 000 ranks the first holds 1/H(1000) ≈ 13 %.
	if share := float64(count[0]) / float64(len(ranks)); share < 0.11 || share > 0.16 {
		t.Errorf("rank 0 drew %.3f of the requests, want ≈ 0.13", share)
	}
	if count[0] <= count[9] || count[9] <= count[99] {
		t.Errorf("draws do not fall with rank: %d, %d, %d at ranks 0, 9, 99", count[0], count[9], count[99])
	}
}

func TestChurnChangesMembership(t *testing.T) {
	vs := genVRPs(subStream(2, streamVRPs), 3000)
	set, _ := vrp.FromVRPs(vs)
	for i, d := range genChurn(subStream(2, streamChurn), vs, 20, 8) {
		if len(d.Announce) != 8 || len(d.Withdraw) != 8 {
			t.Fatalf("delta %d has %d announces and %d withdraws", i, len(d.Announce), len(d.Withdraw))
		}
		for _, v := range d.Announce {
			if set.Contains(v) {
				t.Fatalf("delta %d announces %v, already present", i, v)
			}
			set.Add(v)
		}
		for _, v := range d.Withdraw {
			if !set.Remove(v) {
				t.Fatalf("delta %d withdraws %v, not present", i, v)
			}
		}
	}
}
