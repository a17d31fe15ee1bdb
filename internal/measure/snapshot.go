package measure

// ExposureSnapshot condenses a Dataset into the handful of exposure
// numbers a time series samples every tick: the mean per-domain RFC 6811
// state probabilities, RPKI coverage, and the rank-bucketed protection
// split the paper's figures revolve around (popular head vs long tail).
// The JSON form is the "exposure" object of ripki-served's /v1/snapshot.
type ExposureSnapshot struct {
	// Domains is how many domains contributed (usable www variants).
	Domains int `json:"domains"`
	// Valid, Invalid, NotFound are the mean per-domain state
	// probabilities over the www variant (Figure 2's series).
	Valid    float64 `json:"valid"`
	Invalid  float64 `json:"invalid"`
	NotFound float64 `json:"notfound"`
	// Coverage is the mean probability of being RPKI-covered at all
	// (valid or invalid — Figure 4's "RPKI-enabled").
	Coverage float64 `json:"coverage"`
	// HeadValid and TailValid split Valid at the head cutoff rank,
	// exposing the paper's tragedy: the head (popular, CDN-hosted) sits
	// below the tail.
	HeadValid float64 `json:"head_valid"`
	TailValid float64 `json:"tail_valid"`
}

// HeadCut is the default head/tail split for a population whose
// highest rank is maxRank: the top tenth is the head, never empty.
func HeadCut(maxRank int) int { return max(maxRank/10, 1) }

// ExposureAccumulator folds per-domain pair counts into an
// ExposureSnapshot. Set HeadCut (the last head rank, inclusive), Add
// every domain's www variant in a fixed order, then read Snapshot: the
// floating-point sums are order-dependent, and every caller walking the
// population in rank order is what makes their answers bit-identical.
type ExposureAccumulator struct {
	HeadCut int

	sum          ExposureSnapshot
	headN, tailN int
}

// Add folds in one domain's www variant: its rank and how many of its
// distinct (prefix, origin) pairs validate valid and invalid. A domain
// without pairs (unresolved, excluded, unreachable) does not contribute.
func (a *ExposureAccumulator) Add(rank, validPairs, invalidPairs, pairs int) {
	if pairs == 0 {
		return
	}
	valid, invalid, notFound, coverage := StateMix(validPairs, invalidPairs, pairs)
	a.sum.Domains++
	a.sum.Valid += valid
	a.sum.Invalid += invalid
	a.sum.NotFound += notFound
	a.sum.Coverage += coverage
	if rank <= a.HeadCut {
		a.sum.HeadValid += valid
		a.headN++
	} else {
		a.sum.TailValid += valid
		a.tailN++
	}
}

// Snapshot returns the means over everything added so far.
func (a *ExposureAccumulator) Snapshot() ExposureSnapshot {
	snap := a.sum
	if snap.Domains > 0 {
		n := float64(snap.Domains)
		snap.Valid /= n
		snap.Invalid /= n
		snap.NotFound /= n
		snap.Coverage /= n
	}
	if a.headN > 0 {
		snap.HeadValid /= float64(a.headN)
	}
	if a.tailN > 0 {
		snap.TailValid /= float64(a.tailN)
	}
	return snap
}

// Snapshot computes the exposure summary of a dataset. headCut is the
// rank (inclusive) separating the popular head from the tail; zero
// defaults to HeadCut of the measured population's highest rank.
func Snapshot(ds *Dataset, headCut int) ExposureSnapshot {
	if headCut <= 0 {
		maxRank := 0
		for i := range ds.Results {
			maxRank = max(maxRank, ds.Results[i].Rank)
		}
		headCut = HeadCut(maxRank)
	}
	acc := ExposureAccumulator{HeadCut: headCut}
	for i := range ds.Results {
		r := &ds.Results[i]
		acc.Add(r.Rank, r.WWW.ValidPairs, r.WWW.InvalidPairs, r.WWW.Pairs)
	}
	return acc.Snapshot()
}
