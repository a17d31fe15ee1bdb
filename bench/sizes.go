//go:build linux

package main

import "time"

// Workload sizes. They were calibrated once on the reference box
// (nproc = 2) and are frozen: a later PR that changes one changes what
// every earlier number meant. -smoke swaps in the small set, which only
// proves the harness still works.

// sweepSize is one sweep workload: a grid handed to ripki-sweep -grid.
type sweepSize struct {
	scenarios   []string
	replicates  int
	domains     int
	tick        time.Duration
	duration    time.Duration
	sampleEvery int
}

// runs is the number of simulations one sweep op executes.
func (s sweepSize) runs() int { return len(s.scenarios) * s.replicates }

// ticksPerRun is the number of ticks one run advances through.
func (s sweepSize) ticksPerRun() int { return int(s.duration / s.tick) }

// rowsPerRun is the number of probe samples one run records (a t=0
// baseline, then one every sampleEvery ticks).
func (s sweepSize) rowsPerRun() int { return s.ticksPerRun()/s.sampleEvery + 1 }

// serveSize is one serving workload: the daemon's world and VRP set,
// the request pools and the traffic shape.
type serveSize struct {
	domains      int
	vrps         int
	validateReqs int // distinct POST bodies in the pool
	domainReqs   int // Zipf draws in the pool
	routesPerReq int
	// baseRate is the open-loop arrival rate of the base phase, req/s.
	baseRate float64
	// ladder is the traced run's open-loop rate steps (serve-validate
	// only): 10 % spacing around the calibrated knee.
	ladder []float64
	// churnEvery and churnSize shape serve-churn's RTR updates: one
	// UpdateDelta per churnEvery with churnSize announces and as many
	// withdraws.
	churnEvery time.Duration
	churnSize  int
}

// All registered scenarios, so cdn-migration (the one DNS writer) is in.
var allScenarios = []string{
	"baseline", "cdn-migration", "delegated-ca-compromise", "hijack-window",
	"maxlen-misissuance", "roa-churn", "route-leak", "rp-lag", "rtr-restart",
	"trust-anchor-outage",
}

type sizes struct {
	sweepSetup sweepSize
	sweepTicks sweepSize
	serve      serveSize
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	// validity arms the load generator's validity rules (see runServe).
	validity bool
}

var fullSizes = sizes{
	// 40 runs of 4 ticks: world clone + sim.New + Close do the work.
	sweepSetup: sweepSize{
		scenarios: allScenarios, replicates: 4, domains: 20000,
		tick: 30 * time.Second, duration: 2 * time.Minute, sampleEvery: 2,
	},
	// 4 runs of 2 880 ticks: flush → RTR delta → revalidate → probe → fold.
	sweepTicks: sweepSize{
		scenarios:  []string{"hijack-window+roa-churn", "route-leak+rp-lag"},
		replicates: 2, domains: 20000,
		tick: 5 * time.Second, duration: 4 * time.Hour, sampleEvery: 2,
	},
	serve: serveSize{
		domains: 200000, vrps: 300000,
		validateReqs: 20000, domainReqs: 20000, routesPerReq: 8,
		baseRate:   2500,
		ladder:     []float64{4500, 4950, 5450, 6000, 6600, 7250, 8000, 8800},
		churnEvery: time.Second, churnSize: 8,
	},
	setups:   3,
	validity: true,
}

var smokeSizes = sizes{
	sweepSetup: sweepSize{
		scenarios: allScenarios, replicates: 1, domains: 2000,
		tick: 30 * time.Second, duration: 2 * time.Minute, sampleEvery: 2,
	},
	sweepTicks: sweepSize{
		scenarios:  []string{"hijack-window+roa-churn", "route-leak+rp-lag"},
		replicates: 1, domains: 2000,
		tick: 5 * time.Second, duration: 10 * time.Minute, sampleEvery: 2,
	},
	serve: serveSize{
		domains: 2000, vrps: 2000,
		validateReqs: 500, domainReqs: 500, routesPerReq: 8,
		baseRate:   300,
		ladder:     []float64{300, 400},
		churnEvery: 500 * time.Millisecond, churnSize: 4,
	},
	setups: 1,
}
