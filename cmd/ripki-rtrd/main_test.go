package main

import (
	"testing"

	"ripki/internal/obs"
	"ripki/internal/obs/obstest"
)

// TestMetricsListenerCutsSlowLoris: the -metrics side listener, served
// the way obs.StartHTTP serves it, drops a peer that never finishes its
// request header and keeps answering scrapes meanwhile.
func TestMetricsListenerCutsSlowLoris(t *testing.T) {
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)
	obstest.SlowLorisIsCutOff(t, obs.NewServer(metricsHandler(reg)), "/metrics")
}
