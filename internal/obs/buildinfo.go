package obs

import "runtime"

// Version identifies the build on every daemon's /metrics. It is "dev"
// for plain `go build`; release and CI builds stamp it:
//
//	go build -ldflags "-X ripki/internal/obs.Version=v1.2.3" ./cmd/...
var Version = "dev"

// RegisterBuildInfo adds the conventional build-identity gauge to r: a
// constant-1 `ripki_build_info` sample whose labels carry the stamped
// version and the Go runtime that built the binary. Dashboards join it
// against any other series to annotate deploys.
func RegisterBuildInfo(r *Registry) {
	r.Collect(func(e *Encoder) {
		e.Family("ripki_build_info", "Build identity: constant 1, labelled by stamped version and Go runtime.", TypeGauge)
		e.Sample("", []Label{{Name: "version", Value: Version}, {Name: "go_version", Value: runtime.Version()}}, 1)
	})
}
