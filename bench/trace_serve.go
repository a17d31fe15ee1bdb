//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"ripki/internal/rpki/vrp"
	"ripki/internal/rtr"
	"ripki/internal/serve"
	"ripki/internal/webworld"
)

// allocsOf reports the mean heap allocations per call of fn over n
// calls. Nothing else runs in the bench while it is measured.
func allocsOf(n int, fn func(i int)) (perCall time.Duration, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d / time.Duration(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// traceServe is the in-process half of a serving workload's traced run:
// the bench builds the same world, table and index the daemon builds,
// each step a span, then times the read path layer by layer on the
// generated requests — index walk, ValidateRoute, handler into a
// recorder, one loopback connection. On serve-churn it also follows an
// RTR cache the way Service.RunRTR does and times each publish.
func traceServe(ctx context.Context, e *env, name string, churn bool, in *serveInputs, seed int64, rep *report) error {
	m := rep.metrics
	tr := newTracer()
	root := tr.begin("serve.startup", 0, -1)

	var world *webworld.World
	var table *serve.DomainTable
	var set *vrp.Set
	var ix *vrp.Index
	var err error
	tr.timed("webworld.generate", root, -1, func() {
		world, err = webworld.Generate(webworld.Config{Seed: seed, Domains: in.size.domains})
	})
	if err != nil {
		return err
	}
	tr.timed("serve.build_domain_table", root, -1, func() { table, err = serve.BuildDomainTable(world) })
	if err != nil {
		return err
	}
	tr.timed("vrp.read_csv", root, -1, func() {
		var f *os.File
		if f, err = os.Open(in.csvPath); err == nil {
			set, err = vrp.ReadCSV(f)
			f.Close()
		}
	})
	if err != nil {
		return err
	}
	svc := serve.New(table)
	tr.timed("serve.startup_publish", root, -1, func() { _, err = svc.PublishSet(set, "csv", 0) })
	if err != nil {
		return err
	}
	startup := tr.end(root)
	all := set.All()
	tr.timed("vrp.new_index", 0, -1, func() { ix, err = vrp.NewIndex(all) })
	if err != nil {
		return err
	}

	// The read path, innermost layer first, on the generated requests.
	snap := svc.Current()
	var routes []route
	for _, b := range in.batches {
		routes = append(routes, b...)
	}
	wrong := 0
	perIndex := timeN(1, func() {
		for _, r := range routes {
			if st, _ := ix.ValidateExplain(r.Prefix, r.ASN); st != r.Class.wantState() {
				wrong++
			}
		}
	})
	rep.check(wrong == 0, "vrp.Index disagrees with the generated verdict on %d of %d routes", wrong, len(routes))
	m["vrp.index_validate_ns"] = float64(perIndex) / float64(len(routes))
	perRoute, routeAllocs := allocsOf(len(routes), func(i int) { snap.ValidateRoute(routes[i].Prefix, routes[i].ASN) })
	m["serve.validate_route_ns"] = float64(perRoute)
	m["serve.validate_route_allocs"] = routeAllocs

	handler := svc.Handler()
	n := min(2000, len(in.validate))
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		body := validateBody(in.batches[i])
		reqs[i] = httptest.NewRequest("POST", "/v1/validate", bytes.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	perHandler, handlerAllocs := allocsOf(n, func(i int) { handler.ServeHTTP(recs[i], reqs[i]) })
	bytesOut := 0
	for _, rec := range recs {
		rep.check(rec.Code == 200, "handler answered %d to a generated validate request", rec.Code)
		bytesOut += rec.Body.Len()
	}
	m["serve.handler_validate_us"] = us(perHandler)
	m["serve.handler_validate_allocs"] = handlerAllocs
	m["serve.response_bytes"] = float64(bytesOut) / float64(n)

	names := make([]string, 0, n)
	for _, l := range table.Listing(in.size.domains, 0) {
		names = append(names, l.Name)
	}
	found := 0
	m["serve.domain_verdict_us"] = us(timeN(1, func() {
		for i := 0; i < n; i++ {
			if _, ok := snap.Domain(names[in.ranks[i%len(in.ranks)]]); ok {
				found++
			}
		}
	})) / float64(n)
	rep.check(found == n, "Snapshot.Domain found %d of %d generated names", found, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest("GET", "/v1/domain/"+names[in.ranks[i%len(in.ranks)]], nil)
		recs[i] = httptest.NewRecorder()
	}
	perDomain, _ := allocsOf(n, func(i int) { handler.ServeHTTP(recs[i], reqs[i]) })
	m["serve.handler_domain_us"] = us(perDomain)

	// One loopback connection, closed loop: handler plus transport.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	c, err := dial(ln.Addr().String())
	if err == nil {
		lat := make([]float64, 0, n)
		for i := 0; i < n+200; i++ {
			t0 := time.Now()
			status, _, derr := c.do(in.validate[i%len(in.validate)].raw)
			if derr != nil || status != 200 {
				err = fmt.Errorf("loopback validate: status %d: %v", status, derr)
				break
			}
			if i >= 200 { // the first 200 warm the connection and the caches
				lat = append(lat, us(time.Since(t0)))
			}
		}
		c.close()
		m["serve.loopback_validate_us"] = median(lat)
	}
	srv.Close()
	<-served
	if err != nil {
		return err
	}

	if churn {
		if err := traceChurn(tr, svc, set, in, m); err != nil {
			return err
		}
	}

	path, err := tr.write(e, name)
	if err != nil {
		return err
	}
	self, _, count := tr.selfTimes()
	m["webworld.generate_s"] = self["webworld.generate"].Seconds()
	m["serve.build_domain_table_s"] = self["serve.build_domain_table"].Seconds()
	m["vrp.read_csv_ms"] = ms(self["vrp.read_csv"])
	m["vrp.new_index_ms"] = ms(self["vrp.new_index"])
	rep.note("trace written to %s (%d spans)", path, len(tr.spans))
	rep.note("in-process start-up %.3f s: generate %.3f, table %.3f, read_csv %.3f, first publish %.3f",
		startup.Seconds(), self["webworld.generate"].Seconds(), self["serve.build_domain_table"].Seconds(),
		self["vrp.read_csv"].Seconds(), self["serve.startup_publish"].Seconds())
	rep.note("validate request: handler %.1f µs = 8 × validate_route %.2f µs + decode/encode %.1f µs; loopback adds %.1f µs of transport",
		m["serve.handler_validate_us"], m["serve.validate_route_ns"]/1000,
		m["serve.handler_validate_us"]-8*m["serve.validate_route_ns"]/1000,
		m["serve.loopback_validate_us"]-m["serve.handler_validate_us"])
	rep.note("serve.publish spans: %d", count["serve.publish"])
	return nil
}

// traceChurn follows a bench-hosted RTR cache as Service.RunRTR does —
// reset, then notify → poll → Client.Set → PublishSet per update — with
// each step a span.
func traceChurn(tr *tracer, svc *serve.Service, set *vrp.Set, in *serveInputs, m map[string]float64) error {
	cache, err := startRTRCache(set, 1)
	if err != nil {
		return err
	}
	defer cache.stop()
	client, err := rtr.Dial(cache.addr)
	if err != nil {
		return err
	}
	defer client.Close()
	root := tr.begin("serve.rtr_follow", 0, -1)
	tr.timed("rtr.reset", root, -1, func() { err = client.Reset() })
	if err != nil {
		return err
	}
	rounds := min(3, len(in.churn))
	for i := 0; i < rounds; i++ {
		cache.UpdateDelta(in.churn[i].Announce, in.churn[i].Withdraw)
		tr.timed("rtr.delta_poll", root, i, func() {
			if _, err = client.WaitNotify(); err == nil {
				err = client.Poll()
			}
		})
		if err != nil {
			return err
		}
		var cur *vrp.Set
		tr.timed("rtr.client_set", root, i, func() { cur = client.Set() })
		tr.timed("serve.publish", root, i, func() { _, err = svc.PublishSet(cur, "rtr", client.Serial()) })
		if err != nil {
			return err
		}
	}
	tr.end(root)
	self, _, count := tr.selfTimes()
	m["rtr.reset_ms"] = ms(self["rtr.reset"])
	m["rtr.client_set_ms"] = ms(self["rtr.client_set"]) / float64(count["rtr.client_set"])
	m["serve.publish_ms"] = ms(self["serve.publish"]) / float64(count["serve.publish"])
	m["rtr.delta_poll_us"] = us(self["rtr.delta_poll"]) / float64(count["rtr.delta_poll"])
	return nil
}
