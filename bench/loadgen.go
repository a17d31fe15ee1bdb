//go:build linux

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The bench carries its own load generator: it needs a controlled
// verdict mix, at most nproc connections, and the response bytes for
// the oracles. Each sender owns one keep-alive connection and writes
// pre-built request bytes, so the generator's own cost per request is a
// write, a header parse and a body read.

type reqKind uint8

const (
	kindValidate reqKind = iota
	kindDomain
	kinds
)

// request is one pre-built HTTP request.
type request struct {
	raw  []byte
	kind reqKind
	// id indexes the workload's tables: the route batch of a validate
	// request, the domain name of a domain request.
	id int
}

func postRequest(path string, body []byte) []byte {
	return append([]byte(fmt.Sprintf(
		"POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, len(body))), body...)
}

func getRequest(path string) []byte {
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: bench\r\n\r\n", path))
}

// requestTimeout bounds one request; hitting it is a failed request.
const requestTimeout = 2 * time.Second

// conn is one keep-alive HTTP/1.1 connection.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, requestTimeout)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (h *conn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// do sends one request and reads the whole response. The returned body
// is valid until the next call. After an error the connection is
// replaced, so one failure does not fail every later request.
func (h *conn) do(raw []byte) (status int, body []byte, err error) {
	defer func() {
		if err != nil {
			h.close()
			if c, derr := net.DialTimeout("tcp", h.addr, requestTimeout); derr == nil {
				h.c = c
				h.br.Reset(c)
			}
		}
	}()
	if h.c == nil {
		return 0, nil, errors.New("bench: connection lost and not re-established")
	}
	if err = h.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err = h.c.Write(raw); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, nil, err
	}
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, h.body.Bytes(), nil
}

// sleepUntil blocks until t. nanosleep(2) wakes within the kernel's
// timer slack (tens of µs); time.Sleep can round a sub-millisecond wait
// up to a whole millisecond when the runtime parks in epoll.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// onResponse sees every completed request: sender index, the request,
// the status and body, and when the response was fully read. It returns
// false if the response is wrong. It runs on the sender's goroutine.
type onResponse func(sender int, req *request, status int, body []byte, at time.Time) bool

// phase is the record of one load phase.
type phase struct {
	offered   float64 // req/s scheduled (0 for a closed loop)
	elapsed   time.Duration
	attempted int
	failed    int
	samples   [kinds][]sample
	// schedLag is, per request the generator waited for, how late it
	// woke past the due time: the generator's own lateness, as opposed
	// to backlog the system caused.
	schedLag []sample
	// backlog is how late the phase's last requests were sent.
	backlog time.Duration
	selfCPU time.Duration
}

func (p *phase) completed() int {
	n := 0
	for _, s := range p.samples {
		n += len(s)
	}
	return n
}

// achieved is completed requests per second of the phase.
func (p *phase) achieved() float64 { return float64(p.completed()) / p.elapsed.Seconds() }

// senderLog is one sender's private part of a phase, merged at the end.
type senderLog struct {
	attempted, failed int
	samples           [kinds][]sample
	schedLag          []sample
	lastLate          time.Duration
}

func (l *senderLog) record(req *request, due, lat time.Duration, ok bool) {
	l.attempted++
	if !ok {
		l.failed++
		return
	}
	l.samples[req.kind] = append(l.samples[req.kind], sample{due: due, lat: lat})
}

func mergeLogs(p *phase, logs []senderLog) {
	for i := range logs {
		l := &logs[i]
		p.attempted += l.attempted
		p.failed += l.failed
		for k := range l.samples {
			p.samples[k] = append(p.samples[k], l.samples[k]...)
		}
		p.schedLag = append(p.schedLag, l.schedLag...)
		p.backlog = max(p.backlog, l.lastLate)
	}
}

// openLoop sends reqs (cycling) on a fixed schedule of rate req/s for d:
// request i is due at start + i/rate whatever happened to the requests
// before it. Latency runs from the due time, so a stall's queueing delay
// lands on the requests that waited behind it.
func openLoop(ctx context.Context, conns []*conn, reqs []request, rate float64, d time.Duration, first int, on onResponse) *phase {
	p := &phase{offered: rate}
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(d / interval)
	logs := make([]senderLog, len(conns))
	var next atomic.Int64
	cpu0 := processCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for s := range conns {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			l := &logs[s]
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := time.Duration(i) * interval
				dueAt := start.Add(due)
				if time.Until(dueAt) > 0 {
					sleepUntil(dueAt)
					l.schedLag = append(l.schedLag, sample{due: due, lat: time.Since(dueAt)})
				}
				l.lastLate = time.Since(dueAt)
				req := &reqs[(first+int(i))%len(reqs)]
				status, body, err := conns[s].do(req.raw)
				at := time.Now()
				l.record(req, due, at.Sub(dueAt), err == nil && on(s, req, status, body, at))
			}
		}(s)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.selfCPU = processCPU() - cpu0
	mergeLogs(p, logs)
	return p
}

// closedLoop has every connection send its next request as soon as the
// previous one completes, for d. Latency runs from the send.
func closedLoop(ctx context.Context, conns []*conn, reqs []request, d time.Duration, first int, on onResponse) *phase {
	p := &phase{}
	logs := make([]senderLog, len(conns))
	var next atomic.Int64
	cpu0 := processCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for s := range conns {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			l := &logs[s]
			for ctx.Err() == nil {
				sent := time.Now()
				if sent.Sub(start) >= d {
					return
				}
				req := &reqs[(first+int(next.Add(1)-1))%len(reqs)]
				status, body, err := conns[s].do(req.raw)
				at := time.Now()
				l.record(req, sent.Sub(start), at.Sub(sent), err == nil && on(s, req, status, body, at))
			}
		}(s)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.selfCPU = processCPU() - cpu0
	mergeLogs(p, logs)
	return p
}
