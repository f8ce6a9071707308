package main

import (
	"context"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once for 200 ms must show up in the latency of every
// request due during the stall: latency runs from the due time, so a
// request that waited for a connection behind the stall carries the wait
// (a client that times from the send, like rmreplay, would hide it). The
// generator itself must keep to its schedule, report how late it ran, and
// never open more than two connections.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var (
		mu                 sync.Mutex // held through the stall, so the whole server stalls
		once               sync.Once
		stallFrom, stallTo time.Time // written under mu
		conns              atomic.Int64
	)
	start := time.Now().Add(50 * time.Millisecond) //lint:allow wallclock the schedule under test runs in wall time
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			t.Error(err)
		}
		mu.Lock()
		if time.Since(start) > 100*time.Millisecond { //lint:allow wallclock stall trigger
			once.Do(func() {
				stallFrom = time.Now() //lint:allow wallclock stall window
				time.Sleep(stall)      //lint:allow wallclock the stall under test
				stallTo = time.Now()   //lint:allow wallclock stall window
			})
		}
		mu.Unlock()
		if _, err := w.Write([]byte(`{"predictions":[0.5]}`)); err != nil {
			t.Error(err)
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	var shots []shot
	for due := time.Duration(0); due < 500*time.Millisecond; due += 5 * time.Millisecond {
		shots = append(shots, shot{due: due, body: []byte(`{}`)})
	}
	client := newLoadClient(loadConns)
	defer client.CloseIdleConnections()
	outs := openLoop(context.Background(), client, srv.URL, shots, start, loadConns)

	mu.Lock()
	from, to := stallFrom.Sub(start), stallTo.Sub(start)
	mu.Unlock()
	if to-from < stall {
		t.Fatalf("server did not stall: %v..%v", from, to)
	}
	during := 0
	for i, sh := range shots {
		o := outs[i]
		if o.err != nil || o.status != http.StatusOK || len(o.preds) != 1 {
			t.Fatalf("shot %d: status %d, preds %v, err %v", i, o.status, o.preds, o.err)
		}
		if o.late < 0 {
			t.Errorf("shot %d: negative lateness %v", i, o.late)
		}
		if sh.due >= from && sh.due < to {
			during++
			if sh.due+o.latency < to {
				t.Errorf("shot due at %v finished at %v, inside the stall that ended at %v", sh.due, sh.due+o.latency, to)
			}
		}
	}
	if during < 20 {
		t.Errorf("only %d shots were due during the stall", during)
	}
	st, errs := summarize(shots, outs, 0, 500*time.Millisecond, time.Second,
		func(shot, outcome) error { return nil }, func(shot) bool { return true })
	if len(errs) != 0 || st.n != len(shots) {
		t.Fatalf("summary %+v, errors %v", st, errs)
	}
	if st.lateP99 <= 0 || st.lateP99 > stall/4 {
		t.Errorf("generator lateness p99 %v: it must be measured and stay well below the stall", st.lateP99)
	}
	if st.p99 < stall/2 {
		t.Errorf("p99 latency %v does not show the %v stall", st.p99, stall)
	}
	if n := conns.Load(); n > loadConns {
		t.Errorf("%d connections opened, want at most %d", n, loadConns)
	}
}

// A rung offers exactly rate x span requests, sorted inside the window,
// identically for the same seed.
func TestPoissonShotsExactCount(t *testing.T) {
	bodies := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	draw := func() []shot {
		next := 0
		return poissonShots(bodies, 250, time.Second, 3*time.Second, rand.New(rand.NewPCG(7, 1)), &next)
	}
	a, b := draw(), draw()
	if len(a) != 500 {
		t.Fatalf("%d shots, want 500", len(a))
	}
	for i, sh := range a {
		if sh.due < time.Second || sh.due >= 3*time.Second || (i > 0 && sh.due < a[i-1].due) {
			t.Fatalf("shot %d due %v out of order or outside [1s, 3s)", i, sh.due)
		}
		if sh.req != i%len(bodies) || string(sh.body) != string(bodies[sh.req]) {
			t.Fatalf("shot %d: request %d body %q", i, sh.req, sh.body)
		}
		if sh.due != b[i].due {
			t.Fatalf("shot %d: due %v then %v for the same seed", i, sh.due, b[i].due)
		}
	}
}
