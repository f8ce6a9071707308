package serving

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"rmssd/internal/obs"
	"rmssd/internal/sim"
)

// gatedStages is batch metadata shaped like the searched design's: a send,
// a lane stage whose gate lane is the bottom MLP, and a read.
type gatedStages struct {
	send, gate, die, read time.Duration
}

func (g gatedStages) Stages() []sim.Stage {
	emb := max(g.gate, g.die)
	return []sim.Stage{
		{Name: "send", Time: g.send},
		{Name: "emb", Time: emb, Lanes: []sim.LaneLoad{{Busy: g.gate, Gate: true}, {Busy: g.die}}},
		{Name: "read", Time: g.read},
	}
}

// idRequest is a payload request of n inferences whose first index is id,
// so backends can tell requests apart.
func idRequest(id, n int) Request {
	sparse := make([][][]int64, n)
	for i := range sparse {
		sparse[i] = [][]int64{{int64(id)}}
	}
	return Request{Sparse: sparse}
}

func requestID(r Request) int { return int(r.Sparse[0][0][0]) }

// idPred is inference i of request id's prediction.
func idPred(id, i int) float32 { return float32(id*10+i) / 7 }

// stubShard is a replay backend: stages reports each batch's stages,
// predictions are idPred of the request, requests whose id fails reject
// are failed on their own, and served lists the request ids it got.
type stubShard struct {
	stages func(reqs []Request) gatedStages
	reject func(id int) bool
	served []int
}

func (b *stubShard) ServeBatch(reqs []Request) BatchResult {
	var res BatchResult
	for k, r := range reqs {
		id := requestID(r)
		b.served = append(b.served, id)
		if b.reject != nil && b.reject(id) {
			if res.ReqErrs == nil {
				res.ReqErrs = make([]error, len(reqs))
			}
			res.ReqErrs[k] = context.Canceled
			continue
		}
		for i := 0; i < r.Count(); i++ {
			res.Preds = append(res.Preds, idPred(id, i))
		}
	}
	res.Meta = b.stages(reqs)
	return res
}

func idSource(n int, count func(id int) int) *sliceSource {
	src := &sliceSource{}
	for id := 0; id < n; id++ {
		src.reqs = append(src.reqs, idRequest(id, count(id)))
	}
	return src
}

func one(int) int { return 1 }

// TestReplayDispatchAvoidsGatedShard: while shard 0's bottom MLP is busy
// for a second, every later request goes to shard 1, which can start it
// at once. Round robin would park every other request behind shard 0.
func TestReplayDispatchAvoidsGatedShard(t *testing.T) {
	stages := func(reqs []Request) gatedStages {
		g := gatedStages{send: time.Microsecond, gate: time.Microsecond, read: time.Microsecond}
		if requestID(reqs[0]) == 0 {
			g.gate = time.Second
		}
		return g
	}
	shards := []*stubShard{{stages: stages}, {stages: stages}}
	res, err := Replay([]Batcher{shards[0], shards[1]}, ReplayConfig{
		Rate: 1e5, MaxBatch: 4, Seed: 5,
	}, idSource(20, one))
	if err != nil {
		t.Fatal(err)
	}
	if len(shards[0].served) != 1 || shards[0].served[0] != 0 {
		t.Fatalf("shard 0 served %v while gated; want only request 0", shards[0].served)
	}
	if len(shards[1].served) != 19 || res.PerShard[1] != 19 {
		t.Fatalf("shard 1 served %v, want requests 1..19", shards[1].served)
	}
}

// TestReplayDispatchIdleShardsTakeTurns: when every shard is idle at each
// arrival, the tie goes to the shard whose latest batch completed
// earliest, so request i lands on shard i mod n.
func TestReplayDispatchIdleShardsTakeTurns(t *testing.T) {
	stages := func([]Request) gatedStages {
		return gatedStages{send: time.Microsecond, gate: time.Microsecond, die: 2 * time.Microsecond, read: time.Microsecond}
	}
	for n := 1; n <= 3; n++ {
		shards := make([]*stubShard, n)
		backends := make([]Batcher, n)
		for s := range shards {
			shards[s] = &stubShard{stages: stages}
			backends[s] = shards[s]
		}
		if _, err := Replay(backends, ReplayConfig{Rate: 10, MaxBatch: 4, Seed: 9}, idSource(30, one)); err != nil {
			t.Fatal(err)
		}
		for s, sh := range shards {
			if len(sh.served) != 30/n {
				t.Fatalf("%d shards: shard %d served %v", n, s, sh.served)
			}
			for _, id := range sh.served {
				if id%n != s {
					t.Fatalf("%d shards: shard %d served request %d (all: %v)", n, s, id, sh.served)
				}
			}
		}
	}
}

// TestReplayPredCheckFoldsByStream: PredCheck is the FNV-1a fold of every
// served prediction by stream (draw index mod shard count, each stream in
// draw order), whatever shard served each request. The backend's stage
// times vary by request so the dispatch strays from round robin, and some
// requests fail on their own, contributing no predictions.
func TestReplayPredCheckFoldsByStream(t *testing.T) {
	const reqs = 60
	count := func(id int) int { return 1 + id%3 }
	reject := func(id int) bool { return id%7 == 3 }
	stages := func(rs []Request) gatedStages {
		return gatedStages{
			send: time.Microsecond,
			gate: time.Duration(1+requestID(rs[0])%5) * 20 * time.Microsecond,
			die:  time.Duration(CountOf(rs)) * time.Microsecond,
			read: time.Microsecond,
		}
	}
	for n := 1; n <= 3; n++ {
		shards := make([]*stubShard, n)
		backends := make([]Batcher, n)
		for s := range shards {
			shards[s] = &stubShard{stages: stages, reject: reject}
			backends[s] = shards[s]
		}
		res, err := Replay(backends, ReplayConfig{Rate: 4e4, MaxBatch: 6, Seed: 3}, idSource(reqs, count))
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(1469598103934665603)
		for s := 0; s < n; s++ {
			for id := s; id < reqs; id += n {
				if reject(id) {
					continue
				}
				for i := 0; i < count(id); i++ {
					want = (want ^ uint64(math.Float32bits(idPred(id, i)))) * 1099511628211
				}
			}
		}
		if res.PredCheck != want {
			t.Fatalf("%d shards: PredCheck %016x, stream-order fold %016x", n, res.PredCheck, want)
		}
		if n > 1 {
			strayed := false
			for s, sh := range shards {
				for _, id := range sh.served {
					strayed = strayed || id%n != s
				}
			}
			if !strayed {
				t.Fatalf("%d shards: dispatch stayed round robin; the test shows nothing", n)
			}
		}
	}
}

// TestPoolDispatchSkipsBusyShard: with shard 0's backend blocked, a request
// submitted after shard 1 has answered its own goes to shard 1, not into
// the queue behind shard 0.
func TestPoolDispatchSkipsBusyShard(t *testing.T) {
	gate := make(chan bool)
	busy := &fakeBatcher{gate: gate}
	p := NewPool([]Batcher{busy, &fakeBatcher{}}, 1, 4)
	defer p.Close()
	// Unblock shard 0 before Close on every exit, so a failure ends the
	// test instead of hanging it.
	release := sync.OnceFunc(func() { close(gate) })
	defer release()

	first := make(chan error, 1)
	go func() {
		resp, err := p.Infer(1)
		if err == nil && resp.Shard != 0 {
			err = fmt.Errorf("first request served by shard %d, want 0", resp.Shard)
		}
		first <- err
	}()
	for !busy.inCall.Load() {
		//lint:allow wallclock test polls host-side worker state
		time.Sleep(100 * time.Microsecond)
	}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := p.Submit(ctx, Request{N: 1})
		cancel()
		if err != nil {
			t.Fatalf("request %d behind the blocked shard: %v", i, err)
		}
		if resp.Shard != 1 {
			t.Fatalf("request %d served by shard %d, want the idle shard 1", i, resp.Shard)
		}
	}
	release()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	// Both shards idle again: sequential requests take them in turn,
	// starting with shard 1, whose latest batch completed before shard 0's.
	var got []int
	for i := 0; i < 4; i++ {
		resp, err := p.Infer(1)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resp.Shard)
	}
	if want := []int{1, 0, 1, 0}; !slices.Equal(got, want) {
		t.Fatalf("idle shards served %v, want %v", got, want)
	}
}

// FuzzReplayDispatch checks the replay's dispatch over shard counts,
// rates, batch caps and stage times, from its trace records: every request
// is served exactly once, no batch starts before its shard's pipeline is
// vacant, and no batch starts later than another shard could have started
// its head request.
func FuzzReplayDispatch(f *testing.F) {
	f.Add(uint8(2), uint16(800), uint8(4), uint16(9), uint16(900), uint16(40), uint16(650))
	f.Add(uint8(1), uint16(50), uint8(1), uint16(0), uint16(0), uint16(0), uint16(0))
	f.Add(uint8(3), uint16(4000), uint8(8), uint16(3), uint16(10), uint16(300), uint16(5))
	f.Add(uint8(4), uint16(1), uint8(2), uint16(1000), uint16(1), uint16(1), uint16(1000))
	f.Fuzz(func(t *testing.T, sh uint8, rate uint16, mb uint8, send, gate, die, read uint16) {
		shards := 1 + int(sh%4)
		maxBatch := 1 + int(mb%8)
		const reqs = 64
		count := func(id int) int { return 1 + id%3 }
		// Stage times in microseconds; the send and the die work grow
		// with the batch, the gate does not (the bottom MLP's full pass).
		stagesFor := func(n int) gatedStages {
			return gatedStages{
				send: time.Duration(int(send%2000)*n) * time.Microsecond / 8,
				gate: time.Duration(gate%2000) * time.Microsecond,
				die:  time.Duration(int(die%2000)*n) * time.Microsecond / 4,
				read: time.Duration(read%2000) * time.Microsecond,
			}
		}
		backends := make([]Batcher, shards)
		for s := range backends {
			backends[s] = &stubShard{stages: func(rs []Request) gatedStages { return stagesFor(CountOf(rs)) }}
		}
		tr := obs.NewTracer(nil)
		res, err := Replay(backends, ReplayConfig{
			Rate: float64(1 + int(rate)*10), MaxBatch: maxBatch, Seed: uint64(rate), Tracer: tr,
		}, idSource(reqs, count))
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != reqs || res.Failed != 0 {
			t.Fatalf("served %d requests (%d failed), want %d", res.Requests, res.Failed, reqs)
		}

		recs := tr.Records()
		sort.Slice(recs, func(i, j int) bool { return recs[i].Requests[0].ID < recs[j].Requests[0].ID })
		pipes := make([]sim.BlockingPipeline, shards)
		next := int64(0)
		for _, rec := range recs {
			n := 0
			for _, rq := range rec.Requests {
				if rq.ID != next {
					t.Fatalf("batch on shard %d serves request %d, want %d next", rec.Shard, rq.ID, next)
				}
				next++
				n += rq.N
			}
			if v := pipes[rec.Shard].Vacant(); rec.Start < v {
				t.Fatalf("batch of request %d starts at %v on shard %d, vacant only at %v",
					rec.Requests[0].ID, rec.Start, rec.Shard, v)
			}
			head := rec.Requests[0].Arrival
			for s := range pipes {
				if at := max(head, pipes[s].Vacant()); at < rec.Start {
					t.Fatalf("batch of request %d starts at %v on shard %d; shard %d could start it at %v",
						rec.Requests[0].ID, rec.Start, rec.Shard, s, at)
				}
			}
			if done := pipes[rec.Shard].Push(rec.Start, stagesFor(n).Stages()); done != rec.Complete {
				t.Fatalf("batch of request %d completes at %v, its shard's pipeline says %v",
					rec.Requests[0].ID, rec.Complete, done)
			}
		}
		if next != reqs {
			t.Fatalf("trace records cover %d of %d requests", next, reqs)
		}
	})
}
