package ssd

import (
	"fmt"

	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// NVMe queue-pair model. The block path's Table II calibration (45K random
// 4K IOPS) is a queue-depth-1 figure; real hosts drive NVMe devices through
// submission/completion queue pairs holding many commands in flight. This
// file models one queue pair over the event-driven kernel: the host keeps
// the submission queue full up to its depth, each completion rings the
// doorbell for the next command, and throughput rises until the flash
// array's internal parallelism saturates — the latent bandwidth the
// in-storage engines use without any host round trip.

// QueuePair drives a device with a bounded number of in-flight commands.
type QueuePair struct {
	dev   *Device
	depth int
}

// NewQueuePair creates a queue pair of the given depth.
func NewQueuePair(dev *Device, depth int) (*QueuePair, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("ssd: queue depth %d", depth)
	}
	return &QueuePair{dev: dev, depth: depth}, nil
}

// Depth returns the queue depth.
func (qp *QueuePair) Depth() int { return qp.depth }

// RunRandomReads issues n random 4K page reads keeping the queue full, and
// returns the completion time of the last command. Addresses are drawn
// deterministically from seed.
func (qp *QueuePair) RunRandomReads(n int, seed uint64) sim.Time {
	if n <= 0 {
		return 0
	}
	rng := tensor.NewRNG(seed)
	total := int(qp.dev.TotalPages())
	q := sim.NewEventQueue()
	var last sim.Time
	issued := 0
	inflight := 0 // submissions minus completions; simdebug bounds it by depth

	var submit func(now sim.Time)
	submit = func(now sim.Time) {
		if issued >= n {
			return
		}
		issued++
		inflight++
		debugInflight(qp, inflight)
		lpn := int64(rng.Intn(total))
		done := qp.dev.ReadPage(now, lpn)
		if done > last {
			last = done
		}
		// The completion interrupt retires the command and admits the next
		// one (doorbell cost folded into NVMeCmdCost on the device side).
		q.Schedule(done, func(now sim.Time) {
			inflight--
			debugInflight(qp, inflight)
			submit(now)
		})
	}
	// Prime the queue to its depth at t=0.
	for i := 0; i < qp.depth && i < n; i++ {
		q.Schedule(0, submit)
	}
	q.Run()
	debugDrained(qp, inflight)
	return last
}

// MeasureRandomReadIOPS reports the steady random-read rate at the queue
// pair's depth over n commands.
func (qp *QueuePair) MeasureRandomReadIOPS(n int, seed uint64) float64 {
	done := qp.RunRandomReads(n, seed)
	if done <= 0 {
		return 0
	}
	return float64(n) / done.Seconds()
}
