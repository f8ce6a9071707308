package ssd

import (
	"testing"
)

// mustPair builds a queue pair of the given depth, failing the test on error.
func mustPair(t *testing.T, d *Device, depth int) *QueuePair {
	t.Helper()
	qp, err := NewQueuePair(d, depth)
	if err != nil {
		t.Fatal(err)
	}
	return qp
}

func TestQueuePairValidation(t *testing.T) {
	d := testDevice(t)
	if _, err := NewQueuePair(d, 0); err == nil {
		t.Fatal("depth 0 should fail")
	}
	qp, err := NewQueuePair(d, 4)
	if err != nil || qp.Depth() != 4 {
		t.Fatal("construction failed")
	}
}

func TestQD1MatchesSerialCalibration(t *testing.T) {
	d := testDevice(t)
	qp := mustPair(t, d, 1)
	iops := qp.MeasureRandomReadIOPS(300, 3)
	if iops < 38_000 || iops > 52_000 {
		t.Fatalf("QD1 IOPS = %.0f, want ~45K (Table II)", iops)
	}
}

func TestDeeperQueuesScaleUntilSaturation(t *testing.T) {
	prev := 0.0
	for _, depth := range []int{1, 4, 16, 64} {
		d := testDevice(t)
		qp := mustPair(t, d, depth)
		iops := qp.MeasureRandomReadIOPS(400, 7)
		if iops < prev*0.98 {
			t.Fatalf("QD %d IOPS %.0f dropped below QD/4's %.0f", depth, iops, prev)
		}
		prev = iops
	}
	// At QD64 the array's parallelism should deliver far more than QD1.
	d := testDevice(t)
	qp64 := mustPair(t, d, 64)
	d1 := testDevice(t)
	qp1 := mustPair(t, d1, 1)
	hi := qp64.MeasureRandomReadIOPS(400, 7)
	lo := qp1.MeasureRandomReadIOPS(400, 7)
	if hi < 3*lo {
		t.Fatalf("QD64 (%.0f) should be >=3x QD1 (%.0f)", hi, lo)
	}
}

func TestRunRandomReadsZero(t *testing.T) {
	d := testDevice(t)
	qp := mustPair(t, d, 4)
	if qp.RunRandomReads(0, 1) != 0 {
		t.Fatal("zero reads should take zero time")
	}
}

func TestRunRandomReadsDeterministic(t *testing.T) {
	mk := func() sim64 {
		d := testDevice(t)
		qp := mustPair(t, d, 8)
		return sim64(qp.RunRandomReads(200, 9))
	}
	if mk() != mk() {
		t.Fatal("queue-pair runs not deterministic")
	}
}

type sim64 int64
