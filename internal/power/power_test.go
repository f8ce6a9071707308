package power

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestEnergyUnits(t *testing.T) {
	e := Energy(1e9) // 1 J
	if e.Joules() != 1 {
		t.Fatalf("Joules = %v", e.Joules())
	}
	if Energy(1000).Microjoules() != 1 {
		t.Fatal("Microjoules broken")
	}
}

func TestEnergyString(t *testing.T) {
	cases := []struct {
		e    Energy
		want string
	}{
		{5, "nJ"},
		{5e3, "uJ"},
		{5e6, "mJ"},
		{5e9, "J"},
	}
	for _, c := range cases {
		if !strings.Contains(c.e.String(), c.want) {
			t.Errorf("%v formatted as %q, want unit %s", float64(c.e), c.e.String(), c.want)
		}
	}
}

func TestActiveEnergy(t *testing.T) {
	// 1 ms at 65 W = 65 mJ = 6.5e7 nJ.
	got := ActiveEnergy(time.Millisecond, 65)
	if got < 6.4e7 || got > 6.6e7 {
		t.Fatalf("ActiveEnergy = %v", got)
	}
}

func TestProfileTotalComposition(t *testing.T) {
	p := Profile{FlashPageReads: 10}
	if p.Total() != 10*PageSenseEnergy {
		t.Fatalf("page-only total = %v", p.Total())
	}
	p2 := Profile{PCIeBytes: 1000}
	if p2.Total() != Energy(1000)*PCIeEnergyPerByte {
		t.Fatalf("pcie-only total = %v", p2.Total())
	}
	sum := p.Add(p2)
	if sum.Total() != p.Total()+p2.Total() {
		t.Fatal("Add does not compose")
	}
}

// TestComponentsSumToTotal: the components Total sums are the per-unit
// products and active energies, and they add up to Total bit for bit in
// declaration order, so a breakdown printed from them always matches its
// total.
func TestComponentsSumToTotal(t *testing.T) {
	x := uint64(0x9e3779b97f4a7c15)
	draw := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % 1e9)
	}
	for i := 0; i < 200; i++ {
		p := Profile{
			HostCPUTime: time.Duration(draw()), DeviceTime: time.Duration(draw()), FPGAActive: time.Duration(draw()),
			FlashPageReads: draw(), FlashBytesMoved: draw(), PCIeBytes: draw(), HostDRAMBytes: draw(), MACs: draw(),
		}
		c := p.Components()
		want := Components{
			HostCPU:    ActiveEnergy(p.HostCPUTime, HostCPUPower),
			SSDStatic:  ActiveEnergy(p.DeviceTime, SSDIdlePower),
			FPGAStatic: ActiveEnergy(p.FPGAActive, FPGAStaticPower),
			PageSense:  Energy(Energy(p.FlashPageReads) * PageSenseEnergy),
			FlashBus:   Energy(Energy(p.FlashBytesMoved) * FlashBusEnergyPerByte),
			PCIe:       Energy(Energy(p.PCIeBytes) * PCIeEnergyPerByte),
			HostDRAM:   Energy(Energy(p.HostDRAMBytes) * DRAMEnergyPerByte),
			MACs:       Energy(Energy(p.MACs) * FPGAMACEnergy),
		}
		if c != want {
			t.Fatalf("profile %+v: components %+v, want %+v", p, c, want)
		}
		e := c.HostCPU
		for _, v := range []Energy{c.SSDStatic, c.FPGAStatic, c.PageSense, c.FlashBus, c.PCIe, c.HostDRAM, c.MACs} {
			e += v
		}
		if math.Float64bits(float64(e)) != math.Float64bits(float64(p.Total())) {
			t.Fatalf("profile %+v: components sum to %v, Total %v", p, float64(e), float64(p.Total()))
		}
	}
}

// The core energy argument: a page-granular read moves 32x the bytes of a
// vector read over the flash bus, and the host-CPU seconds dwarf device
// energy — the quantitative version of the paper's power motivation.
func TestVectorVsPageEnergy(t *testing.T) {
	pageRead := Profile{FlashPageReads: 1, FlashBytesMoved: 4096, PCIeBytes: 4096}
	vecRead := Profile{FlashPageReads: 1, FlashBytesMoved: 128, PCIeBytes: 0}
	if vecRead.Total() >= pageRead.Total() {
		t.Fatal("vector read should cost less energy than page read")
	}
	hostMs := Profile{HostCPUTime: time.Millisecond}
	if hostMs.Total() < 100*pageRead.Total() {
		t.Fatalf("1ms of host CPU (%v) should dwarf a page read (%v)",
			hostMs.Total(), pageRead.Total())
	}
}

func TestProfileAddAllFields(t *testing.T) {
	a := Profile{
		HostCPUTime: 1, DeviceTime: 2, FPGAActive: 3,
		FlashPageReads: 4, FlashBytesMoved: 5, PCIeBytes: 6,
		HostDRAMBytes: 7, MACs: 8,
	}
	b := a.Add(a)
	if b.HostCPUTime != 2 || b.DeviceTime != 4 || b.FPGAActive != 6 ||
		b.FlashPageReads != 8 || b.FlashBytesMoved != 10 || b.PCIeBytes != 12 ||
		b.HostDRAMBytes != 14 || b.MACs != 16 {
		t.Fatalf("Add dropped a field: %+v", b)
	}
}
